// Event-driven pipeline for a round's phase ② (DESIGN.md §15).
//
// WaveScheduler::run is a bounded producer/consumer pipeline over slot
// indices. produce(i) calls may run concurrently on the pool in any
// order (each participant's work is independent: its own RNG streams,
// its own fabric links, a leased replica); consume(i) runs strictly
// serially in ascending slot order, on whichever thread finished the
// gating slot. At most `window` slots may be produced ahead of the
// consume cursor, which is what bounds the number of materialized
// model-sized updates in flight: while slot i's update is being folded
// into the aggregation accumulator, slots i+1 … i+window-1 are already
// training.
//
// The strict ascending consume order is a fixed-slot fold (DESIGN.md
// §13): the fold sequence a WaveScheduler drives is bit-identical to a
// serial loop over the same slots, at any pool size and any window ≥ 1.
#pragma once

#include <cstddef>
#include <functional>

#include "src/utils/threadpool.hpp"

namespace fedcav::fl {

class WaveScheduler {
 public:
  /// Run the pipeline: produce(i) for every i in [first, n) concurrently
  /// (at most `window` ≥ 1 slots beyond the consume cursor), consume(i)
  /// serially in ascending i. Blocks until every slot is consumed. The
  /// first exception (in completion order) cancels outstanding work and
  /// is rethrown. With a window of 1, or called from inside one of
  /// `pool`'s workers (nested parallelism), the pipeline is the serial
  /// produce/consume loop on the caller, like ThreadPool::parallel_for
  /// degrades to.
  static void run(ThreadPool& pool, std::size_t first, std::size_t n,
                  std::size_t window,
                  const std::function<void(std::size_t)>& produce,
                  const std::function<void(std::size_t)>& consume);
};

}  // namespace fedcav::fl
