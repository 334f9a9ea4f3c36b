#include "src/fl/wave_scheduler.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <vector>

#include "src/utils/error.hpp"

namespace fedcav::fl {

namespace {

/// Shared pipeline state; one instance per WaveScheduler::run call.
struct PipelineState {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t next_issue = 0;    // next slot handed to a producer
  std::size_t next_consume = 0;  // consume cursor (strictly ascending)
  std::size_t end = 0;
  std::size_t window = 1;
  std::vector<char> ready;  // ring [slot % window]: produced, not consumed
  bool consuming = false;   // one thread at a time drains the consume side
  std::exception_ptr error;
};

/// Body run by every participating thread (submitted workers + the
/// caller): claim slots while the window has room, produce them, and —
/// when a produced slot turns out to be the consume cursor's gate —
/// drain the serial consume side until it blocks on an in-flight slot.
void pipeline_worker(PipelineState& st,
                     const std::function<void(std::size_t)>& produce,
                     const std::function<void(std::size_t)>& consume) {
  for (;;) {
    std::size_t slot;
    {
      std::unique_lock<std::mutex> lock(st.mutex);
      st.cv.wait(lock, [&] {
        return st.error || st.next_issue >= st.end ||
               st.next_issue - st.next_consume < st.window;
      });
      if (st.error || st.next_issue >= st.end) return;
      slot = st.next_issue++;
    }
    try {
      produce(slot);
    } catch (...) {
      std::lock_guard<std::mutex> lock(st.mutex);
      if (!st.error) st.error = std::current_exception();
      st.cv.notify_all();
      return;
    }
    std::unique_lock<std::mutex> lock(st.mutex);
    st.ready[slot % st.window] = 1;
    // Drain: the mark-and-check is atomic under the lock, so whichever
    // thread readies the gating slot (or is already draining) owns the
    // consume side — a ready slot is never orphaned.
    while (!st.error && !st.consuming && st.next_consume < st.end &&
           st.ready[st.next_consume % st.window]) {
      st.consuming = true;
      const std::size_t c = st.next_consume;
      lock.unlock();
      try {
        consume(c);
      } catch (...) {
        lock.lock();
        if (!st.error) st.error = std::current_exception();
        st.consuming = false;
        st.cv.notify_all();
        return;
      }
      lock.lock();
      st.ready[c % st.window] = 0;
      ++st.next_consume;
      st.consuming = false;
      st.cv.notify_all();  // the window advanced; wake blocked producers
    }
  }
}

}  // namespace

void WaveScheduler::run(ThreadPool& pool, std::size_t first, std::size_t n,
                        std::size_t window,
                        const std::function<void(std::size_t)>& produce,
                        const std::function<void(std::size_t)>& consume) {
  if (first >= n) return;
  const std::size_t count = n - first;
  // Nested call (already on a pool worker) or nothing to overlap: the
  // serial loop IS the reference order the pipeline reproduces.
  if (pool.in_worker_thread() || count == 1 || window <= 1 ||
      pool.size() == 0) {
    for (std::size_t i = first; i < n; ++i) {
      produce(i);
      consume(i);
    }
    return;
  }

  PipelineState st;
  st.next_issue = first;
  st.next_consume = first;
  st.end = n;
  st.window = std::min(window, count);
  st.ready.assign(st.window, 0);

  const std::size_t helpers = std::min(pool.size(), count - 1);
  std::vector<std::future<void>> joins;
  joins.reserve(helpers);
  for (std::size_t k = 0; k < helpers; ++k) {
    joins.push_back(pool.submit(
        [&st, &produce, &consume] { pipeline_worker(st, produce, consume); }));
  }
  pipeline_worker(st, produce, consume);
  for (auto& f : joins) f.get();

  if (st.error) std::rethrow_exception(st.error);
  FEDCAV_REQUIRE(st.next_consume == n, "WaveScheduler: pipeline incomplete");
}

}  // namespace fedcav::fl
