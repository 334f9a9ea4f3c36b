// Round-pipeline test layer (DESIGN.md §15). Pins, in order of
// increasing integration:
//   * WaveScheduler consumes strictly in ascending order, produces at
//     most `window` slots ahead, completes every slot exactly once, and
//     propagates exceptions — at any pool size, including the nested
//     serial fallback;
//   * full Server rounds on a 1-worker pool (window 1: the serial
//     produce/fold loop) and on a 4-worker pool (the concurrent
//     pipeline) produce byte-identical weights, timing-free CSV, and
//     RoundRecord fields — clean runs for every strategy, plus a faulty
//     run (drops, duplicates, stragglers, quorum, deadline);
//   * a run is independent of its clients' RNG stream history (§16).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/fl/simulation.hpp"
#include "src/fl/wave_scheduler.hpp"
#include "src/utils/logging.hpp"
#include "src/utils/threadpool.hpp"
#include "property.hpp"

namespace fedcav {
namespace {

const char* kStrategies[] = {"fedavg", "fedprox", "fedcav", "fedcav-noclip",
                             "median"};

bool bits_equal(const nn::Weights& a, const nn::Weights& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// ------------------------------------------------------- WaveScheduler

TEST(WaveScheduler, AscendingConsumeBoundedProduceEverySlotOnce) {
  // Shared pools: spawning threads per property case would dominate the
  // test. The scheduler itself is what varies.
  ThreadPool pool1(1), pool4(4);
  FEDCAV_PROPERTY("pipeline order + window", 300, [&](Rng& rng) {
    ThreadPool& pool = rng.bernoulli(0.5) ? pool4 : pool1;
    const auto first = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{3}));
    const std::size_t n =
        first + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{40}));
    const auto window =
        1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{8}));

    std::vector<std::atomic<int>> produced(n > 0 ? n + window + 1 : 1);
    for (auto& p : produced) p.store(0);
    std::vector<std::size_t> consume_order;  // serial side: no lock needed
    fl::WaveScheduler::run(
        pool, first, n, window,
        [&](std::size_t i) { produced[i].fetch_add(1); },
        [&](std::size_t i) {
          // Ring exclusivity: produce(i + window) must not have started
          // before consume(i) finishes.
          if (i + window < produced.size()) {
            EXPECT_EQ(produced[i + window].load(), 0)
                << "produce overran the window at slot " << i;
          }
          EXPECT_EQ(produced[i].load(), 1);
          consume_order.push_back(i);
        });

    ASSERT_EQ(consume_order.size(), n - std::min(first, n));
    for (std::size_t k = 0; k < consume_order.size(); ++k) {
      EXPECT_EQ(consume_order[k], first + k) << "consume out of order";
    }
    for (std::size_t i = first; i < n; ++i) EXPECT_EQ(produced[i].load(), 1);
  });
}

TEST(WaveScheduler, NestedCallDegradesToSerialLoop) {
  ThreadPool pool(2);
  std::vector<std::size_t> sequence;
  pool.parallel_for(1, [&](std::size_t) {
    // Called from a pool worker: the pipeline must run inline, strictly
    // interleaved produce(i); consume(i).
    fl::WaveScheduler::run(
        pool, 0, 5, 3, [&](std::size_t i) { sequence.push_back(100 + i); },
        [&](std::size_t i) { sequence.push_back(200 + i); });
  });
  const std::vector<std::size_t> want = {100, 200, 101, 201, 102,
                                         202, 103, 203, 104, 204};
  EXPECT_EQ(sequence, want);
}

TEST(WaveScheduler, ProduceExceptionPropagatesAndStopsPipeline) {
  ThreadPool pool(4);
  std::atomic<std::size_t> consumed{0};
  EXPECT_THROW(
      fl::WaveScheduler::run(
          pool, 0, 100, 4,
          [&](std::size_t i) {
            if (i == 17) throw std::runtime_error("produce boom");
          },
          [&](std::size_t) { consumed.fetch_add(1); }),
      std::runtime_error);
  EXPECT_LT(consumed.load(), std::size_t{100});
}

TEST(WaveScheduler, ConsumeExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(fl::WaveScheduler::run(
                   pool, 0, 50, 4, [&](std::size_t) {},
                   [&](std::size_t i) {
                     if (i == 9) throw std::runtime_error("consume boom");
                   }),
               std::runtime_error);
}

// --------------------------------------------- full-server bit-identity

/// Every deterministic RoundRecord field, hex-exact floats included.
std::string record_summary(const metrics::RoundRecord& rec) {
  std::ostringstream out;
  out << rec.round << '|' << rec.sampled << '|' << rec.participants << '|'
      << rec.dropouts << '|' << rec.straggler_drops << '|'
      << rec.upload_failures << '|' << rec.retries << '|' << rec.crc_failures
      << '|' << rec.stale_discards << '|' << rec.deadline_misses << '|'
      << rec.skipped << '|' << rec.attacked << '|' << rec.detection_fired
      << '|' << rec.reversed << '|' << rec.bytes_up << '|' << rec.bytes_down
      << '|';
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%a|%a|%a|%a", rec.test_accuracy,
                rec.test_loss, rec.mean_inference_loss,
                rec.max_inference_loss);
  out << buf;
  return out.str();
}

fl::SimulationConfig small_config(const std::string& strategy) {
  fl::SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.strategy = strategy;
  config.train_samples_per_class = 8;
  config.test_samples_per_class = 4;
  config.partition.num_clients = 10;
  config.seed = 2021;
  config.server.sample_ratio = 0.8;
  config.server.local.epochs = 1;
  config.server.local.batch_size = 8;
  return config;
}

struct ServerRun {
  std::string csv;  // timing-free: the deterministic comparison target
  nn::Weights weights;
  std::vector<std::string> records;
};

/// Run `rounds` rounds on `pool` (nullptr = the process-wide pool).
ServerRun run_rounds(const fl::SimulationConfig& config, std::size_t rounds,
                     ThreadPool* pool = nullptr) {
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->set_thread_pool(pool);
  sim.server->run(rounds);
  ServerRun out;
  std::ostringstream csv;
  sim.server->history().write_csv(csv, /*include_timings=*/false);
  out.csv = csv.str();
  out.weights = sim.server->global_weights();
  for (const auto& rec : sim.server->history().records()) {
    out.records.push_back(record_summary(rec));
  }
  return out;
}

void expect_identical(const ServerRun& base, const ServerRun& got,
                      const std::string& label) {
  EXPECT_TRUE(bits_equal(base.weights, got.weights))
      << label << ": final weights diverged";
  EXPECT_EQ(base.csv, got.csv) << label << ": CSV diverged";
  ASSERT_EQ(base.records.size(), got.records.size()) << label;
  for (std::size_t i = 0; i < base.records.size(); ++i) {
    EXPECT_EQ(base.records[i], got.records[i])
        << label << ": round " << i + 1 << " record diverged";
  }
}

TEST(RoundEngineServer, EveryStrategyBitIdenticalAcrossPoolSizes) {
  // One worker runs window 1, the serial produce/fold loop; four run the
  // concurrent pipeline. The fold order is ascending either way.
  set_log_level(LogLevel::kError);
  ThreadPool one(1), four(4);
  for (const char* strategy : kStrategies) {
    expect_identical(run_rounds(small_config(strategy), 2, &one),
                     run_rounds(small_config(strategy), 2, &four),
                     std::string(strategy) + " 1 vs 4 workers");
  }
}

TEST(RoundEngineServer, FaultyRunBitIdenticalAcrossPoolSizes) {
  // Dropouts, stragglers, upload failures, retries, and a quorum skip
  // reshuffle which slots fold; the run must still be invisible to the
  // pool size (and the round accounting invariant inside run_round must
  // hold, or this throws).
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config = small_config("fedcav");
  config.server.network.faults.seed = 77;
  config.server.network.faults.drop_prob = 0.25;
  config.server.network.faults.duplicate_prob = 0.15;
  config.server.network.faults.corrupt_prob = 0.1;
  config.server.straggler_drop_prob = 0.3;
  config.server.min_aggregate_clients = 2;
  config.server.max_retries = 2;
  config.server.retry_backoff_s = 0.01;
  config.server.uplink_deadline_s = 5.0;

  ThreadPool one(1), four(4);
  expect_identical(run_rounds(config, 3, &one), run_rounds(config, 3, &four),
                   "faulty 1 vs 4 workers");
}

TEST(RoundEngineServer, DerivedSeedsIgnoreClientStreamHistory) {
  // The divergence bug in miniature: scramble every client's long-lived
  // RNG stream before the run. In derived mode each participation
  // reseeds from (seed, round, id, stream), so the scramble must be
  // invisible; in legacy-stream mode the same scramble changes the run
  // (which is why remote/in-process legacy runs diverged under
  // sampling/stragglers).
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config = small_config("fedcav");
  config.server.rng_mode = RngMode::kDerived;
  config.server.sample_ratio = 0.5;
  config.server.straggler_drop_prob = 0.25;

  const ServerRun clean = run_rounds(config, 3);
  fl::Simulation dirty = fl::build_simulation(config);
  for (std::size_t c = 0; c < dirty.server->num_clients(); ++c) {
    dirty.server->client_at(c).reseed_for_round(0xbadc0ffeeULL + c, 777);
  }
  dirty.server->run(3);
  std::ostringstream dirty_csv;
  dirty.server->history().write_csv(dirty_csv, /*include_timings=*/false);
  EXPECT_EQ(dirty_csv.str(), clean.csv)
      << "derived-mode history depends on pre-run client RNG state";
  EXPECT_TRUE(bits_equal(dirty.server->global_weights(), clean.weights))
      << "derived-mode weights depend on pre-run client RNG state";
}

}  // namespace
}  // namespace fedcav
