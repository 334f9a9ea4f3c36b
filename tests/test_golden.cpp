// Golden-run regression pins: the fault-free tier-1 configuration
// (digits / lenet5 / fedcav) must land on the committed final-round
// accuracy and loss. The run is deterministic — fixed seeds, static
// parallel_for partitioning, fixed-order reductions — so drift here
// means a behavior change somewhere in the data/model/aggregation
// stack, not noise. Tolerances are tight (1e-6 on accuracy, 1e-4 on
// loss): float math is bit-stable on a given toolchain; the slack only
// absorbs FMA/contract differences across compilers.
#include <gtest/gtest.h>

#include "src/fl/simulation.hpp"
#include "src/utils/logging.hpp"

namespace fedcav {
namespace {

fl::SimulationConfig golden_config() {
  fl::SimulationConfig config;
  config.dataset = "digits";
  config.model = "lenet5";
  config.strategy = "fedcav";
  config.train_samples_per_class = 20;
  config.test_samples_per_class = 10;
  config.partition.num_clients = 8;
  config.partition.sigma = 600.0;
  config.server.sample_ratio = 0.5;
  config.server.local.epochs = 3;
  config.server.local.batch_size = 10;
  config.server.local.lr = 0.05f;
  config.seed = 2021;
  return config;
}

TEST(GoldenRun, DigitsLenet5FedcavFinalRoundIsPinned) {
  set_log_level(LogLevel::kError);
  fl::Simulation sim = fl::build_simulation(golden_config());
  sim.server->run(8);
  const metrics::RoundRecord& last = sim.server->history().back();

  // Committed goldens — recalibrate ONLY for an intentional behavior
  // change, and say so in the commit message. Recorded under per-round
  // derived seeds (DESIGN.md §16); the near-chance final accuracy is this
  // seed's draw, not a regression.
  EXPECT_NEAR(last.test_accuracy, 0.15, 1e-6);
  EXPECT_NEAR(last.test_loss, 3.11879801750183, 1e-4);
  EXPECT_NEAR(sim.server->history().best_accuracy(), 0.26, 1e-6);

  // Structural invariants of a fault-free run: nothing dropped, nothing
  // retried, nothing skipped.
  for (const auto& rec : sim.server->history().records()) {
    EXPECT_EQ(rec.dropouts, 0u);
    EXPECT_EQ(rec.retries, 0u);
    EXPECT_EQ(rec.crc_failures, 0u);
    EXPECT_FALSE(rec.skipped);
  }
}

// The quantized wire (DESIGN.md §13) must not cost meaningful accuracy
// on the golden configuration: error-feedback folds the codec error
// back into the next participation, so the run stays inside a ±0.05
// band around the fp32 golden. The exact values are pinned too — the
// quantized path is as deterministic as the dense one — but only in
// the plain build: sanitizer instrumentation shifts float codegen a
// few ulps and the quantizer's rounding buckets amplify that past the
// exact tolerances (the fp32 golden above is insensitive to it).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kExactQuantPins = false;
#else
constexpr bool kExactQuantPins = true;
#endif
TEST(GoldenRun, Int8ErrorFeedbackStaysInsideGoldenBand) {
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config = golden_config();
  config.server.quant = comm::QuantMode::kInt8;
  config.server.quant_keep = 0.25;
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(8);
  const metrics::RoundRecord& last = sim.server->history().back();

  EXPECT_NEAR(last.test_accuracy, 0.15, 0.05)
      << "int8 + top-k + error feedback drifted out of the golden band";
  if (kExactQuantPins) {
    EXPECT_NEAR(last.test_accuracy, 0.16, 1e-6);
    EXPECT_NEAR(last.test_loss, 3.48142336845398, 1e-4);
  }
}

TEST(GoldenRun, Fp16WireStaysInsideGoldenBand) {
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config = golden_config();
  config.server.quant = comm::QuantMode::kFp16;
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(8);
  const metrics::RoundRecord& last = sim.server->history().back();

  EXPECT_NEAR(last.test_accuracy, 0.15, 0.05)
      << "fp16 wire drifted out of the golden band";
  if (kExactQuantPins) {
    EXPECT_NEAR(last.test_accuracy, 0.15, 1e-6);
    EXPECT_NEAR(last.test_loss, 3.36962914466858, 1e-4);
  }
}

}  // namespace
}  // namespace fedcav
