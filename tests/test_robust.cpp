// Tests for the Byzantine-robust aggregation rules and straggler
// handling in the server.
#include <gtest/gtest.h>

#include "src/fl/robust.hpp"
#include "src/fl/simulation.hpp"
#include "src/utils/error.hpp"
#include "src/utils/logging.hpp"
#include "src/utils/rng.hpp"

namespace fedcav::fl {
namespace {

ClientUpdate update_of(std::size_t id, std::vector<float> weights) {
  ClientUpdate u;
  u.client_id = id;
  u.weights = std::move(weights);
  u.num_samples = 10;
  u.inference_loss = 1.0;
  return u;
}

// ------------------------------------------------------------- median

TEST(CoordinateMedian, OddCohortPicksMiddleValue) {
  CoordinateMedian strategy;
  std::vector<ClientUpdate> updates;
  updates.push_back(update_of(0, {1.0f, -10.0f}));
  updates.push_back(update_of(1, {2.0f, 0.0f}));
  updates.push_back(update_of(2, {100.0f, 10.0f}));
  const nn::Weights out = strategy.aggregate({0.0f, 0.0f}, updates);
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
}

TEST(CoordinateMedian, EvenCohortAveragesCentralPair) {
  CoordinateMedian strategy;
  std::vector<ClientUpdate> updates;
  updates.push_back(update_of(0, {1.0f}));
  updates.push_back(update_of(1, {3.0f}));
  updates.push_back(update_of(2, {5.0f}));
  updates.push_back(update_of(3, {100.0f}));
  const nn::Weights out = strategy.aggregate({0.0f}, updates);
  EXPECT_FLOAT_EQ(out[0], 4.0f);
}

TEST(CoordinateMedian, IgnoresSingleOutlier) {
  // One Byzantine update full of huge values must not move the median.
  CoordinateMedian strategy;
  std::vector<ClientUpdate> updates;
  for (std::size_t i = 0; i < 4; ++i) updates.push_back(update_of(i, {1.0f, 2.0f}));
  updates.push_back(update_of(4, {1e9f, -1e9f}));
  const nn::Weights out = strategy.aggregate({0.0f, 0.0f}, updates);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[1], 2.0f);
}

// -------------------------------------------------------- trimmed mean

TEST(TrimmedMean, TrimsTailsSymmetrically) {
  TrimmedMean strategy(0.25);  // with n=4: trim 1 from each side
  std::vector<ClientUpdate> updates;
  updates.push_back(update_of(0, {0.0f}));
  updates.push_back(update_of(1, {1.0f}));
  updates.push_back(update_of(2, {3.0f}));
  updates.push_back(update_of(3, {1000.0f}));
  const nn::Weights out = strategy.aggregate({0.0f}, updates);
  EXPECT_FLOAT_EQ(out[0], 2.0f);  // mean of {1, 3}
}

TEST(TrimmedMean, ZeroTrimIsPlainMean) {
  TrimmedMean strategy(0.0);
  std::vector<ClientUpdate> updates;
  updates.push_back(update_of(0, {2.0f}));
  updates.push_back(update_of(1, {4.0f}));
  const nn::Weights out = strategy.aggregate({0.0f}, updates);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
}

TEST(TrimmedMean, RejectsExcessiveTrim) {
  EXPECT_THROW(TrimmedMean(0.5), Error);
  EXPECT_THROW(TrimmedMean(-0.1), Error);
}

// ---------------------------------------------------------------- krum

TEST(Krum, SelectsMemberOfTheCluster) {
  // Four clustered updates plus one far-away Byzantine: Krum must pick a
  // cluster member.
  Krum strategy(1);
  Rng rng(1);
  std::vector<ClientUpdate> updates;
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<float> w(8);
    for (auto& v : w) v = 1.0f + rng.uniform_f(-0.01f, 0.01f);
    updates.push_back(update_of(i, std::move(w)));
  }
  updates.push_back(update_of(4, std::vector<float>(8, 500.0f)));
  const std::size_t chosen = strategy.select(updates);
  EXPECT_LT(chosen, 4u);
  const nn::Weights out = strategy.aggregate(nn::Weights(8, 0.0f), updates);
  EXPECT_NEAR(out[0], 1.0f, 0.05f);
}

TEST(Krum, AggregationWeightsAreOneHot) {
  Krum strategy(1);
  std::vector<ClientUpdate> updates;
  for (std::size_t i = 0; i < 4; ++i) {
    updates.push_back(update_of(i, {static_cast<float>(i)}));
  }
  const auto weights = strategy.aggregation_weights(updates);
  double sum = 0.0;
  int ones = 0;
  for (double w : weights) {
    sum += w;
    if (w == 1.0) ++ones;
  }
  EXPECT_DOUBLE_EQ(sum, 1.0);
  EXPECT_EQ(ones, 1);
}

TEST(Krum, SingleUpdateIsReturned) {
  Krum strategy(1);
  std::vector<ClientUpdate> updates;
  updates.push_back(update_of(0, {7.0f}));
  const nn::Weights out = strategy.aggregate({0.0f}, updates);
  EXPECT_FLOAT_EQ(out[0], 7.0f);
}

// ------------------------------------------------------------- factory

TEST(RobustFactory, BuildsAllRules) {
  EXPECT_EQ(make_strategy("median")->name(), "CoordinateMedian");
  EXPECT_NE(make_strategy("trimmedmean")->name().find("TrimmedMean"), std::string::npos);
  EXPECT_NE(make_strategy("krum")->name().find("Krum"), std::string::npos);
}

TEST(RobustFactory, RobustRulesSurviveByzantineRound) {
  set_log_level(LogLevel::kError);
  for (const char* name : {"median", "trimmedmean"}) {
    SimulationConfig config;
    config.dataset = "digits";
    config.model = "mlp";
    config.strategy = name;
    config.train_samples_per_class = 15;
    config.test_samples_per_class = 10;
    // IID cohort: the median of honest updates is a sensible model, so
    // the test isolates Byzantine robustness from non-IID drift.
    config.partition.scheme = data::PartitionScheme::kIidBalanced;
    config.partition.num_clients = 8;
    config.server.local.lr = 0.05f;
    config.attack = "byzantine";
    config.attack_rounds = {2, 4};
    Simulation sim = build_simulation(config);
    sim.server->run(12);
    // Robust rules keep learning through the corrupted rounds.
    EXPECT_GT(sim.server->history().best_accuracy(), 0.3) << name;
  }
}

// ----------------------------------------------------------- straggler

TEST(Straggler, DropReducesParticipantsButTrainingContinues) {
  set_log_level(LogLevel::kError);
  // Half of every cohort straggles out. Rounds lose participants, and a
  // round whose every report drops falls below the quorum and skips
  // (the global model carries forward); the others aggregate.
  const std::vector<std::uint64_t> seeds = {2021, 1, 2, 3};
  double best_sum = 0.0;
  for (const std::uint64_t seed : seeds) {
    SimulationConfig config;
    config.dataset = "digits";
    config.model = "mlp";
    config.seed = seed;
    config.train_samples_per_class = 15;
    config.test_samples_per_class = 10;
    config.partition.num_clients = 10;
    config.server.sample_ratio = 1.0;
    config.server.straggler_drop_prob = 0.5;
    config.server.local.lr = 0.05f;
    Simulation sim = build_simulation(config);
    sim.server->run(6);
    bool any_reduced = false;
    for (const auto& record : sim.server->history().records()) {
      EXPECT_EQ(record.sampled, record.participants + record.straggler_drops) << seed;
      EXPECT_EQ(record.skipped, record.participants < config.server.min_aggregate_clients)
          << seed;
      if (record.participants < 10) any_reduced = true;
    }
    EXPECT_TRUE(any_reduced) << seed;
    best_sum += sim.server->history().best_accuracy();
  }
  // One seed's best accuracy is a draw; the mean over a few still
  // catches training that stalled.
  EXPECT_GT(best_sum / static_cast<double>(seeds.size()), 0.3);
}

TEST(Straggler, ZeroProbabilityKeepsFullCohort) {
  set_log_level(LogLevel::kError);
  SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.train_samples_per_class = 12;
  config.test_samples_per_class = 8;
  config.partition.num_clients = 6;
  config.server.sample_ratio = 0.5;
  Simulation sim = build_simulation(config);
  const auto record = sim.server->run_round();
  EXPECT_EQ(record.participants, 3u);
}

TEST(Straggler, ValidatesProbability) {
  SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.train_samples_per_class = 12;
  config.test_samples_per_class = 8;
  config.partition.num_clients = 6;
  config.server.straggler_drop_prob = 1.0;
  EXPECT_THROW(build_simulation(config), Error);
}

}  // namespace
}  // namespace fedcav::fl
