// Integration tests: end-to-end federated training runs exercising the
// full stack (data synthesis -> partition -> comm -> local training ->
// detection -> aggregation -> evaluation).
#include <gtest/gtest.h>

#include "src/data/fresh.hpp"
#include "src/data/stats.hpp"
#include "src/fl/simulation.hpp"
#include "src/utils/logging.hpp"

#include <sstream>

namespace fedcav::fl {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kError); }

  static SimulationConfig base_config() {
    SimulationConfig config;
    config.dataset = "digits";
    config.model = "lenet5";
    config.strategy = "fedcav";
    config.train_samples_per_class = 30;
    config.test_samples_per_class = 15;
    config.partition.scheme = data::PartitionScheme::kNonIidImbalanced;
    config.partition.num_clients = 12;
    config.partition.sigma = 600.0;
    config.server.sample_ratio = 0.4;
    config.server.local.epochs = 5;
    config.server.local.batch_size = 10;
    config.server.local.lr = 0.05f;
    config.seed = 31;
    return config;
  }
};

TEST_F(IntegrationTest, FedCavConvergesOnDigits) {
  Simulation sim = build_simulation(base_config());
  sim.server->run(15);
  EXPECT_GT(sim.server->history().best_accuracy(), 0.6);
  // Loss trends down: the last-round test loss beats the first-round's.
  EXPECT_LT(sim.server->history().back().test_loss,
            sim.server->history()[0].test_loss);
}

TEST_F(IntegrationTest, AllStrategiesLearnOnAllDatasets) {
  for (const char* strategy : {"fedavg", "fedprox", "fedcav"}) {
    SimulationConfig config = base_config();
    config.strategy = strategy;
    Simulation sim = build_simulation(config);
    sim.server->run(6);
    EXPECT_GT(sim.server->history().best_accuracy(), 0.28)
        << "strategy " << strategy << " failed to learn";
  }
}

TEST_F(IntegrationTest, MeanInferenceLossDecreasesAcrossTraining) {
  Simulation sim = build_simulation(base_config());
  sim.server->run(10);
  const auto& history = sim.server->history();
  // Average of the first two rounds vs the last two rounds.
  const double early = (history[0].mean_inference_loss + history[1].mean_inference_loss) / 2;
  const double late = (history[8].mean_inference_loss + history[9].mean_inference_loss) / 2;
  EXPECT_LT(late, early);
}

TEST_F(IntegrationTest, ReplacementAttackDestroysUndefendedModel) {
  SimulationConfig config = base_config();
  config.attack = "replacement";
  config.attack_rounds = {8};  // strike once the model is decently trained
  config.server.detection_enabled = false;
  Simulation sim = build_simulation(config);
  sim.server->run(9);
  const auto& history = sim.server->history();
  // history[7] is round 8: its record is evaluated after the attacked
  // aggregation, so the collapse shows up there.
  EXPECT_LT(history[7].test_accuracy, history[6].test_accuracy * 0.7);
  EXPECT_TRUE(history[7].attacked);
}

TEST_F(IntegrationTest, DetectionReversesReplacementAttack) {
  SimulationConfig config = base_config();
  config.attack = "replacement";
  config.attack_rounds = {4};
  config.server.detection_enabled = true;
  Simulation sim = build_simulation(config);
  sim.server->run(8);
  const auto& history = sim.server->history();
  // The round after the attack must fire the detector and reverse.
  EXPECT_TRUE(history[3].attacked);
  EXPECT_TRUE(history[4].detection_fired);
  EXPECT_TRUE(history[4].reversed);
  // Two rounds after the reverse the model is healthy again (>= 85% of
  // the pre-attack best).
  const double pre_attack = history[2].test_accuracy;
  EXPECT_GT(history[6].test_accuracy, pre_attack * 0.85);
}

TEST_F(IntegrationTest, DetectorStaysQuietDuringHealthyTraining) {
  SimulationConfig config = base_config();
  config.server.detection_enabled = true;
  Simulation sim = build_simulation(config);
  sim.server->run(10);
  for (const auto& record : sim.server->history().records()) {
    EXPECT_FALSE(record.detection_fired) << "false positive in round " << record.round;
    EXPECT_FALSE(record.reversed);
  }
}

TEST_F(IntegrationTest, FedCavNoClipSurvivesLossInflation) {
  // A loss-inflation adversary hijacks the weighting; with clipping the
  // damage to accuracy is bounded and training continues.
  SimulationConfig config = base_config();
  config.strategy = "fedcav";
  config.attack = "lossinflation";
  config.attack_rounds = {3, 4, 5};
  Simulation sim = build_simulation(config);
  sim.server->run(10);
  EXPECT_GT(sim.server->history().best_accuracy(), 0.5);
}

TEST_F(IntegrationTest, ByzantineNoiseRoundIsSurvivable) {
  SimulationConfig config = base_config();
  config.attack = "byzantine";
  config.attack_rounds = {3};
  Simulation sim = build_simulation(config);
  sim.server->run(10);
  // One noisy participant out of ~5 dents but does not destroy training.
  EXPECT_GT(sim.server->history().best_accuracy(), 0.35);
}

TEST_F(IntegrationTest, FreshClassRedistributionIsLearnable) {
  // Fig. 4 mechanics: pre-train on common classes, inject fresh-class
  // data, verify continued training picks up the fresh classes.
  SimulationConfig config = base_config();
  Simulation sim = build_simulation(config);
  const data::FreshSplit split = data::split_fresh_classes(sim.train, 0.3);

  // Phase 1: clients hold only common-class data.
  data::PartitionConfig part_config = config.partition;
  part_config.num_clients = sim.partition.size();
  part_config.seed = 5;
  const data::Partition common_part = data::make_partition(split.common, part_config);
  std::vector<data::Dataset> phase1;
  for (const auto& idx : common_part) phase1.push_back(split.common.subset(idx));
  sim.server->redistribute_data(std::move(phase1));
  sim.server->run(6);

  // Phase 2: full data (common + fresh) redistributed.
  part_config.seed = 6;
  const data::Partition full_part = data::make_partition(sim.train, part_config);
  std::vector<data::Dataset> phase2;
  for (const auto& idx : full_part) phase2.push_back(sim.train.subset(idx));
  sim.server->redistribute_data(std::move(phase2));
  const double before_fresh = sim.server->history().back().test_accuracy;
  sim.server->run(8);
  // Fresh classes were 30% of the test set and untrainable in phase 1;
  // phase 2 must claw back a chunk of that headroom.
  EXPECT_GT(sim.server->history().best_accuracy(), before_fresh + 0.1);
}

TEST_F(IntegrationTest, ByteAccountingMatchesModelSize) {
  SimulationConfig config = base_config();
  Simulation sim = build_simulation(config);
  const metrics::RoundRecord rec = sim.server->run_round();
  const std::size_t n_params = sim.server->global_weights().size();
  // GlobalModelMsg: 8 (type) + 8 (round) + 8 (len) + 4·params + 4 (CRC).
  const std::size_t down_each = 24 + 4 * n_params + 4;
  EXPECT_EQ(rec.bytes_down, rec.participants * down_each);
  // MetadataMsg (phase ①): 8 (type) + 8·3 (round/client/samples) +
  // 8 (loss) + 4 (CRC) — cohort-size-many scalar reports, no weights.
  const std::size_t meta_each = 8 + 24 + 8 + 4;
  // ClientReportMsg (phase ②): 8 (type) + 8·3 (round/client/samples)
  // + 8 (loss) + 8 (len) + 4·params + 4 (CRC).
  const std::size_t report_each = 8 + 24 + 8 + 8 + 4 * n_params + 4;
  EXPECT_EQ(rec.bytes_up, rec.participants * (meta_each + report_each));
}

TEST_F(IntegrationTest, SigmaDegradesFedAvgAccuracy) {
  // §3 observation: heavier class imbalance hurts FedAvg.
  auto run_with_sigma = [](double sigma) {
    SimulationConfig config = base_config();
    config.strategy = "fedavg";
    config.partition.sigma = sigma;
    config.seed = 71;
    Simulation sim = build_simulation(config);
    sim.server->run(10);
    return sim.server->history().converged_accuracy(3);
  };
  const double mild = run_with_sigma(100.0);
  const double severe = run_with_sigma(900.0);
  EXPECT_GT(mild, severe - 0.05);  // allow noise, but severe must not win big
}

TEST_F(IntegrationTest, RepeatedSeededRunsAreBitIdentical) {
  // Guards two contracts at once: the threadpool's fixed-slot reduction
  // (client results are written into pre-sized slots, so aggregation
  // order is independent of thread scheduling) and the GEMM kernel's
  // run-to-run determinism. Any nondeterminism in either shows up as a
  // drifting float somewhere in the round records.
  SimulationConfig config = base_config();
  config.strategy = "fedcav";
  config.server.detection_enabled = true;
  auto run_once = [&config] {
    Simulation sim = build_simulation(config);
    sim.server->run(5);
    return sim.server->history();
  };
  const metrics::TrainingHistory first = run_once();
  const metrics::TrainingHistory second = run_once();
  ASSERT_EQ(first.rounds(), second.rounds());
  for (std::size_t r = 0; r < first.rounds(); ++r) {
    const metrics::RoundRecord& a = first[r];
    const metrics::RoundRecord& b = second[r];
    EXPECT_EQ(a.round, b.round);
    // Bit-identical floating-point trajectories, not merely "close".
    EXPECT_EQ(a.test_accuracy, b.test_accuracy) << "round " << r;
    EXPECT_EQ(a.test_loss, b.test_loss) << "round " << r;
    EXPECT_EQ(a.mean_inference_loss, b.mean_inference_loss) << "round " << r;
    EXPECT_EQ(a.max_inference_loss, b.max_inference_loss) << "round " << r;
    EXPECT_EQ(a.participants, b.participants) << "round " << r;
    EXPECT_EQ(a.detection_fired, b.detection_fired) << "round " << r;
    EXPECT_EQ(a.reversed, b.reversed) << "round " << r;
    EXPECT_EQ(a.attacked, b.attacked) << "round " << r;
    EXPECT_EQ(a.bytes_up, b.bytes_up) << "round " << r;
    EXPECT_EQ(a.bytes_down, b.bytes_down) << "round " << r;
  }
}

TEST_F(IntegrationTest, HistoryCsvSerializesFullRun) {
  Simulation sim = build_simulation(base_config());
  sim.server->run(3);
  std::ostringstream out;
  sim.server->history().write_csv(out);
  std::size_t lines = 0;
  for (char c : out.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4u);
}

}  // namespace
}  // namespace fedcav::fl
