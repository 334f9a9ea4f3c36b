// Tests for the extension modules: participant samplers, the wire
// codec's top-k tie-break, checkpointing, and config files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <set>

#include "src/comm/compression.hpp"
#include "src/fl/sampler.hpp"
#include "src/fl/simulation.hpp"
#include "src/utils/config.hpp"
#include "src/utils/error.hpp"
#include "src/utils/logging.hpp"

namespace fedcav {
namespace {

// -------------------------------------------------------------- sampler

TEST(Sampler, PolicyNamesRoundTrip) {
  for (const char* name : {"uniform", "roundrobin", "lossbiased"}) {
    EXPECT_EQ(fl::to_string(fl::parse_sampler_policy(name)), name);
  }
  EXPECT_THROW(fl::parse_sampler_policy("greedy"), Error);
}

TEST(Sampler, UniformProducesSortedDistinctCohort) {
  fl::ParticipantSampler sampler(fl::SamplerPolicy::kUniform, 20, 0.3, 1);
  EXPECT_EQ(sampler.cohort_size(), 6u);
  for (int round = 0; round < 20; ++round) {
    const auto picked = sampler.sample();
    EXPECT_EQ(picked.size(), 6u);
    EXPECT_TRUE(std::is_sorted(picked.begin(), picked.end()));
    std::set<std::size_t> unique(picked.begin(), picked.end());
    EXPECT_EQ(unique.size(), picked.size());
    for (std::size_t i : picked) EXPECT_LT(i, 20u);
  }
}

TEST(Sampler, RoundRobinVisitsEveryClientEqually) {
  fl::ParticipantSampler sampler(fl::SamplerPolicy::kRoundRobin, 10, 0.5, 1);
  std::vector<int> visits(10, 0);
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i : sampler.sample()) ++visits[i];
  }
  for (int v : visits) EXPECT_EQ(v, 2);
}

TEST(Sampler, LossBiasedPrefersHighLossClients) {
  fl::ParticipantSampler sampler(fl::SamplerPolicy::kLossBiased, 10, 0.2, 7);
  // Client 3 reports an enormous loss; everyone else is tiny.
  std::vector<std::size_t> all(10);
  std::vector<double> losses(10, 0.01);
  for (std::size_t i = 0; i < 10; ++i) all[i] = i;
  losses[3] = 8.0;
  sampler.observe_losses(all, losses);
  int hits = 0;
  const int rounds = 50;
  for (int r = 0; r < rounds; ++r) {
    const auto picked = sampler.sample();
    for (std::size_t i : picked) {
      if (i == 3) ++hits;
    }
  }
  EXPECT_GT(hits, rounds * 9 / 10);  // nearly always selected
}

TEST(Sampler, LossBiasedUnreportedClientsStillSelectable) {
  fl::ParticipantSampler sampler(fl::SamplerPolicy::kLossBiased, 4, 1.0, 7);
  // No observations at all: full-cohort sampling must not throw.
  const auto picked = sampler.sample();
  EXPECT_EQ(picked.size(), 4u);
}

TEST(Sampler, ObserveLossesValidatesInput) {
  fl::ParticipantSampler sampler(fl::SamplerPolicy::kLossBiased, 4, 0.5, 7);
  EXPECT_THROW(sampler.observe_losses({0, 1}, {1.0}), Error);
  EXPECT_THROW(sampler.observe_losses({9}, {1.0}), Error);
}

TEST(Sampler, ValidatesConstruction) {
  EXPECT_THROW(fl::ParticipantSampler(fl::SamplerPolicy::kUniform, 0, 0.5, 1), Error);
  EXPECT_THROW(fl::ParticipantSampler(fl::SamplerPolicy::kUniform, 5, 0.0, 1), Error);
  EXPECT_THROW(fl::ParticipantSampler(fl::SamplerPolicy::kUniform, 5, 1.5, 1), Error);
}

// ---------------------------------------------------------- compression

/// The coordinates quantize's presence bitmap keeps, ascending.
std::vector<std::uint32_t> kept_indices(const comm::QuantizedDelta& q) {
  std::vector<std::uint32_t> kept;
  for (std::uint32_t i = 0; i < q.dim; ++i) {
    if ((q.mask[i / 8] >> (i % 8)) & 1u) kept.push_back(i);
  }
  return kept;
}

TEST(Compression, DuplicateMagnitudesSelectDeterministically) {
  // Every entry ties in |value|: quantize's top-k survivors must be the
  // k lowest indices (the documented tie-break) under either codec, and
  // the wire image must be identical across repeated calls and input
  // copies. Without the tie-break, nth_element's pivot choices make the
  // kept set implementation-defined, which desynchronizes the quantized
  // wire image between otherwise deterministic runs.
  std::vector<float> dense(64);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    dense[i] = (i % 2 == 0) ? 0.5f : -0.5f;  // equal magnitude, mixed sign
  }
  std::vector<std::uint32_t> lowest(16);
  std::iota(lowest.begin(), lowest.end(), 0u);
  for (const comm::QuantMode mode : {comm::QuantMode::kFp16, comm::QuantMode::kInt8}) {
    const comm::QuantizedDelta first = comm::quantize(dense, mode, 0.25);  // k = 16
    EXPECT_EQ(kept_indices(first), lowest) << comm::to_string(mode);
    const std::vector<float> copy = dense;
    EXPECT_EQ(comm::quantize(copy, mode, 0.25).encode(), first.encode());

    // Ties straddling the k-boundary: with [3, 1, 1, 1] and k = 2 the
    // kept set must be {0, 1}; the tied 1.0s resolve by index.
    const std::vector<float> boundary = {3.0f, 1.0f, 1.0f, 1.0f};
    EXPECT_EQ(kept_indices(comm::quantize(boundary, mode, 0.5)),
              (std::vector<std::uint32_t>{0, 1}))
        << comm::to_string(mode);
  }
}

// ---------------------------------------------------------- checkpoints

TEST(Checkpoint, SaveLoadRoundTripsWeightsAndRound) {
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.train_samples_per_class = 12;
  config.test_samples_per_class = 8;
  config.partition.num_clients = 5;
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(2);
  const nn::Weights saved_weights = sim.server->global_weights();

  const std::string path = ::testing::TempDir() + "fedcav_ckpt.bin";
  sim.server->save_checkpoint(path);

  sim.server->run(2);  // diverge
  EXPECT_NE(sim.server->global_weights(), saved_weights);

  sim.server->load_checkpoint(path);
  EXPECT_EQ(sim.server->global_weights(), saved_weights);
  EXPECT_EQ(sim.server->current_round(), 2u);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsCorruptFiles) {
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.train_samples_per_class = 12;
  config.test_samples_per_class = 8;
  config.partition.num_clients = 5;
  fl::Simulation sim = fl::build_simulation(config);

  const std::string path = ::testing::TempDir() + "fedcav_bad_ckpt.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint";
  }
  EXPECT_THROW(sim.server->load_checkpoint(path), Error);
  EXPECT_THROW(sim.server->load_checkpoint(path + ".missing"), Error);
  std::remove(path.c_str());
}

// --------------------------------------------------------------- server

TEST(ServerExtensions, LossBiasedSamplerPolicyRuns) {
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.train_samples_per_class = 12;
  config.test_samples_per_class = 8;
  config.partition.num_clients = 6;
  config.server.sampler = fl::SamplerPolicy::kLossBiased;
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(3);
  EXPECT_EQ(sim.server->history().rounds(), 3u);
}

// --------------------------------------------------------------- config

TEST(Config, ParsesTypedValuesAndComments) {
  const Config config = Config::from_string(
      "# experiment\n"
      "rounds = 50\n"
      "lr= 0.05  # inline comment\n"
      "dataset =digits\n"
      "detect = true\n"
      "\n");
  EXPECT_EQ(config.size(), 4u);
  EXPECT_EQ(config.get_int("rounds"), 50);
  EXPECT_DOUBLE_EQ(config.get_double("lr"), 0.05);
  EXPECT_EQ(config.get_string("dataset"), "digits");
  EXPECT_TRUE(config.get_bool("detect"));
}

TEST(Config, MissingAndMalformedKeysThrow) {
  const Config config = Config::from_string("x = hello\n");
  EXPECT_THROW(config.get_string("missing"), Error);
  EXPECT_THROW(config.get_int("x"), Error);
  EXPECT_THROW(config.get_double("x"), Error);
  EXPECT_THROW(config.get_bool("x"), Error);
}

TEST(Config, DefaultsApplyWhenAbsent) {
  const Config config = Config::from_string("a = 1\n");
  EXPECT_EQ(config.get_int("a", 9), 1);
  EXPECT_EQ(config.get_int("b", 9), 9);
  EXPECT_EQ(config.get_string("c", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(config.get_double("d", 2.5), 2.5);
  EXPECT_TRUE(config.get_bool("e", true));
}

TEST(Config, MalformedLineThrowsWithLineNumber) {
  try {
    Config::from_string("ok = 1\nbroken line\n");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Config, SetAndRenderRoundTrip) {
  Config config;
  config.set("zeta", "26");
  config.set("alpha", "1");
  const std::string text = config.to_string();
  EXPECT_EQ(text, "alpha = 1\nzeta = 26\n");  // sorted keys
  const Config back = Config::from_string(text);
  EXPECT_EQ(back.get_int("alpha"), 1);
  EXPECT_EQ(back.get_int("zeta"), 26);
}

TEST(Config, FromFileReadsAndValidates) {
  const std::string path = ::testing::TempDir() + "fedcav_config_test.cfg";
  {
    std::ofstream out(path);
    out << "rounds = 7\n";
  }
  const Config config = Config::from_file(path);
  EXPECT_EQ(config.get_int("rounds"), 7);
  std::remove(path.c_str());
  EXPECT_THROW(Config::from_file(path), Error);
}

}  // namespace
}  // namespace fedcav
