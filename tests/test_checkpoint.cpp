// Checkpoint resume semantics: a run restored into a *fresh* server
// must continue bit-identically to one that never stopped — including
// the sampler's loss memory, the cached reverse-target weights, the
// detector reference, the quantization residuals, and the comm fabric's
// fault-RNG streams, in-flight messages and accounting, so that holds
// for chaos runs too. Also covers rejection of the retired layouts and
// of malformed files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "src/comm/network.hpp"
#include "src/fl/simulation.hpp"
#include "src/tensor/serialize.hpp"
#include "src/utils/error.hpp"
#include "src/utils/logging.hpp"

namespace fedcav {
namespace {

fl::SimulationConfig small_config() {
  fl::SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.train_samples_per_class = 12;
  config.test_samples_per_class = 8;
  config.partition.num_clients = 6;
  config.server.sample_ratio = 0.5;
  config.server.local.epochs = 2;
  config.server.local.batch_size = 8;
  return config;
}

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

/// Everything in a RoundRecord except wall-clock timings must match
/// exactly between an uninterrupted run and a resumed one.
void expect_records_identical(const metrics::RoundRecord& a,
                              const metrics::RoundRecord& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.test_accuracy, b.test_accuracy);
  EXPECT_EQ(a.test_loss, b.test_loss);
  EXPECT_EQ(a.mean_inference_loss, b.mean_inference_loss);
  EXPECT_EQ(a.max_inference_loss, b.max_inference_loss);
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.dropouts, b.dropouts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.crc_failures, b.crc_failures);
  EXPECT_EQ(a.detection_fired, b.detection_fired);
  EXPECT_EQ(a.reversed, b.reversed);
  EXPECT_EQ(a.attacked, b.attacked);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.bytes_up, b.bytes_up);
  EXPECT_EQ(a.bytes_down, b.bytes_down);
}

TEST(CheckpointResume, FreshServerContinuesBitIdentically) {
  set_log_level(LogLevel::kError);
  // Loss-biased sampling + stragglers: the cohort depends on the
  // sampler's serialized loss memory, and the derived sampler and
  // straggler streams must land on the same draws after the resume.
  fl::SimulationConfig config = small_config();
  config.server.sampler = fl::SamplerPolicy::kLossBiased;
  config.server.straggler_drop_prob = 0.2;

  fl::Simulation continuous = fl::build_simulation(config);
  continuous.server->run(4);

  fl::Simulation first_half = fl::build_simulation(config);
  first_half.server->run(2);
  const std::string path = temp_path("fedcav_resume_ckpt.bin");
  first_half.server->save_checkpoint(path);

  fl::Simulation resumed = fl::build_simulation(config);
  resumed.server->load_checkpoint(path);
  EXPECT_EQ(resumed.server->current_round(), 2u);
  resumed.server->run(2);

  EXPECT_EQ(resumed.server->global_weights(), continuous.server->global_weights());
  ASSERT_EQ(resumed.server->history().rounds(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    expect_records_identical(continuous.server->history()[2 + i],
                             resumed.server->history()[i]);
  }
  std::remove(path.c_str());
}

TEST(CheckpointResume, DetectorReversesFromRestoredCache) {
  set_log_level(LogLevel::kError);
  // A replacement attack at round 3 drives round 4's inference losses
  // past the detector's reference, so round 4 reverses onto the cached
  // weights — state that only survives a save/load because the
  // checkpoint carries it (a weights-only resume would improvise both
  // and diverge).
  fl::SimulationConfig config = small_config();
  config.server.detection_enabled = true;
  config.attack = "replacement";
  config.attack_rounds = {3};

  fl::Simulation continuous = fl::build_simulation(config);
  continuous.server->run(5);
  ASSERT_TRUE(continuous.server->history()[2].attacked);
  ASSERT_TRUE(continuous.server->history()[3].detection_fired)
      << "attack was not strong enough to trip the detector";
  ASSERT_TRUE(continuous.server->history()[3].reversed);

  fl::Simulation first_half = fl::build_simulation(config);
  first_half.server->run(3);  // attack included; detection still pending
  const std::string path = temp_path("fedcav_detect_ckpt.bin");
  first_half.server->save_checkpoint(path);

  fl::Simulation resumed = fl::build_simulation(config);
  resumed.server->load_checkpoint(path);
  resumed.server->run(2);

  ASSERT_EQ(resumed.server->history().rounds(), 2u);
  EXPECT_TRUE(resumed.server->history()[0].reversed);
  for (std::size_t i = 0; i < 2; ++i) {
    expect_records_identical(continuous.server->history()[3 + i],
                             resumed.server->history()[i]);
  }
  EXPECT_EQ(resumed.server->global_weights(), continuous.server->global_weights());
  std::remove(path.c_str());
}

TEST(CheckpointResume, FaultedRunResumesBitIdentically) {
  set_log_level(LogLevel::kError);
  // The hard case: an active fault plan means the resumed run must
  // replay the exact same per-link fault draws AND see the same stale
  // duplicates still sitting in the fabric's queues.
  fl::SimulationConfig config = small_config();
  comm::FaultPlan& faults = config.server.network.faults;
  faults.seed = 31;
  faults.drop_prob = 0.25;
  faults.duplicate_prob = 0.15;
  faults.corrupt_prob = 0.1;
  config.server.min_aggregate_clients = 2;
  config.server.max_retries = 2;

  fl::Simulation continuous = fl::build_simulation(config);
  continuous.server->run(4);

  fl::Simulation first_half = fl::build_simulation(config);
  first_half.server->run(2);
  const std::string path = temp_path("fedcav_fault_ckpt.bin");
  first_half.server->save_checkpoint(path);

  fl::Simulation resumed = fl::build_simulation(config);
  resumed.server->load_checkpoint(path);
  resumed.server->run(2);

  EXPECT_EQ(resumed.server->global_weights(), continuous.server->global_weights());
  ASSERT_EQ(resumed.server->history().rounds(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    expect_records_identical(continuous.server->history()[2 + i],
                             resumed.server->history()[i]);
  }
  // Fabric accounting survives the checkpoint boundary: the resumed
  // fabric's books still balance. (A layout that dropped the counters
  // restarted them at zero while the queues carried in-flight
  // duplicates, and this conservation sum broke.)
  const comm::InMemoryNetwork& net = *resumed.server->network();
  const comm::TrafficStats traffic = net.total_stats();
  const comm::FaultStats fs = net.fault_stats();
  EXPECT_EQ(traffic.messages_sent + fs.duplicated,
            fs.delivered + fs.dropped + fs.crash_dropped +
                net.pending_messages());
  std::remove(path.c_str());
}

TEST(CheckpointResume, QuantizedRunWithPendingResidualResumesBitIdentically) {
  set_log_level(LogLevel::kError);
  // After two int8 + top-k rounds every participant holds a nonzero
  // error-feedback residual, and the next round's uplink delta depends
  // on it. A resume that dropped the residual would code different
  // deltas and diverge immediately.
  fl::SimulationConfig config = small_config();
  config.server.quant = comm::QuantMode::kInt8;
  config.server.quant_keep = 0.5;

  fl::Simulation continuous = fl::build_simulation(config);
  continuous.server->run(4);

  fl::Simulation first_half = fl::build_simulation(config);
  first_half.server->run(2);
  const std::string path = temp_path("fedcav_quant_ckpt.bin");
  first_half.server->save_checkpoint(path);

  fl::Simulation resumed = fl::build_simulation(config);
  resumed.server->load_checkpoint(path);
  EXPECT_EQ(resumed.server->current_round(), 2u);
  resumed.server->run(2);

  EXPECT_EQ(resumed.server->global_weights(), continuous.server->global_weights());
  ASSERT_EQ(resumed.server->history().rounds(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    expect_records_identical(continuous.server->history()[2 + i],
                             resumed.server->history()[i]);
  }
  std::remove(path.c_str());
}

TEST(CheckpointResume, RejectsEveryOlderMagic) {
  set_log_level(LogLevel::kError);
  // One layout remains. A file stamped with any retired magic (v1-v6,
  // ...17 to ...1d) is refused as an unsupported version — whatever
  // follows the magic — instead of being misread or called corrupt.
  fl::SimulationConfig config = small_config();
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(1);
  const std::string path = temp_path("fedcav_old_magic_ckpt.bin");
  sim.server->save_checkpoint(path);
  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(image.size(), 8u);
  for (std::uint64_t magic = 0xfedca5c4ec9017ULL; magic <= 0xfedca5c4ec901dULL; ++magic) {
    ByteBuffer stamp;
    write_u64(stamp, magic);
    image.replace(0, stamp.size(), reinterpret_cast<const char*>(stamp.data()), stamp.size());
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << image;
    }
    fl::Simulation fresh = fl::build_simulation(config);
    try {
      fresh.server->load_checkpoint(path);
      ADD_FAILURE() << "magic " << std::hex << magic << " loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version"),
                std::string::npos)
          << std::hex << magic << ": " << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointResume, RejectsClientCountMismatch) {
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config = small_config();
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(1);
  const std::string path = temp_path("fedcav_mismatch_ckpt.bin");
  sim.server->save_checkpoint(path);

  fl::SimulationConfig other = small_config();
  other.partition.num_clients = 5;
  fl::Simulation smaller = fl::build_simulation(other);
  EXPECT_THROW(smaller.server->load_checkpoint(path), Error);
  std::remove(path.c_str());
}

TEST(CheckpointResume, RejectsTrailingBytes) {
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config = small_config();
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(1);
  const std::string path = temp_path("fedcav_trailing_ckpt.bin");
  sim.server->save_checkpoint(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.put('\0');
  }
  fl::Simulation fresh = fl::build_simulation(config);
  EXPECT_THROW(fresh.server->load_checkpoint(path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fedcav
