// Regression corpus replay: every plan committed under
// tests/chaos_seeds/ is a minimized reproducer (or a stress plan) that
// once exposed — or guards against — a protocol bug. Each must replay
// green through the full oracle: invariants hold, streaming parity
// holds, and checkpoint-resume is bit-identical. A red run here means a
// previously-fixed bug has come back.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "src/chaos/oracle.hpp"
#include "src/chaos/plan.hpp"
#include "src/utils/logging.hpp"

#ifndef FEDCAV_CHAOS_SEED_DIR
#error "FEDCAV_CHAOS_SEED_DIR must point at tests/chaos_seeds"
#endif

namespace fedcav::chaos {
namespace {

std::vector<std::filesystem::path> seed_paths() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(FEDCAV_CHAOS_SEED_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == ".plan") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(ChaosSeeds, CorpusIsNonEmptyAndWellFormed) {
  const auto paths = seed_paths();
  ASSERT_FALSE(paths.empty()) << "no .plan files in " << FEDCAV_CHAOS_SEED_DIR;
  for (const auto& path : paths) {
    const ChaosPlan plan = load_plan_file(path.string());
    // Round-tripping through text proves the file is canonical enough
    // to re-save after a shrink without semantic drift.
    EXPECT_EQ(ChaosPlan::parse(plan.to_text()), plan) << path;
  }
}

TEST(ChaosSeeds, EverySeedReplaysGreen) {
  set_log_level(LogLevel::kError);
  for (const auto& path : seed_paths()) {
    SCOPED_TRACE(path.string());
    const ChaosPlan plan = load_plan_file(path.string());
    const OracleResult result = run_oracle(plan);
    EXPECT_TRUE(result.passed)
        << "seed regressed: invariant=" << result.invariant
        << " detail=" << result.detail;
  }
}

// Named regression for the checkpoint-stats bug the chaos search found:
// checkpoint v3 serialized no fabric traffic/fault counters, so a
// resumed run restarted them at zero and the post-resume conservation
// check (sent + duplicated == delivered + dropped + crash_dropped +
// pending) failed whenever faults fired before the checkpoint round.
// Checkpoint v4 carries the counters; this seed fails on the v3
// behavior and must stay green on v4.
TEST(ChaosSeeds, ResumeCarriesFabricStatsAcrossCheckpoint) {
  set_log_level(LogLevel::kError);
  const std::string path =
      std::string(FEDCAV_CHAOS_SEED_DIR) + "/resume_stats_conservation.plan";
  const ChaosPlan plan = load_plan_file(path);
  // The reproducer needs faults before the checkpoint and a resume leg
  // after it — sanity-check the plan still has both ingredients.
  ASSERT_GT(plan.faults.duplicate_prob, 0.0);
  ASSERT_GE(plan.checkpoint_round, 1u);
  ASSERT_LT(plan.checkpoint_round, plan.rounds);

  OracleOptions options;
  options.check_streaming_parity = false;  // isolate the resume leg
  const OracleResult result = run_oracle(plan, options);
  EXPECT_TRUE(result.passed)
      << "v3 checkpoint-stats bug is back: invariant=" << result.invariant
      << " detail=" << result.detail;
  EXPECT_TRUE(result.triggered) << "plan no longer exercises any faults";
}

}  // namespace
}  // namespace fedcav::chaos
