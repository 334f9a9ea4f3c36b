// Invariant oracle: run one ChaosPlan through a short federated round
// sequence and check every protocol invariant the repo pins.
//
// Checks, in order (first failure wins):
//   * liveness / no-throw: the run completes without a fedcav::Error
//     escaping ("exception");
//   * round accounting: sampled == participants + dropouts +
//     straggler_drops for every round ("accounting");
//   * message conservation: messages_sent + duplicated == delivered +
//     dropped + crash_dropped + pending for the fabric after every
//     round ("conservation");
//   * quorum skip: a skipped round carries the global model forward
//     bit-identically ("skip_carry_forward");
//   * streaming parity: a run whose strategy is wrapped to force the
//     buffered aggregation path is bit-identical (deterministic CSV +
//     final weights) to the streaming run ("streaming_parity");
//   * shard parity: when the plan runs multi-sharded, a forced
//     single-shard replay is bit-identical ("shard_parity");
//   * resume: run checkpoint_round rounds, save, restore into a fresh
//     simulation, finish — post-resume records, final weights, and the
//     conservation invariant must match a run that never stopped
//     ("resume_identity" / "resume_conservation");
//   * derived-seed schedule independence (DESIGN.md §16): a replay
//     whose per-client RNG streams were deliberately scrambled
//     beforehand must be bit-identical to the base run — stream
//     *history* may not leak into results
//     ("derived_schedule_independence").
//
// The oracle is deterministic given the plan (per-link fault RNGs plus
// an optionally pinned thread pool), so any failing plan is a committed
// reproducer: see tests/chaos_seeds/.
#pragma once

#include <string>

#include "src/chaos/plan.hpp"
#include "src/utils/threadpool.hpp"

namespace fedcav::chaos {

struct OracleOptions {
  /// Run the federated rounds on this pool instead of the process-wide
  /// one (nullptr = global pool). The determinism suite pins 1-worker
  /// and N-worker pools and compares search reports byte-for-byte.
  ThreadPool* pool = nullptr;
  /// Individual checks can be disabled to speed up broad sweeps; the
  /// base run with accounting/conservation/skip checks and the
  /// schedule-independence replay always execute.
  bool check_streaming_parity = true;
  bool check_resume = true;
  /// Shard-parity (DESIGN.md §15): when the plan's effective shard count
  /// is > 1, a forced single-shard replay must be bit-identical
  /// (deterministic CSV + final weights) to the sharded run.
  bool check_shard_parity = true;
};

struct OracleResult {
  bool passed = true;
  /// Did the plan produce observable fault activity (dropouts, retries,
  /// CRC failures, stale discards, deadline misses, skips, straggler
  /// drops, upload failures, or nonzero fabric FaultStats)? This is the
  /// learning sampler's reward signal.
  bool triggered = false;
  /// Name of the first violated invariant (empty when passed).
  std::string invariant;
  /// Human-readable context for the failure (empty when passed).
  std::string detail;
};

/// Run `plan` against every enabled invariant. Never throws on an
/// invariant violation — violations come back as a failed result; only
/// programming errors (bad plan construction) propagate.
OracleResult run_oracle(const ChaosPlan& plan, const OracleOptions& options = {});

}  // namespace fedcav::chaos
