// ChaosPlan: one point in the fault/protocol parameter space the chaos
// search explores.
//
// A plan bundles a comm::FaultPlan (per-link drop/duplicate/reorder/
// corrupt/truncate probabilities, latency jitter, crash windows) with
// the protocol knobs that interact with it (quorum, retry budget,
// uplink deadline, straggler probability) and the shape of the short
// federated run the invariant oracle executes (cohort size, rounds,
// where the checkpoint-resume check splits the run). Plans serialize to
// a line-oriented `key=value` text format so a failing configuration
// minimizes into a small committed reproducer (tests/chaos_seeds/
// *.plan) that replays forever as a pinned regression test.
#pragma once

#include <string>

#include "src/comm/faults.hpp"

namespace fedcav::chaos {

struct ChaosPlan {
  /// Fault injection for the run's fabric (faults.seed is the per-trial
  /// RNG root; a zeroed FaultPlan with a seed is armed but inert).
  comm::FaultPlan faults;

  // --- shape of the oracle's short federated run -------------------
  std::size_t num_clients = 5;
  std::size_t rounds = 2;
  double sample_ratio = 0.8;
  /// Round after which the resume check saves a checkpoint (a value in
  /// [1, rounds-1]; anything else disables the resume invariant for
  /// this plan).
  std::size_t checkpoint_round = 1;

  // --- protocol knobs under test -----------------------------------
  std::size_t min_aggregate_clients = 1;
  std::size_t max_retries = 2;
  double retry_backoff_s = 0.01;
  double uplink_deadline_s = 0.0;  // 0 = no deadline
  double straggler_drop_prob = 0.0;

  /// Throws fedcav::Error on out-of-range values (delegates the fault
  /// axes to FaultPlan::validate against num_clients + 1 endpoints).
  void validate() const;

  /// One-line summary for reports ("drop=0.5 dup=0.1 ... quorum=2").
  /// Axes at their inert defaults are omitted.
  std::string describe() const;

  /// Line-oriented `key=value` serialization (stable key order, '#'
  /// comments and blank lines ignored on parse). parse() throws
  /// fedcav::Error on unknown keys, malformed values, or duplicates.
  std::string to_text() const;
  static ChaosPlan parse(const std::string& text);

  bool operator==(const ChaosPlan&) const = default;
};

/// File forms of to_text()/parse(). Throw fedcav::Error on IO failure.
void save_plan_file(const ChaosPlan& plan, const std::string& path);
ChaosPlan load_plan_file(const std::string& path);

/// Render crash windows back into parse_crash_spec's
/// "rank:first-last[,...]" form (empty string for no windows).
std::string format_crash_spec(const std::vector<comm::CrashWindow>& windows);

}  // namespace fedcav::chaos
