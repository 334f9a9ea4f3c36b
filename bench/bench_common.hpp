// Shared scaffolding for the figure/table reproduction benches.
//
// Every bench binary reproduces one table or figure from the paper and
// prints (a) a human-readable markdown block and (b) machine-readable
// long-format CSV rows (`# CSV:` prefixed) so the series can be plotted
// directly. Scale flags:
//   --fast   CI-sized (seconds)
//   --paper  paper-sized (100 clients, more rounds; minutes-to-hours)
//   default  laptop-sized (tens of seconds), same qualitative shapes
#pragma once

#include <optional>
#include <string>

#include "src/fl/simulation.hpp"
#include "src/metrics/history.hpp"
#include "src/utils/cli.hpp"
#include "src/utils/csv.hpp"
#include "src/utils/string_util.hpp"

namespace fedcav::bench {

/// Workload scale selected by --fast / default / --paper.
struct Scale {
  std::size_t clients = 40;
  std::size_t train_samples_per_class = 30;
  std::size_t test_samples_per_class = 20;
  std::size_t rounds = 25;
  double sample_ratio = 0.3;
  std::size_t local_epochs = 5;
  std::size_t batch_size = 10;
  float lr = 0.05f;
};

/// Register the shared scale flags on a parser.
void add_scale_flags(CliParser& cli);

/// Resolve flags into a Scale (applies --fast / --paper presets first,
/// then explicit overrides).
Scale resolve_scale(const CliParser& cli);

/// Baseline SimulationConfig with the scale applied; callers then set
/// dataset/model/strategy/partition specifics.
fl::SimulationConfig make_config(const Scale& scale, const std::string& dataset,
                                 const std::string& model, const std::string& strategy,
                                 std::uint64_t seed);

/// The model each dataset uses in the paper's evaluation (§5.1.1).
std::string model_for_dataset(const std::string& dataset);

/// Per-dataset tuning mirroring the paper's protocol. CIFAR federated
/// training only makes progress from a pre-trained initialization
/// (§5.2.1: "we first train for a short period ... pre-training solves
/// the initialization problem"), with gentler local steps; the function
/// shrinks the cohort, sets E=2, η=0.01 and requests a warm start.
struct TunedPlan {
  fl::SimulationConfig config;
  std::size_t warmstart_epochs = 0;  // centralized epochs before FL
  float warmstart_lr = 0.05f;
};
TunedPlan tuned_plan(const Scale& scale, const std::string& dataset,
                     const std::string& strategy, std::uint64_t seed);

/// Build the simulation and apply the plan's centralized warm start
/// (no-op when warmstart_epochs == 0).
fl::Simulation build_warmstarted(const TunedPlan& plan);

/// Emit one history as long-format CSV rows:
///   bench,series,round,accuracy,loss
void print_history_csv(const std::string& bench, const std::string& series,
                       const metrics::TrainingHistory& history);

/// Print the CSV header for print_history_csv rows.
void print_history_csv_header();

/// Standard deviation of round-to-round accuracy deltas — the
/// "oscillation" summary used by the Fig. 5 clip ablation.
double accuracy_oscillation(const metrics::TrainingHistory& history);

/// Table cell for a round count that may never have been reached:
/// "<rounds>", or ">budget" when `rounds` is empty.
std::string rounds_cell(std::optional<std::size_t> rounds, std::size_t budget);

}  // namespace fedcav::bench
