// Quickstart: train FedCav on the synthetic digits corpus with 20
// clients holding imbalanced non-IID shards, and watch the global model
// converge. Mirrors the paper's default setup at CI scale.
//
//   ./example_quickstart [--rounds 15] [--strategy fedcav] [--clients 20]
//   ./example_quickstart --config configs/paper_digits.cfg
#include <cstdio>
#include <string>

#include "src/fl/simulation.hpp"
#include "src/utils/cli.hpp"
#include "src/utils/config.hpp"
#include "src/utils/logging.hpp"

int main(int argc, char** argv) {
  using namespace fedcav;

  CliParser cli("quickstart", "minimal FedCav federated training run");
  cli.add_int("rounds", 15, "communication rounds");
  cli.add_int("clients", 20, "number of federated clients");
  cli.add_string("strategy", "fedcav", "fedavg | fedprox | fedcav | fedcav-noclip");
  cli.add_string("dataset", "digits", "digits | fashion | cifar");
  cli.add_string("model", "lenet5", "mlp | lenet5 | cnn9 | resnet");
  cli.add_string("config", "", "key=value experiment file overriding the flags");
  cli.add_string("trace", "", "enable telemetry; write chrome://tracing JSON here");
  cli.add_string("metrics", "", "enable telemetry; write metrics summary JSON here");
  // Fault injection (see DESIGN.md §10): all probabilities per message.
  cli.add_double("fault-drop", 0.0, "per-message drop probability");
  cli.add_double("fault-dup", 0.0, "per-message duplication probability");
  cli.add_double("fault-reorder", 0.0, "per-message reorder probability");
  cli.add_double("fault-corrupt", 0.0, "per-message bit-flip probability");
  cli.add_double("fault-truncate", 0.0, "per-message truncation probability");
  cli.add_double("fault-jitter", 0.0, "max extra latency per message (simulated s)");
  cli.add_int("fault-seed", 0, "seed of the per-link fault streams");
  cli.add_string("crash", "", "crash schedule rank:first-last[,...] (client i = rank i+1)");
  cli.add_int("quorum", 1, "min surviving updates to aggregate; below it the round skips");
  cli.add_int("max-retries", 3, "retransmissions per lost/corrupt message");
  cli.add_double("uplink-deadline", 0.0, "simulated-s budget per report (0 = off)");
  cli.add_string("quant", "none", "wire codec: none | fp16 | int8 (DESIGN.md §13)");
  cli.add_double("quant-keep", 1.0,
                 "top-k fraction of the uplink delta to keep (0, 1]; below 1 needs --quant");
  if (!cli.parse(argc, argv)) return 0;

  set_log_level(LogLevel::kWarn);

  fl::SimulationConfig config;
  config.dataset = cli.get_string("dataset");
  config.model = cli.get_string("model");
  config.strategy = cli.get_string("strategy");
  config.train_samples_per_class = 40;
  config.test_samples_per_class = 20;
  config.partition.scheme = data::PartitionScheme::kNonIidImbalanced;
  config.partition.num_clients = static_cast<std::size_t>(cli.get_int("clients"));
  config.partition.sigma = 600.0;
  config.server.sample_ratio = 0.3;
  config.server.local.epochs = 5;
  config.server.local.batch_size = 10;
  config.server.local.lr = 0.05f;
  std::size_t rounds = static_cast<std::size_t>(cli.get_int("rounds"));

  if (!cli.get_string("config").empty()) {
    const Config file = Config::from_file(cli.get_string("config"));
    config.dataset = file.get_string("dataset", config.dataset);
    config.model = file.get_string("model", config.model);
    config.strategy = file.get_string("strategy", config.strategy);
    config.train_samples_per_class = static_cast<std::size_t>(
        file.get_int("train_samples_per_class",
                     static_cast<long long>(config.train_samples_per_class)));
    config.partition.num_clients = static_cast<std::size_t>(
        file.get_int("clients", static_cast<long long>(config.partition.num_clients)));
    config.partition.sigma = file.get_double("sigma", config.partition.sigma);
    config.server.sample_ratio =
        file.get_double("sample_ratio", config.server.sample_ratio);
    config.server.local.epochs = static_cast<std::size_t>(
        file.get_int("local_epochs", static_cast<long long>(config.server.local.epochs)));
    config.server.local.lr = static_cast<float>(
        file.get_double("lr", static_cast<double>(config.server.local.lr)));
    config.seed = static_cast<std::uint64_t>(
        file.get_int("seed", static_cast<long long>(config.seed)));
    rounds = static_cast<std::size_t>(
        file.get_int("rounds", static_cast<long long>(rounds)));
  }

  const std::string trace_path = cli.get_string("trace");
  const std::string metrics_path = cli.get_string("metrics");
  config.server.telemetry = !trace_path.empty() || !metrics_path.empty();

  comm::FaultPlan& faults = config.server.network.faults;
  faults.drop_prob = cli.get_double("fault-drop");
  faults.duplicate_prob = cli.get_double("fault-dup");
  faults.reorder_prob = cli.get_double("fault-reorder");
  faults.corrupt_prob = cli.get_double("fault-corrupt");
  faults.truncate_prob = cli.get_double("fault-truncate");
  faults.jitter_s = cli.get_double("fault-jitter");
  faults.seed = static_cast<std::uint64_t>(cli.get_int("fault-seed"));
  faults.crashes = comm::parse_crash_spec(cli.get_string("crash"));
  config.server.min_aggregate_clients = static_cast<std::size_t>(cli.get_int("quorum"));
  config.server.max_retries = static_cast<std::size_t>(cli.get_int("max-retries"));
  config.server.uplink_deadline_s = cli.get_double("uplink-deadline");
  config.server.quant = comm::quant_mode_from_string(cli.get_string("quant"));
  config.server.quant_keep = cli.get_double("quant-keep");

  fl::Simulation sim = fl::build_simulation(config);
  std::printf("dataset=%s model=%s strategy=%s clients=%zu params=%zu\n",
              config.dataset.c_str(), config.model.c_str(), config.strategy.c_str(),
              sim.partition.size(), sim.server->global_weights().size());
  std::printf("%-6s %-10s %-10s %-14s\n", "round", "accuracy", "loss", "mean_inf_loss");

  for (std::size_t r = 0; r < rounds; ++r) {
    const metrics::RoundRecord rec = sim.server->run_round();
    std::printf("%-6zu %-10.4f %-10.4f %-14.4f\n", rec.round, rec.test_accuracy,
                rec.test_loss, rec.mean_inference_loss);
  }
  std::printf("best accuracy: %.4f\n", sim.server->history().best_accuracy());

  if (faults.enabled()) {
    const comm::FaultStats f = sim.server->network()->fault_stats();
    std::uint64_t retries = 0;
    std::uint64_t crc_failures = 0;
    std::size_t skipped = 0;
    for (const auto& rec : sim.server->history().records()) {
      retries += rec.retries;
      crc_failures += rec.crc_failures;
      if (rec.skipped) ++skipped;
    }
    std::printf(
        "faults: dropped=%llu crash_dropped=%llu dup=%llu reorder=%llu "
        "corrupt=%llu truncate=%llu delivered=%llu jitter=%.3fs\n",
        static_cast<unsigned long long>(f.dropped),
        static_cast<unsigned long long>(f.crash_dropped),
        static_cast<unsigned long long>(f.duplicated),
        static_cast<unsigned long long>(f.reordered),
        static_cast<unsigned long long>(f.corrupted),
        static_cast<unsigned long long>(f.truncated),
        static_cast<unsigned long long>(f.delivered), f.jitter_seconds);
    std::printf("recovery: retries=%llu crc_failures=%llu rounds_skipped=%zu\n",
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(crc_failures), skipped);
  }

  if (config.server.telemetry) {
    sim.server->write_telemetry(trace_path, metrics_path);
    double phase_sum = 0.0;
    double wall = 0.0;
    for (const auto& rec : sim.server->history().records()) {
      phase_sum += rec.phases.sum();
      wall += rec.wall_seconds;
    }
    std::printf("telemetry: %.3fs across phases of %.3fs round wall time (%.1f%%)\n",
                phase_sum, wall, wall > 0.0 ? 100.0 * phase_sum / wall : 0.0);
    if (!trace_path.empty()) std::printf("trace written to %s\n", trace_path.c_str());
    if (!metrics_path.empty()) std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}
