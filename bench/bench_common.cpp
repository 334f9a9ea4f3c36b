#include "bench/bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/utils/error.hpp"

namespace fedcav::bench {

void add_scale_flags(CliParser& cli) {
  cli.add_flag("fast", "CI-sized run (seconds)");
  cli.add_flag("paper", "paper-sized run (100 clients, full rounds)");
  cli.add_int("clients", 0, "override client count (0 = scale default)");
  cli.add_int("rounds", 0, "override round count (0 = scale default)");
  cli.add_int("samples", 0, "override train samples per class (0 = scale default)");
  cli.add_int("seed", 2021, "base RNG seed");
}

Scale resolve_scale(const CliParser& cli) {
  Scale scale;
  if (cli.get_flag("fast")) {
    scale.clients = 12;
    scale.train_samples_per_class = 12;
    scale.test_samples_per_class = 10;
    scale.rounds = 6;
    scale.local_epochs = 3;
  } else if (cli.get_flag("paper")) {
    // §5.1.4: n=100, B=10, E=5, η=0.01, q=0.3.
    scale.clients = 100;
    scale.train_samples_per_class = 60;
    scale.test_samples_per_class = 40;
    scale.rounds = 50;
    scale.lr = 0.01f;
  }
  if (cli.get_int("clients") > 0) scale.clients = static_cast<std::size_t>(cli.get_int("clients"));
  if (cli.get_int("rounds") > 0) scale.rounds = static_cast<std::size_t>(cli.get_int("rounds"));
  if (cli.get_int("samples") > 0) {
    scale.train_samples_per_class = static_cast<std::size_t>(cli.get_int("samples"));
  }
  return scale;
}

fl::SimulationConfig make_config(const Scale& scale, const std::string& dataset,
                                 const std::string& model, const std::string& strategy,
                                 std::uint64_t seed) {
  fl::SimulationConfig config;
  config.dataset = dataset;
  config.model = model;
  config.strategy = strategy;
  config.train_samples_per_class = scale.train_samples_per_class;
  config.test_samples_per_class = scale.test_samples_per_class;
  config.partition.num_clients = scale.clients;
  config.server.sample_ratio = scale.sample_ratio;
  config.server.local.epochs = scale.local_epochs;
  config.server.local.batch_size = scale.batch_size;
  config.server.local.lr = scale.lr;
  config.seed = seed;
  // Root of the per-round derived streams (cohorts, shuffles, straggler
  // coins): each repeat gets its own, not the ServerConfig default.
  config.server.seed = seed;
  return config;
}

std::string model_for_dataset(const std::string& dataset) {
  if (dataset == "digits") return "lenet5";   // MNIST -> LeNet-5
  if (dataset == "fashion") return "cnn9";    // FMNIST -> 9-layer CNN
  if (dataset == "cifar") return "resnet";    // CIFAR-10 -> ResNet-18
  throw Error("model_for_dataset: unknown dataset '" + dataset + "'");
}

TunedPlan tuned_plan(const Scale& scale, const std::string& dataset,
                     const std::string& strategy, std::uint64_t seed) {
  TunedPlan plan;
  plan.config = make_config(scale, dataset, model_for_dataset(dataset), strategy, seed);
  if (dataset == "cifar") {
    plan.config.partition.num_clients = std::max<std::size_t>(10, scale.clients / 2);
    // Shards must be big enough that two local epochs refine rather than
    // erase the warm-started features.
    plan.config.train_samples_per_class =
        std::max<std::size_t>(plan.config.train_samples_per_class, 60);
    plan.config.server.local.epochs = 2;
    plan.config.server.local.lr = 0.01f;
    plan.warmstart_epochs = 8;
    plan.warmstart_lr = 0.05f;
  }
  return plan;
}

fl::Simulation build_warmstarted(const TunedPlan& plan) {
  fl::Simulation sim = fl::build_simulation(plan.config);
  if (plan.warmstart_epochs > 0) {
    Rng rng(plan.config.seed ^ 0x5eedf00dULL);
    auto model = nn::model_builder(plan.config.model)(rng);
    model->set_weights(sim.server->global_weights());
    fl::LocalTrainConfig pretrain_cfg = plan.config.server.local;
    pretrain_cfg.lr = plan.warmstart_lr;
    fl::CentralizedTrainer pretrainer(std::move(model), sim.train, sim.test,
                                      pretrain_cfg, Rng(plan.config.seed ^ 0xf00dULL));
    pretrainer.run(1, plan.warmstart_epochs);
    sim.server->set_global_weights(pretrainer.model().get_weights());
  }
  return sim;
}

void print_history_csv_header() {
  std::printf("# CSV: bench,series,round,accuracy,loss\n");
}

void print_history_csv(const std::string& bench, const std::string& series,
                       const metrics::TrainingHistory& history) {
  for (const auto& record : history.records()) {
    std::printf("# CSV: %s,%s,%zu,%.4f,%.4f\n", bench.c_str(), series.c_str(),
                record.round, record.test_accuracy, record.test_loss);
  }
}

double accuracy_oscillation(const metrics::TrainingHistory& history) {
  const auto& records = history.records();
  if (records.size() < 3) return 0.0;
  std::vector<double> deltas;
  deltas.reserve(records.size() - 1);
  for (std::size_t i = 1; i < records.size(); ++i) {
    deltas.push_back(records[i].test_accuracy - records[i - 1].test_accuracy);
  }
  double mean = 0.0;
  for (double d : deltas) mean += d;
  mean /= static_cast<double>(deltas.size());
  double var = 0.0;
  for (double d : deltas) var += (d - mean) * (d - mean);
  return std::sqrt(var / static_cast<double>(deltas.size()));
}

std::string rounds_cell(std::optional<std::size_t> rounds, std::size_t budget) {
  if (rounds) return std::to_string(*rounds);
  // Appended, not `">" + std::to_string(...)`: GCC 12 raises a false
  // -Wrestrict on operator+(const char*, std::string&&) once inlined.
  std::string cell = ">";
  cell += std::to_string(budget);
  return cell;
}

}  // namespace fedcav::bench
