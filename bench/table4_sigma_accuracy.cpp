// Table 4 reproduction: converged classification accuracy of FedAvg,
// FedProx and FedCav under σ = 300 / 600 / 900 on the three datasets.
//
// Protocol notes (paper §5.2.1): runs start from a short pre-training
// phase ("pre-training solves the initialization problem and facilitates
// a fair comparison"); we apply that warm start where the dataset needs
// it (CIFAR). Accuracy is the mean of the last 5 rounds after the
// learning process converges.
//
// Paper shape to reproduce: accuracy decreases with σ for every method;
// FedCav matches or beats the baselines with the edge widening at larger
// σ; FedProx may tie/win slightly at σ=300 (the paper reports exactly
// that on MNIST).
#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/utils/logging.hpp"

int main(int argc, char** argv) {
  using namespace fedcav;
  using namespace fedcav::bench;

  CliParser cli("table4_sigma_accuracy",
                "Table 4: converged accuracy vs sigma for 3 strategies x 3 datasets");
  add_scale_flags(cli);
  cli.add_string("datasets", "digits,fashion,cifar", "comma-separated dataset list");
  cli.add_int("repeats", 8, "seeds to average per cell (cifar always runs 1)");
  if (!cli.parse(argc, argv)) return 0;
  set_log_level(LogLevel::kWarn);

  const Scale scale = resolve_scale(cli);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto repeats = static_cast<std::size_t>(std::max(1LL, cli.get_int("repeats")));

  const double sigmas[] = {300.0, 600.0, 900.0};
  const char* strategies[] = {"fedavg", "fedprox", "fedcav"};

  std::printf("== Table 4: converged accuracy (mean of last 5 rounds), %zu clients, "
              "%zu rounds, %zu repeat(s) ==\n",
              scale.clients, scale.rounds, repeats);
  std::printf("# CSV: bench,dataset,sigma,strategy,converged_accuracy\n");

  MarkdownTable table({"dataset", "sigma", "FedAvg", "FedProx", "FedCav", "winner"});
  for (const std::string& dataset : split(cli.get_string("datasets"), ',')) {
    // CIFAR needs a warm start and gentler local steps; fewer rounds
    // suffice because it starts from a pre-trained model.
    const std::size_t rounds = dataset == "cifar"
                                   ? std::max<std::size_t>(5, scale.rounds * 3 / 5)
                                   : scale.rounds;
    const std::size_t dataset_repeats = dataset == "cifar" ? 1 : repeats;
    for (double sigma : sigmas) {
      double acc[3] = {0.0, 0.0, 0.0};
      for (int s = 0; s < 3; ++s) {
        for (std::size_t rep = 0; rep < dataset_repeats; ++rep) {
          TunedPlan plan = tuned_plan(scale, dataset, strategies[s], seed + rep * 101);
          plan.config.partition.scheme = data::PartitionScheme::kNonIidImbalanced;
          plan.config.partition.sigma = sigma;
          fl::Simulation sim = build_warmstarted(plan);
          sim.server->run(rounds);
          acc[s] += sim.server->history().converged_accuracy(5);
        }
        acc[s] /= static_cast<double>(dataset_repeats);
        std::printf("# CSV: table4,%s,%.0f,%s,%.4f\n", dataset.c_str(), sigma,
                    strategies[s], acc[s]);
        std::fflush(stdout);
      }
      int winner = 0;
      for (int s = 1; s < 3; ++s) {
        if (acc[s] > acc[winner]) winner = s;
      }
      table.add_row({dataset, format_double(sigma, 0), format_double(acc[0], 4),
                     format_double(acc[1], 4), format_double(acc[2], 4),
                     strategies[winner]});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nExpected shape (paper Table 4): accuracy falls as sigma grows; "
              "FedCav leads overall (~2.4%% avg gain), FedProx can edge it at "
              "sigma=300.\n");
  return 0;
}
