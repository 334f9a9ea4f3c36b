// Fig. 6 reproduction: model-replacement attack (all labels flipped)
// against FedAvg and FedCav *without* detection, on the three datasets.
//
// Paper shape to reproduce: accuracy collapses at the attack round for
// both aggregators, then gradually and tortuously recovers through
// continued training; FedCav recovers slightly faster than FedAvg.
#include <algorithm>
#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/utils/logging.hpp"

int main(int argc, char** argv) {
  using namespace fedcav;
  using namespace fedcav::bench;

  CliParser cli("fig6_attack_recovery",
                "Fig. 6: model replacement vs FedAvg / FedCav-without-detection");
  add_scale_flags(cli);
  cli.add_string("datasets", "digits,fashion,cifar", "comma-separated dataset list");
  cli.add_int("attack-round", 15, "round the adversary strikes (1-based)");
  if (!cli.parse(argc, argv)) return 0;
  set_log_level(LogLevel::kWarn);

  const Scale scale = resolve_scale(cli);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  // Strike once the model has trained meaningfully (but not past the
  // horizon when --fast shrinks the run).
  const auto attack_round = std::min<std::size_t>(
      static_cast<std::size_t>(cli.get_int("attack-round")),
      std::max<std::size_t>(2, scale.rounds * 3 / 5));

  std::printf("== Fig. 6: replacement attack at round %zu, no detection, %zu rounds ==\n",
              attack_round, scale.rounds);
  print_history_csv_header();

  MarkdownTable table({"dataset", "strategy", "pre_attack_acc", "post_attack_acc",
                       "recovery_rounds"});
  for (const std::string& dataset : split(cli.get_string("datasets"), ',')) {
    for (const char* strategy : {"fedavg", "fedcav"}) {
      TunedPlan plan = tuned_plan(scale, dataset, strategy, seed);
      plan.config.partition.scheme = data::PartitionScheme::kNonIidImbalanced;
      plan.config.partition.sigma = 600.0;
      plan.config.attack = "replacement";
      plan.config.attack_rounds = {attack_round};
      plan.config.attack_poison_fraction = 1.0;  // all labels flipped (paper Fig. 6)
      plan.config.server.detection_enabled = false;
      fl::Simulation sim = build_warmstarted(plan);
      sim.server->run(scale.rounds);
      const auto& history = sim.server->history();
      const std::string series = dataset + "/" + strategy;
      print_history_csv("fig6", series, history);

      const double pre = attack_round >= 2 ? history[attack_round - 2].test_accuracy : 0.0;
      const double post = history[attack_round - 1].test_accuracy;
      const auto recovery = history.recovery_rounds(0.9);
      table.add_row({dataset, strategy, format_double(pre, 4), format_double(post, 4),
                     rounds_cell(recovery, scale.rounds)});
      std::fflush(stdout);
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nExpected shape (paper Fig. 6): accuracy collapses at the attack "
              "round for both strategies, then climbs back slowly; without "
              "detection, recovery costs many rounds.\n");
  return 0;
}
