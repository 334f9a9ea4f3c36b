// §6 overhead reproduction: FedCav's extra cost over FedAvg.
//
// Paper claims: (a) communication — one extra float (the inference loss)
// per client per round; (b) computation — one inference pass over the
// local data at the start of each round, small relative to E local
// training epochs (paper quotes 0.0857 s inference vs 0.1620 s/epoch on
// MNIST). We verify (a) exactly from the comm fabric's byte counters and
// (b) by timing inference-loss evaluation against one epoch of local
// training on this host.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/metrics/evaluation.hpp"
#include "src/nn/optimizer.hpp"
#include "src/utils/logging.hpp"
#include "src/utils/timer.hpp"

int main(int argc, char** argv) {
  using namespace fedcav;
  using namespace fedcav::bench;

  CliParser cli("overhead_accounting", "SS6: FedCav comm/compute overhead vs FedAvg");
  add_scale_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  set_log_level(LogLevel::kWarn);

  Scale scale = resolve_scale(cli);
  if (!cli.get_flag("paper") && cli.get_int("rounds") == 0) scale.rounds = 3;
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  // ---- (a) communication: exact per-round byte accounting ------------
  std::printf("== SS6 overhead: communication ==\n");
  MarkdownTable comm_table({"strategy", "bytes_up/round", "bytes_down/round",
                            "uplink_per_client", "extra_vs_weights"});
  const char* strategies[] = {"fedavg", "fedcav"};
  for (const char* strategy : strategies) {
    fl::SimulationConfig config = make_config(scale, "digits", "lenet5", strategy, seed);
    config.partition.scheme = data::PartitionScheme::kNonIidImbalanced;
    fl::Simulation sim = fl::build_simulation(config);
    const metrics::RoundRecord rec = sim.server->run_round();
    const std::size_t per_client_up = rec.bytes_up / rec.participants;
    const std::size_t weights_bytes = sim.server->global_weights().size() * sizeof(float);
    comm_table.add_row({strategy, std::to_string(rec.bytes_up),
                        std::to_string(rec.bytes_down), std::to_string(per_client_up),
                        std::to_string(per_client_up - weights_bytes)});
  }
  std::printf("%s", comm_table.render().c_str());
  std::printf("Note: the wire protocol always carries the 8-byte inference-loss "
              "field; FedAvg simply ignores it. The marginal cost of FedCav's "
              "signal is that one float per client per round (paper SS6).\n\n");

  // ---- (b) computation: inference pass vs one training epoch ---------
  std::printf("== SS6 overhead: computation (host wall-clock) ==\n");
  const data::SynthGenerator gen(data::synth_digits_config(seed));
  Rng data_rng(seed + 1);
  data::Dataset local = gen.generate_balanced(scale.train_samples_per_class, data_rng);
  Rng model_rng(seed + 2);
  auto model = nn::model_builder("lenet5")(model_rng);

  constexpr int kReps = 5;
  Stopwatch watch;
  for (int r = 0; r < kReps; ++r) {
    (void)metrics::inference_loss(*model, local);
  }
  const double inference_s = watch.seconds() / kReps;

  nn::Sgd optimizer(nn::SgdConfig{.lr = 0.05f});
  std::vector<std::size_t> order(local.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::size_t> labels;
  watch.reset();
  for (int r = 0; r < kReps; ++r) {
    for (std::size_t begin = 0; begin < order.size(); begin += scale.batch_size) {
      const std::size_t end = std::min(order.size(), begin + scale.batch_size);
      Tensor batch = local.make_batch(std::span(order.data() + begin, end - begin), &labels);
      model->forward_backward(batch, labels);
      optimizer.step(*model);
    }
  }
  const double epoch_s = watch.seconds() / kReps;

  MarkdownTable compute_table({"phase", "seconds", "relative"});
  compute_table.add_row({"inference loss (per round)", format_double(inference_s, 5), "1.0x"});
  compute_table.add_row({"one local epoch", format_double(epoch_s, 5),
                         format_double(epoch_s / inference_s, 2) + "x"});
  compute_table.add_row({"E=" + std::to_string(scale.local_epochs) + " local epochs",
                         format_double(epoch_s * scale.local_epochs, 5),
                         format_double(epoch_s * scale.local_epochs / inference_s, 2) + "x"});
  std::printf("%s", compute_table.render().c_str());
  std::printf("\nExpected shape (paper SS6): inference latency is a fraction of "
              "one training epoch (paper: 0.0857s vs 0.1620s x E on MNIST).\n");
  return 0;
}
