// Compression ablation: accuracy against uplink bytes for the quantized
// wire codec (DESIGN.md §13). FedCav on the σ=600 digits workload, run
// over the in-memory network once per row: fp32, fp16 at keep ratios
// 1 down to 0.01, and int8 at keep 1 and 0.25. Bytes per round come from
// RoundRecord, so they are measured on the wire (envelopes, CRC,
// metadata reports and broadcasts included), not modeled. Exits nonzero
// unless, within each codec, uplink bytes per round fall strictly as the
// keep ratio falls.
#include <cstdio>
#include <iterator>

#include "bench/bench_common.hpp"
#include "src/utils/logging.hpp"

int main(int argc, char** argv) {
  using namespace fedcav;
  using namespace fedcav::bench;

  CliParser cli("ablation_compression",
                "quantized top-k uplinks: accuracy vs bytes on the wire");
  add_scale_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  set_log_level(LogLevel::kWarn);

  const Scale scale = resolve_scale(cli);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  std::printf("== Compression ablation: FedCav, digits, sigma=600, %zu clients, "
              "%zu rounds ==\n",
              scale.clients, scale.rounds);
  struct Row {
    comm::QuantMode mode;
    double keep;
  };
  const Row kRows[] = {
      {comm::QuantMode::kNone, 1.0},  {comm::QuantMode::kFp16, 1.0},
      {comm::QuantMode::kFp16, 0.5},  {comm::QuantMode::kFp16, 0.1},
      {comm::QuantMode::kFp16, 0.05}, {comm::QuantMode::kFp16, 0.01},
      {comm::QuantMode::kInt8, 1.0},  {comm::QuantMode::kInt8, 0.25},
  };
  MarkdownTable table({"wire", "keep", "converged_acc", "best_acc", "uplink/round",
                       "total/round", "uplink_reduction"});
  double fp32_uplink = 0.0;
  double previous_uplink = 0.0;
  bool shrinks = true;
  for (std::size_t r = 0; r < std::size(kRows); ++r) {
    const Row& row = kRows[r];
    fl::SimulationConfig config = make_config(scale, "digits", "lenet5", "fedcav", seed);
    config.partition.scheme = data::PartitionScheme::kNonIidImbalanced;
    config.partition.sigma = 600.0;
    config.server.quant = row.mode;
    config.server.quant_keep = row.keep;
    fl::Simulation sim = fl::build_simulation(config);
    sim.server->run(scale.rounds);

    std::uint64_t up = 0;
    std::uint64_t total = 0;
    for (const auto& rec : sim.server->history().records()) {
      up += rec.bytes_up;
      total += rec.bytes_up + rec.bytes_down;
    }
    const double rounds = static_cast<double>(scale.rounds);
    const double uplink = static_cast<double>(up) / rounds;
    const std::string wire =
        row.mode == comm::QuantMode::kNone ? "fp32" : comm::to_string(row.mode);
    if (row.mode == comm::QuantMode::kNone) fp32_uplink = uplink;
    if (r > 0 && kRows[r - 1].mode == row.mode && !(uplink < previous_uplink)) {
      std::fprintf(stderr,
                   "FAIL: %s uplink did not shrink from keep %.2f to %.2f "
                   "(%.0f -> %.0f bytes/round)\n",
                   wire.c_str(), kRows[r - 1].keep, row.keep, previous_uplink, uplink);
      shrinks = false;
    }
    previous_uplink = uplink;
    table.add_row({wire, format_double(row.keep, 2),
                   format_double(sim.server->history().converged_accuracy(5), 4),
                   format_double(sim.server->history().best_accuracy(), 4),
                   format_double(uplink / 1e3, 1) + " KB",
                   format_double(static_cast<double>(total) / rounds / 1e3, 1) + " KB",
                   format_double(uplink > 0.0 ? fp32_uplink / uplink : 0.0, 1) + "x"});
  }
  std::printf("%s", table.render().c_str());
  return shrinks ? 0 : 1;
}
