// Shared flag set + SimulationConfig builder for the daemon/worker
// tools (DESIGN.md §14).
//
// The daemon, every worker, and the multi-process integration test must
// agree bit-exactly on the simulation — same corpus, same shards, same
// RNG fork order, same model init — or the federation trains different
// models on each side of every socket. Deriving all three from this one
// builder makes config drift a compile error instead of a flaky test.
#pragma once

#include <fstream>
#include <span>
#include <string>

#include "src/fl/simulation.hpp"
#include "src/tensor/serialize.hpp"
#include "src/utils/cli.hpp"
#include "src/utils/error.hpp"

namespace fedcav::tools {

inline void add_federation_flags(CliParser& cli) {
  cli.add_string("socket", "", "Unix socket path of the federation");
  cli.add_string("tcp", "",
                 "host:port TCP address of the federation "
                 "(alternative to --socket; IPv6 hosts in brackets)");
  cli.add_string("auth-token", "",
                 "shared join secret (at most 32 bytes; empty = open join)");
  cli.add_int("rounds", 3, "communication rounds");
  cli.add_int("clients", 4, "federated clients (= worker ranks 1..N)");
  cli.add_string("dataset", "digits", "digits | fashion | cifar");
  cli.add_string("model", "mlp", "mlp | lenet5 | cnn9 | resnet");
  cli.add_string("strategy", "fedcav", "fedavg | fedprox | fedcav | fedcav-noclip");
  cli.add_int("seed", 2021, "simulation seed");
  cli.add_double("sample-ratio", 1.0, "fraction of clients sampled per round");
  cli.add_int("local-epochs", 2, "local SGD epochs per round");
  cli.add_int("batch-size", 10, "local mini-batch size");
  cli.add_double("lr", 0.05, "local learning rate");
  cli.add_int("train-per-class", 20, "training samples per class");
  cli.add_int("test-per-class", 10, "test samples per class");
  cli.add_int("quorum", 1, "min surviving updates to aggregate");
  cli.add_string("quant", "none", "wire codec: none | fp16 | int8");
  cli.add_double("quant-keep", 1.0,
                 "top-k fraction of the uplink delta (0, 1]; below 1 needs --quant");
  cli.add_double("recv-timeout", 30.0,
                 "daemon: seconds each collect phase waits on silent live workers");
  cli.add_double("straggler", 0.0,
                 "per-round probability a sampled client straggles out");
  // Kept only for the frozen fedbench/ (DESIGN.md §17).
  cli.add_flag("derived-seeds",
               "accepted for compatibility: per-round derived RNG streams "
               "(DESIGN.md §16) are the only mode");
}

inline fl::SimulationConfig federation_config(const CliParser& cli) {
  fl::SimulationConfig config;
  config.dataset = cli.get_string("dataset");
  config.model = cli.get_string("model");
  config.strategy = cli.get_string("strategy");
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.train_samples_per_class =
      static_cast<std::size_t>(cli.get_int("train-per-class"));
  config.test_samples_per_class =
      static_cast<std::size_t>(cli.get_int("test-per-class"));
  config.partition.num_clients = static_cast<std::size_t>(cli.get_int("clients"));
  config.server.sample_ratio = cli.get_double("sample-ratio");
  config.server.local.epochs = static_cast<std::size_t>(cli.get_int("local-epochs"));
  config.server.local.batch_size = static_cast<std::size_t>(cli.get_int("batch-size"));
  config.server.local.lr = static_cast<float>(cli.get_double("lr"));
  config.server.min_aggregate_clients =
      static_cast<std::size_t>(cli.get_int("quorum"));
  config.server.quant = comm::quant_mode_from_string(cli.get_string("quant"));
  config.server.quant_keep = cli.get_double("quant-keep");
  config.server.remote_recv_timeout_s = cli.get_double("recv-timeout");
  config.server.straggler_drop_prob = cli.get_double("straggler");
  config.server.seed = config.seed;
  return config;
}

/// Raw little-endian f32 dump of the final global weights; the
/// integration test compares these files byte-for-byte across backends.
inline void write_weights_file(const std::string& path,
                               const std::vector<float>& weights) {
  ByteBuffer buf;
  write_f32_span(buf, std::span<const float>(weights.data(), weights.size()));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  FEDCAV_REQUIRE(out.good(), "write_weights_file: cannot open " + path);
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  FEDCAV_REQUIRE(out.good(), "write_weights_file: write failed for " + path);
}

}  // namespace fedcav::tools
