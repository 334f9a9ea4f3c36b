// Worker rank of a multi-process federation (DESIGN.md §14/§16).
//
// Builds the same simulation as the daemon (identical seeds → identical
// shards and model init), joins the daemon's socket (--socket PATH) or
// TCP address (--tcp HOST:PORT, optionally with --auth-token), and then
// serves round downlinks through fl::ClientEndpoint (src/fl/protocol.hpp,
// which also answers NACKs and duplicate downlinks): compute the
// inference loss, uplink the metadata scalars, train locally, uplink the
// full report. The worker keeps no round schedule of its own — it reacts
// to whatever the daemon sends and exits when the daemon closes the
// connection (EOF is shutdown).
//
// The worker also evaluates its own straggler coin (a pure function of
// seed/round/client id — DESIGN.md §16): a straggled round uplinks the
// metadata scalars but skips training and the report, exactly like the
// in-process path, so sampled/straggler configs stay bit-identical
// across process layouts.
//
//   ./fedcav_worker --socket /tmp/fed.sock --clients 4 [--rank 2]
//
// The --exit-* flags are failure-injection hooks for the integration
// tests: they kill the process at protocol-relevant instants so the
// daemon's dropout / upload-failure accounting can be asserted.
#include <cstdio>
#include <exception>

#include <unistd.h>

#include "src/comm/socket_transport.hpp"
#include "src/comm/tcp_transport.hpp"
#include "src/fl/simulation.hpp"
#include "src/nn/zoo.hpp"
#include "src/utils/cli.hpp"
#include "src/utils/logging.hpp"
#include "tools/federation_common.hpp"

int main(int argc, char** argv) {
  using namespace fedcav;

  CliParser cli("fedcav_worker", "worker rank of a socket federation");
  tools::add_federation_flags(cli);
  cli.add_int("rank", 0, "worker rank to join as (0 = daemon assigns)");
  cli.add_int("exit-before-round", 0,
              "TEST: exit upon receiving round N's downlink (dropout)");
  cli.add_int("exit-after-metadata", 0,
              "TEST: exit right after round N's metadata uplink "
              "(upload failure)");
  if (!cli.parse(argc, argv)) return 0;

  const std::string socket_path = cli.get_string("socket");
  const std::string tcp_address = cli.get_string("tcp");
  if (socket_path.empty() == tcp_address.empty()) {
    std::fprintf(stderr,
                 "fedcav_worker: exactly one of --socket or --tcp is required\n");
    return 2;
  }

  set_log_level(LogLevel::kWarn);
  try {
    const fl::SimulationConfig config = tools::federation_config(cli);
    fl::Simulation sim = fl::build_simulation(config);

    comm::StreamTransportConfig tcfg;
    tcfg.auth_token = cli.get_string("auth-token");
    const long long rank_flag = cli.get_int("rank");
    const std::uint64_t want_rank =
        rank_flag == 0 ? comm::kAnyRank : static_cast<std::uint64_t>(rank_flag);
    std::unique_ptr<comm::StreamTransport> transport;
    if (!tcp_address.empty()) {
      transport = comm::TcpTransport::connect(tcp_address, want_rank, tcfg);
    } else {
      transport = comm::SocketTransport::connect(socket_path, want_rank, tcfg);
    }
    const std::size_t rank = transport->local_rank();

    fl::Client& client = sim.server->client_at(rank - 1);
    const fl::LocalTrainConfig local = sim.server->effective_local();
    // Same init stream the in-process server seeds its global model
    // with; the downlink overwrites the weights every round anyway.
    Rng model_rng(config.seed ^ 0xabcdef12345ULL);
    std::unique_ptr<nn::Model> model = nn::model_builder(config.model)(model_rng);

    const std::size_t exit_before =
        static_cast<std::size_t>(cli.get_int("exit-before-round"));
    const std::size_t exit_after_meta =
        static_cast<std::size_t>(cli.get_int("exit-after-metadata"));

    fl::ClientEndpoint endpoint(*transport, rank, client, config.server);
    while (std::optional<fl::Downlink> down = endpoint.next_downlink()) {
      if (exit_before != 0 && down->round == exit_before) {
        ::_exit(0);  // vanish before any uplink → phase-① dropout
      }
      const double f_i = client.compute_inference_loss(*model, down->weights);
      endpoint.send_metadata(f_i);
      if (exit_after_meta != 0 && down->round == exit_after_meta) {
        ::_exit(0);  // vanish mid-uplink → phase-② upload failure
      }
      // The daemon flips the same coin, so no control message is needed:
      // a straggled round ends after the metadata uplink.
      if (derived_bernoulli(config.server.seed, down->round, client.id(),
                            RngStream::kStraggler, config.server.straggler_drop_prob)) {
        continue;
      }
      // Per-participation reseed: local training draws from the same
      // derived stream regardless of this worker's downlink history.
      client.reseed_for_round(config.server.seed, down->round);
      endpoint.send_report(client.train_update(*model, down->weights, local, f_i),
                           down->weights);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fedcav_worker: %s\n", e.what());
    return 1;
  }
  return 0;
}
