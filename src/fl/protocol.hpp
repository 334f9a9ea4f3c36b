// The participant exchange of one FedCav round (Fig. 3, DESIGN.md §14):
// the server sends w_t, the client reports its inference loss f_i
// (metadata, phase ①), then its local update (report, phase ②). This
// module is the only implementation of that exchange. The in-process
// simulation plays both endpoints of every link, fedcav_daemon runs the
// server side over a real transport, and fedcav_worker the client side.
//
// Every receive goes through drain(), which pops a link's queued wire
// images, counts CRC failures and stale discards, and hands each clean
// envelope to the receiving endpoint's handler. How long to keep
// draining is the waiting policy, chosen by set_transport's `remote`:
//   * simulated — the caller plays both ends, so every message is one
//     send → drain → NACK → retry_backoff_s·2^k backoff → retransmit
//     loop, bounded by max_retries, with every transfer and backoff
//     charged to the participant's simulated elapsed_s;
//   * remote — await(): drain, then poll the transport until a message
//     is accepted, the peer closes, or the collect phase's wall-clock
//     deadline passes. Damaged frames are NACKed and a worker's NACK is
//     answered with a downlink retransmit, both bounded by max_retries.
//     A report that overtakes a NACKed metadata frame is held for
//     phase ②.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "src/comm/transport.hpp"
#include "src/fl/types.hpp"
#include "src/utils/timer.hpp"

namespace fedcav::fl {

class Client;
struct ServerConfig;

inline constexpr std::size_t kServerRank = 0;

/// What a receive handler made of one CRC-clean envelope: accepted it,
/// discarded it as stale, or answered it (control traffic, or an early
/// report held for phase ②).
enum class Take { kAccept, kStale, kAnswered };
using Handler = std::function<Take(const comm::Envelope&)>;

/// A decoded downlink: the round and its dense weights.
struct Downlink {
  std::size_t round = 0;
  nn::Weights weights;
};

/// A client's end of the exchange: decodes downlinks and encodes the
/// client's uplinks under the configured wire codec. The simulation
/// builds one per participation; fedcav_worker keeps one for its run
/// and drives it with next_downlink() / send_metadata() / send_report().
class ClientEndpoint {
 public:
  ClientEndpoint(comm::Transport& transport, std::size_t rank, Client& client,
                 const ServerConfig& config)
      : transport_(transport), rank_(rank), client_(client), config_(config) {}

  /// Handler body: decode a downlink into `out`. Other message types, and
  /// a round other than `round` (0 accepts any), are stale.
  Take take_downlink(const comm::Envelope& env, std::optional<Downlink>& out,
                     std::size_t round = 0) const;
  comm::Envelope metadata(std::size_t round, double inference_loss) const;
  /// Quantized codecs code `update` as a delta against `reference` with
  /// error feedback; the envelope is encoded once per participation, so
  /// the client's residual advances once however often it is resent.
  comm::Envelope report(std::size_t round, ClientUpdate update,
                        const nn::Weights& reference);

  /// Worker loop: wait for the next round's downlink (nullopt once the
  /// server closed). Meanwhile damaged frames are NACKed, a server NACK
  /// is answered with the cached uplink it names, and a repeated downlink
  /// of the current round resends the cached uplinks instead of training
  /// again — the client's quantization residual advances once per round
  /// however lossy the exchange.
  std::optional<Downlink> next_downlink();
  /// Send (and cache, for NACK answers) this round's uplinks.
  void send_metadata(double inference_loss);
  void send_report(ClientUpdate update, const nn::Weights& reference);

 private:
  comm::Transport& transport_;
  std::size_t rank_;
  Client& client_;
  const ServerConfig& config_;
  std::size_t round_ = 0;  // the round last served (worker loop)
  comm::Envelope metadata_{};
  comm::Envelope report_{};
};

/// The server's end of the exchange over the attached transport (none =
/// the unmetered direct path). Phase methods are const and, under the
/// simulated policy, touch only the caller's ParticipantOutcome, so that
/// policy may run them concurrently on pool threads.
class ServerEndpoint {
 public:
  explicit ServerEndpoint(const ServerConfig& config) : config_(config) {}

  void attach(comm::Transport* transport, bool remote) {
    transport_ = transport;
    remote_ = remote;
  }
  comm::Transport* transport() const { return transport_; }
  bool remote() const { return remote_; }

  /// Start round `round` with `global` as its reference w_t. Quantized
  /// codecs replace `global` by the dequantized image of its code, so
  /// both endpoints train and diff against the same floats. The downlink
  /// envelope is encoded here, once per round.
  void begin_round(std::size_t round, nn::Weights& global);
  /// Start a collect phase: restarts the remote wall-clock deadline and,
  /// remotely, broadcasts the downlink to `clients` (ranks = client
  /// index + 1) up front so every worker computes concurrently.
  void begin_phase(const std::vector<std::size_t>& clients = {});

  /// Phase ①: downlink, inference loss (`loss` of the given weights on
  /// the client's data, in-process only), metadata uplink. No metadata in
  /// the outcome = dropout.
  ParticipantOutcome exchange_metadata(
      std::size_t rank, Client& client,
      const std::function<double(const nn::Weights&)>& loss) const;
  /// Phase ②: local training (`train`, in-process only) and the report
  /// uplink. `counters.elapsed_s` carries the phase-① time in, so the
  /// uplink deadline spans the whole exchange. nullopt = upload failure.
  std::optional<ClientUpdate> exchange_report(std::size_t rank, Client& client,
                                              const std::function<ClientUpdate()>& train,
                                              ParticipantOutcome& counters) const;

 private:
  /// Simulated policy: one message src → dst with NACK-and-retry.
  bool transfer(std::size_t src, std::size_t dst, const comm::Envelope& env,
                const Handler& handle, ParticipantOutcome& out) const;
  /// Remote policy: await `rank`'s uplink of type `expected`.
  bool await_uplink(std::size_t rank, comm::MessageType expected, const Handler& take,
                    ParticipantOutcome& out) const;

  const ServerConfig& config_;
  comm::Transport* transport_ = nullptr;
  bool remote_ = false;
  std::size_t round_ = 0;
  const nn::Weights* reference_ = nullptr;  // the round's w_t (server-owned)
  comm::Envelope downlink_{};
  Stopwatch phase_watch_;
  /// Remote policy (which runs serially): per rank, a current-round
  /// report drained while phase ① still awaited the rank's metadata.
  /// Phase ② offers it before awaiting; begin_round drops leftovers.
  mutable std::map<std::size_t, comm::Envelope> early_reports_;
};

}  // namespace fedcav::fl
