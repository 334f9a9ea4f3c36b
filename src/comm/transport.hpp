// Topology-neutral transport seam of the federation (DESIGN.md §14).
//
// The federated round protocol (downlink broadcast, NACK-and-retry,
// metadata + report uplinks) is written against this interface so the
// exact same server logic runs over any fabric — the style of seam
// FedML's topology-neutral comm layer and Nix's daemon/worker protocol
// split argue for. Two backends exist:
//
//   * comm::InMemoryNetwork — the single-process simulation fabric with
//     deterministic fault injection (the test double). Both endpoints of
//     every link are played by the caller; like the socket backends it
//     is hub-and-spoke, every link having rank 0 at one end.
//   * comm::SocketTransport  — one *endpoint's* view of a real Unix-
//     domain-socket federation: rank 0 is the daemon, ranks 1..N-1 are
//     worker processes (see src/comm/socket_transport.hpp).
//
// Everything travels as opaque CRC-framed wire images (the encoded
// comm::Envelope): the transport moves bytes and meters them, and only
// Envelope::try_view decides whether they arrived intact.
//
// Fairness contract for try_recv_any_wire: when several sources have
// messages queued, the lowest source rank is drained first (per-source
// order stays FIFO). Arrival interleaving across ranks is scheduler
// noise on a real transport and container-iteration trivia in memory —
// neither may leak into protocol behavior, so both backends pin the
// same documented order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "src/comm/faults.hpp"
#include "src/comm/message.hpp"

namespace fedcav::comm {

struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  /// Accumulated simulated transfer time (latency + bytes/bandwidth
  /// + injected jitter + retry backoff).
  double simulated_seconds = 0.0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Endpoint count including the server (rank 0).
  virtual std::size_t num_endpoints() const = 0;

  /// Tell the transport which communication round is in progress
  /// (1-based); the in-memory fabric evaluates crash windows against it.
  virtual void begin_round(std::size_t round) = 0;

  /// Deliver `env` from `src` to `dst`. A real transport requires `src`
  /// to be the local rank and never throws on a dead peer — the bytes
  /// are metered (transmission was attempted) and the peer is marked
  /// closed, surfacing through peer_closed() instead of an exception.
  virtual void send(std::size_t src, std::size_t dst, const Envelope& env) = 0;

  /// Deliver `env` from its pre-encoded image (`image` holds
  /// env.encode()), so a message sent to many ranks is encoded once. The
  /// in-memory fabric queues the shared image itself. The default sends
  /// `env`: a backend or decorator that overrides only send() still
  /// sees every message.
  virtual void send_image(std::size_t src, std::size_t dst, const Envelope& env,
                          const WireImage& image) {
    (void)image;
    send(src, dst, env);
  }

  /// Pop the oldest undelivered wire image queued for `dst` from `src`,
  /// if any (possibly corrupted or truncated in flight). Non-blocking.
  virtual std::optional<ByteBuffer> try_recv_wire(std::size_t dst,
                                                  std::size_t src) = 0;

  /// try_recv_wire as a shared image, null when nothing is queued. The
  /// in-memory fabric hands out its queued image without copying it.
  /// The default moves try_recv_wire's buffer into the image, so a
  /// decorator that overrides only try_recv_wire still sees every
  /// receive.
  virtual WireImage try_recv_image(std::size_t dst, std::size_t src) {
    std::optional<ByteBuffer> wire = try_recv_wire(dst, src);
    if (!wire.has_value()) return nullptr;
    return std::make_shared<const ByteBuffer>(std::move(*wire));
  }

  /// Pop the oldest wire image queued for `dst` from the lowest source
  /// rank that has one (the fairness contract above); the source rank is
  /// written to `src_out`. Non-blocking.
  virtual std::optional<ByteBuffer> try_recv_any_wire(std::size_t dst,
                                                      std::size_t* src_out) = 0;

  /// Charge `seconds` of extra simulated time to the (src, dst) link —
  /// the retry protocol's exponential backoff goes through this.
  virtual void add_link_delay(std::size_t src, std::size_t dst,
                              double seconds) = 0;

  /// Outbound traffic of `endpoint`, as observed by this transport. The
  /// in-memory fabric meters at send time; a socket endpoint meters its
  /// own sends at send time and every peer's at frame-receive time, so
  /// a fully drained daemon reports the same totals either way.
  virtual TrafficStats stats(std::size_t endpoint) const = 0;
  virtual TrafficStats total_stats() const = 0;

  /// Fault-injection accounting; all zero for backends that never
  /// inject (the socket transport — DESIGN.md §14 lists which fault
  /// axes apply per backend).
  virtual FaultStats fault_stats() const { return FaultStats{}; }

  /// Deterministic transfer-time model (latency + bytes/bandwidth) used
  /// by the retry protocol's simulated deadline accounting.
  virtual double model_transfer_seconds(std::size_t bytes) const = 0;

  /// Number of undelivered wire images currently queued.
  virtual std::size_t pending_messages() const = 0;

  /// Mirror traffic totals into the obs metrics registry. No-op while
  /// telemetry is disabled.
  virtual void publish_metrics() const {}

  /// True when no message from `rank` can ever arrive again: the
  /// connection is gone AND nothing remains queued or partially framed.
  /// The in-memory fabric always returns false (its crash simulation is
  /// a FaultPlan feature); the round loop turns a true here into a
  /// dropout instead of waiting out the receive timeout.
  virtual bool peer_closed(std::size_t rank) const {
    (void)rank;
    return false;
  }

  /// Block up to `timeout_s` for new frames to arrive and ingest them.
  /// No-op for the in-memory fabric, where send() enqueues directly.
  virtual void poll(double timeout_s) { (void)timeout_s; }
};

}  // namespace fedcav::comm
