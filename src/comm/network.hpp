// In-memory message-passing fabric with deterministic fault injection.
//
// Interface follows the message-passing idiom from the HPC guides:
// explicit send/recv between integer-ranked endpoints, with per-link
// byte and message counters and a simple latency model (fixed
// per-message latency + bytes/bandwidth). The topology is hub-and-spoke,
// like the stream transports': every link has the server (rank 0) at one
// end, so the fabric keeps two links per client — its downlink and its
// uplink — and its state is linear in the endpoint count. The simulated
// clock makes communication-cost experiments deterministic and
// machine-independent.
//
// Messages are stored as encoded wire images so the configured
// FaultPlan can act on real bytes: drop, duplicate, reorder, flip a
// bit, cut a suffix, add latency jitter, or black-hole traffic for
// crashed endpoints (see src/comm/faults.hpp). Fault decisions come
// from per-link RNG streams, so a chaos run is reproducible with any
// thread-pool size. Queued images are immutable and shared: send_image()
// queues the caller's image on the link as is (a round's downlink is
// one image however many links carry it), and a corrupt or truncate
// fault acts on a private copy. Receivers pop the image itself with
// try_recv_image() and validate it in place via Envelope::try_view.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "src/comm/faults.hpp"
#include "src/comm/message.hpp"
#include "src/comm/transport.hpp"
#include "src/utils/rng.hpp"

namespace fedcav::comm {

struct NetworkConfig {
  std::size_t num_endpoints = 2;  // server + clients
  /// Fixed per-message latency (seconds of simulated time).
  double latency_s = 0.01;
  /// Link bandwidth in bytes/second for the transfer-time model.
  double bandwidth_bytes_per_s = 1.25e6;  // ~10 Mbit/s edge uplink
  /// Fault injection; default-constructed = perfect channel.
  FaultPlan faults;
};

class InMemoryNetwork final : public Transport {
 public:
  explicit InMemoryNetwork(NetworkConfig config);

  std::size_t num_endpoints() const override { return config_.num_endpoints; }

  /// Tell the fabric which communication round is in progress (1-based);
  /// crash windows are evaluated against this value.
  void begin_round(std::size_t round) override;

  /// Deliver `env` from `src` to `dst` (enqueued immediately; the
  /// simulated clock advances by the modeled transfer time). The sender
  /// is metered even when the fault layer then loses the message. Throws
  /// fedcav::Error unless exactly one end of the link is rank 0.
  void send(std::size_t src, std::size_t dst, const Envelope& env) override;
  /// send(), queueing `image` itself instead of encoding `env` again.
  /// Faults draw from the link's stream exactly as send() does.
  void send_image(std::size_t src, std::size_t dst, const Envelope& env,
                  const WireImage& image) override;

  /// Pop the oldest message queued for `dst` from `src`, if any, as the
  /// queued image (possibly corrupted or truncated in flight), uncopied.
  WireImage try_recv_image(std::size_t dst, std::size_t src) override;
  /// try_recv_image, copied out into a buffer of the caller's own.
  std::optional<ByteBuffer> try_recv_wire(std::size_t dst, std::size_t src) override;

  /// Pop the oldest message queued for `dst` from the lowest-ranked
  /// source that has one (the Transport fairness contract — never the
  /// inbox's arrival interleaving); the source rank is written to
  /// `src_out`. Copies the image out, like try_recv_wire.
  std::optional<ByteBuffer> try_recv_any_wire(std::size_t dst,
                                              std::size_t* src_out) override;

  /// Charge `seconds` of extra simulated time to the (src, dst) link —
  /// the retry protocol's exponential backoff goes through this. Same
  /// link rule as send().
  void add_link_delay(std::size_t src, std::size_t dst, double seconds) override;

  /// Per-endpoint outbound traffic accounting: a client's uplink, or the
  /// server's downlinks summed in rank order. total_stats() sums the
  /// downlinks, then the uplinks, each in rank order — a fixed order, so
  /// even the float totals are deterministic.
  TrafficStats stats(std::size_t endpoint) const override;
  TrafficStats total_stats() const override;

  /// Fabric-wide fault accounting (all zero when the plan is inert).
  FaultStats fault_stats() const override;

  /// Number of undelivered messages in the whole fabric.
  std::size_t pending_messages() const override;

  /// Mirror the fabric-wide totals into the obs metrics registry
  /// (comm.bytes_sent / comm.messages_sent / comm.simulated_seconds /
  /// comm.pending_messages gauges, plus comm.fault.* gauges when a
  /// fault plan is active). No-op while telemetry is disabled.
  void publish_metrics() const override;

  double model_transfer_seconds(std::size_t bytes) const override;

  /// Serialize / restore the fabric's mutable state: the current round,
  /// every per-link fault RNG stream, all in-flight wire images, the
  /// per-link traffic counters and the fabric-wide FaultStats — two
  /// links per client.
  /// Checkpoints embed this so a resumed chaos run replays the exact
  /// fault sequence, including stale duplicates still in the queues, with
  /// the conservation invariant intact (a layout without the accounting
  /// broke it — see tests/chaos_seeds/resume_stats_conservation.plan).
  /// load_state throws fedcav::Error on an endpoint-count or fault-plan
  /// mismatch and on a malformed snapshot.
  void save_state(ByteBuffer& buf) const;
  void load_state(ByteReader& reader);

 private:
  struct Queued {
    std::size_t src;
    WireImage wire;
  };

  /// Slot of the (src, dst) link in link_stats_ and link_rng_: the
  /// downlinks 0 → k in rank order, then the uplinks k → 0. Throws on an
  /// endpoint out of range or a link without rank 0 at exactly one end.
  std::size_t link_index(std::size_t src, std::size_t dst) const;
  /// Meter `wire` on the (src, dst) link, apply the fault plan and queue
  /// what survives. Takes the lock.
  void deliver(std::size_t src, std::size_t dst, WireImage wire);
  /// Append `wire` to dst's inbox; with `reorder`, let it overtake the
  /// most recent queued same-link message instead. Caller holds mutex_.
  void enqueue(std::size_t src, std::size_t dst, WireImage wire, bool reorder);

  NetworkConfig config_;
  std::vector<std::deque<Queued>> inboxes_;  // per destination
  std::vector<TrafficStats> link_stats_;     // per link, see link_index
  std::vector<Rng> link_rng_;                // per-link fault streams
  FaultStats fault_stats_;
  std::size_t current_round_ = 0;
  mutable std::mutex mutex_;
};

}  // namespace fedcav::comm
