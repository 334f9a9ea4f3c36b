// In-memory message-passing fabric with deterministic fault injection.
//
// Interface follows the message-passing idiom from the HPC guides:
// explicit point-to-point send/recv between integer-ranked endpoints
// (rank 0 is the server), with per-link byte and message counters and a
// simple latency model (fixed per-message latency + bytes/bandwidth).
// The simulated clock makes communication-cost experiments deterministic
// and machine-independent.
//
// Messages are stored as encoded wire images so the configured
// FaultPlan can act on real bytes: drop, duplicate, reorder, flip a
// bit, cut a suffix, add latency jitter, or black-hole traffic for
// crashed endpoints (see src/comm/faults.hpp). Fault decisions come
// from per-link RNG streams, so a chaos run is reproducible with any
// thread-pool size. Fault-aware receivers pop raw wire bytes with
// try_recv_wire() and validate via Envelope::try_decode; try_recv()
// remains the strict trusted-fabric path (throws on a damaged image).
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
  /// is metered even when the fault layer then loses the message.
  void send(std::size_t src, std::size_t dst, const Envelope& env) override;

  /// Pop the oldest message queued for `dst` from `src`, if any, as raw
  /// wire bytes (possibly corrupted or truncated in flight).
  std::optional<ByteBuffer> try_recv_wire(std::size_t dst, std::size_t src) override;

  /// Pop the oldest message queued for `dst` from the lowest-ranked
  /// source that has one (the Transport fairness contract — never the
  /// inbox's arrival interleaving); the source rank is written to
  /// `src_out`.
  std::optional<ByteBuffer> try_recv_any_wire(std::size_t dst,
                                              std::size_t* src_out) override;

  /// Strict-decode convenience over try_recv_wire: throws fedcav::Error
  /// if the popped image is damaged. Use only on fault-free fabrics.
  std::optional<Envelope> try_recv(std::size_t dst, std::size_t src);

  /// Strict-decode convenience over try_recv_any_wire (same ascending
  /// source-rank order). Throws fedcav::Error on a damaged image.
  std::optional<Envelope> try_recv_any(std::size_t dst, std::size_t* src_out);

  /// Send to every endpoint except `src` (server broadcast).
  void broadcast(std::size_t src, const Envelope& env);

  /// Charge `seconds` of extra simulated time to the (src, dst) link —
  /// the retry protocol's exponential backoff goes through this.
  void add_link_delay(std::size_t src, std::size_t dst, double seconds) override;

  /// Per-endpoint outbound traffic accounting (sum over its links, in
  /// fixed link order, so even the float total is deterministic).
  TrafficStats stats(std::size_t endpoint) const override;
  TrafficStats total_stats() const override;
  void reset_stats();

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
  /// per-link traffic counters and the fabric-wide FaultStats.
  /// Checkpoints embed this so a resumed chaos run replays the exact
  /// fault sequence, including stale duplicates still in the queues, with
  /// the conservation invariant intact (a layout without the accounting
  /// broke it — see tests/chaos_seeds/resume_stats_conservation.plan).
  /// load_state throws fedcav::Error on endpoint-count mismatch.
  void save_state(ByteBuffer& buf) const;
  void load_state(ByteReader& reader);

 private:
  struct Queued {
    std::size_t src;
    ByteBuffer wire;
  };

  std::size_t link_index(std::size_t src, std::size_t dst) const {
    return src * config_.num_endpoints + dst;
  }
  /// Append `wire` to dst's inbox; with `reorder`, let it overtake the
  /// most recent queued same-link message instead. Caller holds mutex_.
  void enqueue(std::size_t src, std::size_t dst, ByteBuffer wire, bool reorder);
  std::optional<ByteBuffer> pop_wire(std::size_t dst, std::size_t src);

  NetworkConfig config_;
  std::vector<std::deque<Queued>> inboxes_;  // per destination
  std::vector<TrafficStats> link_stats_;     // per (src, dst) link
  std::vector<Rng> link_rng_;                // per (src, dst) fault stream
  FaultStats fault_stats_;
  std::size_t current_round_ = 0;
  mutable std::mutex mutex_;
};

}  // namespace fedcav::comm
