#include "src/comm/network.hpp"

#include <algorithm>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/utils/error.hpp"

namespace fedcav::comm {

namespace {

/// Stable per-link seed derivation: two splitmix64 steps fold the plan
/// seed with the link coordinates so adjacent links get unrelated
/// streams.
std::uint64_t link_seed(std::uint64_t plan_seed, std::size_t src, std::size_t dst) {
  std::uint64_t state = plan_seed ^ (0x9e3779b97f4a7c15ULL * (src + 1));
  splitmix64(state);
  state ^= 0xbf58476d1ce4e5b9ULL * (dst + 1);
  return splitmix64(state);
}

}  // namespace

InMemoryNetwork::InMemoryNetwork(NetworkConfig config) : config_(config) {
  FEDCAV_REQUIRE(config.num_endpoints >= 2, "InMemoryNetwork: need server + >=1 client");
  FEDCAV_REQUIRE(config.bandwidth_bytes_per_s > 0.0, "InMemoryNetwork: zero bandwidth");
  config_.faults.validate(config_.num_endpoints);
  const std::size_t n = config_.num_endpoints;
  inboxes_.resize(n);
  link_stats_.resize(n * n);
  if (config_.faults.enabled()) {
    link_rng_.reserve(n * n);
    for (std::size_t src = 0; src < n; ++src) {
      for (std::size_t dst = 0; dst < n; ++dst) {
        link_rng_.emplace_back(link_seed(config_.faults.seed, src, dst));
      }
    }
  }
}

void InMemoryNetwork::begin_round(std::size_t round) {
  std::lock_guard<std::mutex> lock(mutex_);
  current_round_ = round;
}

double InMemoryNetwork::model_transfer_seconds(std::size_t bytes) const {
  return config_.latency_s + static_cast<double>(bytes) / config_.bandwidth_bytes_per_s;
}

void InMemoryNetwork::enqueue(std::size_t src, std::size_t dst, ByteBuffer wire,
                              bool reorder) {
  auto& inbox = inboxes_[dst];
  if (reorder) {
    // Overtake: slot the new image in front of the most recent message
    // still queued on the same link, if one exists.
    for (auto it = inbox.rbegin(); it != inbox.rend(); ++it) {
      if (it->src == src) {
        inbox.insert(std::prev(it.base()), Queued{src, std::move(wire)});
        fault_stats_.reordered += 1;
        return;
      }
    }
  }
  inbox.push_back(Queued{src, std::move(wire)});
}

void InMemoryNetwork::send(std::size_t src, std::size_t dst, const Envelope& env) {
  FEDCAV_REQUIRE(src < config_.num_endpoints && dst < config_.num_endpoints,
                 "InMemoryNetwork::send: endpoint out of range");
  FEDCAV_REQUIRE(src != dst, "InMemoryNetwork::send: self-send");
  std::lock_guard<std::mutex> lock(mutex_);
  ByteBuffer wire = env.encode();
  // The sender is metered unconditionally: transmission happened even
  // if the fault layer then loses or mangles the image in flight.
  TrafficStats& link = link_stats_[link_index(src, dst)];
  link.messages_sent += 1;
  link.bytes_sent += wire.size();
  link.simulated_seconds += model_transfer_seconds(wire.size());
  const FaultPlan& plan = config_.faults;
  if (!plan.enabled()) {
    enqueue(src, dst, std::move(wire), /*reorder=*/false);
    return;
  }
  if (plan.offline(src, current_round_) || plan.offline(dst, current_round_)) {
    fault_stats_.crash_dropped += 1;
    return;
  }
  // Fixed decision order per message — jitter, drop, duplicate,
  // corrupt, truncate, reorder — keeps each link's RNG stream aligned
  // across runs regardless of what fires.
  Rng& rng = link_rng_[link_index(src, dst)];
  if (plan.jitter_s > 0.0) {
    const double extra = rng.uniform(0.0, plan.jitter_s);
    link.simulated_seconds += extra;
    fault_stats_.jitter_seconds += extra;
  }
  if (plan.drop_prob > 0.0 && rng.bernoulli(plan.drop_prob)) {
    fault_stats_.dropped += 1;
    return;
  }
  bool duplicate = false;
  if (plan.duplicate_prob > 0.0 && rng.bernoulli(plan.duplicate_prob)) {
    fault_stats_.duplicated += 1;
    duplicate = true;
  }
  if (plan.corrupt_prob > 0.0 && !wire.empty() && rng.bernoulli(plan.corrupt_prob)) {
    const std::size_t byte = static_cast<std::size_t>(rng.uniform_int(wire.size()));
    wire[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    fault_stats_.corrupted += 1;
  }
  if (plan.truncate_prob > 0.0 && !wire.empty() && rng.bernoulli(plan.truncate_prob)) {
    wire.resize(static_cast<std::size_t>(rng.uniform_int(wire.size())));
    fault_stats_.truncated += 1;
  }
  const bool reorder =
      plan.reorder_prob > 0.0 && rng.bernoulli(plan.reorder_prob);
  ByteBuffer copy = duplicate ? wire : ByteBuffer{};
  enqueue(src, dst, std::move(wire), reorder);
  // The duplicate trails its original (corruption and all).
  if (duplicate) enqueue(src, dst, std::move(copy), /*reorder=*/false);
}

std::optional<ByteBuffer> InMemoryNetwork::pop_wire(std::size_t dst, std::size_t src) {
  auto& inbox = inboxes_[dst];
  for (auto it = inbox.begin(); it != inbox.end(); ++it) {
    if (it->src == src) {
      ByteBuffer wire = std::move(it->wire);
      inbox.erase(it);
      fault_stats_.delivered += 1;
      return wire;
    }
  }
  return std::nullopt;
}

std::optional<ByteBuffer> InMemoryNetwork::try_recv_wire(std::size_t dst,
                                                         std::size_t src) {
  FEDCAV_REQUIRE(dst < config_.num_endpoints, "InMemoryNetwork::try_recv_wire: bad endpoint");
  std::lock_guard<std::mutex> lock(mutex_);
  return pop_wire(dst, src);
}

std::optional<Envelope> InMemoryNetwork::try_recv(std::size_t dst, std::size_t src) {
  std::optional<ByteBuffer> wire = try_recv_wire(dst, src);
  if (!wire.has_value()) return std::nullopt;
  return Envelope::decode(*wire);
}

std::optional<ByteBuffer> InMemoryNetwork::try_recv_any_wire(std::size_t dst,
                                                             std::size_t* src_out) {
  FEDCAV_REQUIRE(dst < config_.num_endpoints,
                 "InMemoryNetwork::try_recv_any_wire: bad endpoint");
  std::lock_guard<std::mutex> lock(mutex_);
  // Fairness contract (transport.hpp): drain the lowest source rank
  // first, never the inbox's arrival interleaving — otherwise a refactor
  // of the queue container (or, on a real transport, OS scheduling)
  // could silently reorder the protocol's view of its peers.
  auto& inbox = inboxes_[dst];
  auto best = inbox.end();
  for (auto it = inbox.begin(); it != inbox.end(); ++it) {
    if (best == inbox.end() || it->src < best->src) best = it;
  }
  if (best == inbox.end()) return std::nullopt;
  ByteBuffer wire = std::move(best->wire);
  if (src_out != nullptr) *src_out = best->src;
  inbox.erase(best);
  fault_stats_.delivered += 1;
  return wire;
}

std::optional<Envelope> InMemoryNetwork::try_recv_any(std::size_t dst, std::size_t* src_out) {
  std::optional<ByteBuffer> wire = try_recv_any_wire(dst, src_out);
  if (!wire.has_value()) return std::nullopt;
  return Envelope::decode(*wire);
}

void InMemoryNetwork::broadcast(std::size_t src, const Envelope& env) {
  for (std::size_t dst = 0; dst < config_.num_endpoints; ++dst) {
    if (dst != src) send(src, dst, env);
  }
}

void InMemoryNetwork::add_link_delay(std::size_t src, std::size_t dst, double seconds) {
  FEDCAV_REQUIRE(src < config_.num_endpoints && dst < config_.num_endpoints,
                 "InMemoryNetwork::add_link_delay: endpoint out of range");
  std::lock_guard<std::mutex> lock(mutex_);
  link_stats_[link_index(src, dst)].simulated_seconds += seconds;
}

TrafficStats InMemoryNetwork::stats(std::size_t endpoint) const {
  FEDCAV_REQUIRE(endpoint < config_.num_endpoints, "InMemoryNetwork::stats: bad endpoint");
  std::lock_guard<std::mutex> lock(mutex_);
  TrafficStats total;
  for (std::size_t dst = 0; dst < config_.num_endpoints; ++dst) {
    const TrafficStats& s = link_stats_[link_index(endpoint, dst)];
    total.messages_sent += s.messages_sent;
    total.bytes_sent += s.bytes_sent;
    total.simulated_seconds += s.simulated_seconds;
  }
  return total;
}

TrafficStats InMemoryNetwork::total_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TrafficStats total;
  for (const auto& s : link_stats_) {
    total.messages_sent += s.messages_sent;
    total.bytes_sent += s.bytes_sent;
    total.simulated_seconds += s.simulated_seconds;
  }
  return total;
}

void InMemoryNetwork::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& s : link_stats_) s = TrafficStats{};
  fault_stats_ = FaultStats{};
}

FaultStats InMemoryNetwork::fault_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fault_stats_;
}

void InMemoryNetwork::publish_metrics() const {
  if (!obs::enabled()) return;
  const TrafficStats total = total_stats();
  auto& reg = obs::registry();
  reg.gauge("comm.bytes_sent").set(static_cast<double>(total.bytes_sent));
  reg.gauge("comm.messages_sent").set(static_cast<double>(total.messages_sent));
  reg.gauge("comm.simulated_seconds").set(total.simulated_seconds);
  reg.gauge("comm.pending_messages").set(static_cast<double>(pending_messages()));
  if (config_.faults.enabled()) {
    const FaultStats f = fault_stats();
    reg.gauge("comm.fault.dropped").set(static_cast<double>(f.dropped));
    reg.gauge("comm.fault.crash_dropped").set(static_cast<double>(f.crash_dropped));
    reg.gauge("comm.fault.duplicated").set(static_cast<double>(f.duplicated));
    reg.gauge("comm.fault.reordered").set(static_cast<double>(f.reordered));
    reg.gauge("comm.fault.corrupted").set(static_cast<double>(f.corrupted));
    reg.gauge("comm.fault.truncated").set(static_cast<double>(f.truncated));
    reg.gauge("comm.fault.delivered").set(static_cast<double>(f.delivered));
    reg.gauge("comm.fault.jitter_seconds").set(f.jitter_seconds);
  }
}

std::size_t InMemoryNetwork::pending_messages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& inbox : inboxes_) n += inbox.size();
  return n;
}

void InMemoryNetwork::save_state(ByteBuffer& buf) const {
  std::lock_guard<std::mutex> lock(mutex_);
  write_u64(buf, current_round_);
  write_u64(buf, config_.num_endpoints);
  write_u64(buf, link_rng_.size());
  for (const Rng& rng : link_rng_) write_rng_state(buf, rng.state());
  for (const auto& inbox : inboxes_) {
    write_u64(buf, inbox.size());
    for (const Queued& q : inbox) {
      write_u64(buf, q.src);
      write_u64(buf, q.wire.size());
      buf.insert(buf.end(), q.wire.begin(), q.wire.end());
    }
  }
  // The accounting travels with the queues it describes. Without it a
  // resumed fabric reports pending messages that were never "sent",
  // violating sent + duplicated == delivered + dropped + crash_dropped
  // + pending for the rest of the run.
  write_u64(buf, link_stats_.size());
  for (const TrafficStats& s : link_stats_) {
    write_u64(buf, s.messages_sent);
    write_u64(buf, s.bytes_sent);
    write_f64(buf, s.simulated_seconds);
  }
  write_u64(buf, fault_stats_.dropped);
  write_u64(buf, fault_stats_.crash_dropped);
  write_u64(buf, fault_stats_.duplicated);
  write_u64(buf, fault_stats_.reordered);
  write_u64(buf, fault_stats_.corrupted);
  write_u64(buf, fault_stats_.truncated);
  write_u64(buf, fault_stats_.delivered);
  write_f64(buf, fault_stats_.jitter_seconds);
}

void InMemoryNetwork::load_state(ByteReader& reader) {
  std::lock_guard<std::mutex> lock(mutex_);
  current_round_ = reader.read_u64();
  const std::uint64_t endpoints = reader.read_u64();
  FEDCAV_REQUIRE(endpoints == config_.num_endpoints,
                 "InMemoryNetwork::load_state: endpoint count mismatch");
  const std::uint64_t rngs = reader.read_u64();
  FEDCAV_REQUIRE(rngs == link_rng_.size(),
                 "InMemoryNetwork::load_state: fault RNG count mismatch "
                 "(checkpoint and config disagree on whether faults are enabled)");
  for (Rng& rng : link_rng_) rng.set_state(read_rng_state(reader));
  for (auto& inbox : inboxes_) {
    inbox.clear();
    const std::uint64_t count = reader.read_u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      Queued q;
      q.src = reader.read_u64();
      FEDCAV_REQUIRE(q.src < config_.num_endpoints,
                     "InMemoryNetwork::load_state: bad queued source");
      const std::uint64_t bytes = reader.read_u64();
      q.wire.resize(bytes);
      for (std::uint64_t b = 0; b < bytes; ++b) q.wire[b] = reader.read_u8();
      inbox.push_back(std::move(q));
    }
  }
  const std::uint64_t links = reader.read_u64();
  FEDCAV_REQUIRE(links == link_stats_.size(),
                 "InMemoryNetwork::load_state: link stats count mismatch");
  for (TrafficStats& s : link_stats_) {
    s.messages_sent = reader.read_u64();
    s.bytes_sent = reader.read_u64();
    s.simulated_seconds = reader.read_f64();
  }
  fault_stats_.dropped = reader.read_u64();
  fault_stats_.crash_dropped = reader.read_u64();
  fault_stats_.duplicated = reader.read_u64();
  fault_stats_.reordered = reader.read_u64();
  fault_stats_.corrupted = reader.read_u64();
  fault_stats_.truncated = reader.read_u64();
  fault_stats_.delivered = reader.read_u64();
  fault_stats_.jitter_seconds = reader.read_f64();
}

}  // namespace fedcav::comm
