#include "src/fl/protocol.hpp"

#include <limits>

#include "src/fl/client.hpp"
#include "src/fl/server.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/utils/error.hpp"

namespace fedcav::fl {

namespace {

using comm::MessageType;

/// Wall-clock slice of one remote wait before peer_closed and the phase
/// deadline are checked again (poll returns early when frames arrive).
constexpr double kPollSeconds = 0.05;

// The wire codec's message pairing: dense f32, or quantized under
// ServerConfig::quant.
MessageType downlink_type(comm::QuantMode quant) {
  return quant == comm::QuantMode::kNone ? MessageType::kGlobalModel
                                         : MessageType::kQuantGlobalModel;
}
MessageType report_type(comm::QuantMode quant) {
  return quant == comm::QuantMode::kNone ? MessageType::kClientReport
                                         : MessageType::kQuantReport;
}

comm::Envelope nack(std::size_t round, MessageType expected) {
  comm::NackMsg msg;
  msg.round = round;
  msg.expected = expected;
  return comm::Envelope{MessageType::kNack, msg.encode()};
}

/// Feeds comm.bytes_saved: the payload bytes the dense f32 protocol would
/// have used for `dim` weights plus `scalar_bytes` of header scalars (the
/// write_f32_span framing is 8 bytes of length), minus what was sent.
void count_bytes_saved(std::size_t dim, std::size_t scalar_bytes, std::size_t actual) {
  if (!obs::enabled()) return;
  static obs::Counter& saved = obs::registry().counter("comm.bytes_saved");
  const std::size_t dense = scalar_bytes + 8 + 4 * dim;
  if (dense > actual) saved.add(dense - actual);
}

/// False (and deadline_missed set) once the exchange ran past the
/// simulated uplink deadline (0 = none).
bool within_deadline(double deadline_s, ParticipantOutcome& out) {
  out.deadline_missed = deadline_s > 0.0 && out.elapsed_s > deadline_s;
  return !out.deadline_missed;
}

/// A report's scalars (ClientReportMsg and QuantReportMsg share them).
template <typename Msg>
Msg report_scalars(std::size_t round, std::size_t client_id, const ClientUpdate& update) {
  Msg msg;
  msg.round = round;
  msg.client_id = client_id;
  msg.num_samples = update.num_samples;
  msg.inference_loss = update.inference_loss;
  return msg;
}

/// Hand one CRC-clean envelope to `handle`: true once accepted. kStale,
/// and a payload whose decode throws, count as stale_discards.
bool offer(const comm::Envelope& env, ParticipantOutcome& counters, const Handler& handle) {
  Take take = Take::kStale;  // also a CRC-valid but malformed payload
  try {
    take = handle(env);
  } catch (const Error&) {
  }
  // Stale: wrong round, type or sender — duplicates, late NACKs.
  if (take == Take::kStale) counters.stale_discards += 1;
  return take == Take::kAccept;
}

/// The drain helper: pop the wire images queued at `dst` from `src` until
/// `handle` accepts one (true) or the link runs dry (false). A damaged
/// image counts as a crc_failure and calls `on_damaged` (if set).
bool drain(comm::Transport& transport, std::size_t dst, std::size_t src,
           ParticipantOutcome& counters, const Handler& handle,
           const std::function<void()>& on_damaged = nullptr) {
  while (std::optional<ByteBuffer> wire = transport.try_recv_wire(dst, src)) {
    const std::optional<comm::Envelope> env = comm::Envelope::try_decode(*wire);
    if (!env.has_value()) {
      counters.crc_failures += 1;  // corrupted or truncated in flight
      if (on_damaged) on_damaged();
      continue;
    }
    if (offer(*env, counters, handle)) return true;
  }
  return false;
}

/// The remote waiting policy: drain, and while nothing is accepted poll
/// the transport for more frames. False once `src` closed or more than
/// `timeout_s` passed on `since`.
bool await(comm::Transport& transport, std::size_t dst, std::size_t src,
           ParticipantOutcome& counters, const Handler& handle,
           const std::function<void()>& on_damaged, const Stopwatch& since,
           double timeout_s) {
  for (;;) {
    if (drain(transport, dst, src, counters, handle, on_damaged)) return true;
    // Nothing queued: a closed peer can never answer; a live one may
    // until the deadline.
    if (transport.peer_closed(src) || since.seconds() > timeout_s) return false;
    transport.poll(kPollSeconds);
  }
}

}  // namespace

// ------------------------------------------------------------ client end

Take ClientEndpoint::take_downlink(const comm::Envelope& env,
                                   std::optional<Downlink>& out,
                                   std::size_t round) const {
  if (env.type != downlink_type(config_.quant)) return Take::kStale;
  ByteReader reader(env.payload);
  // A quantized downlink decodes to exactly the server's in-place
  // dequantized reference: the codec is deterministic and the CRC
  // already proved the wire intact.
  if (config_.quant != comm::QuantMode::kNone) {
    comm::QuantGlobalModelMsg msg = comm::QuantGlobalModelMsg::decode(reader);
    if (round != 0 && msg.round != round) return Take::kStale;
    out = Downlink{msg.round, comm::dequantize(msg.model)};
  } else {
    comm::GlobalModelMsg msg = comm::GlobalModelMsg::decode(reader);
    if (round != 0 && msg.round != round) return Take::kStale;
    out = Downlink{msg.round, std::move(msg.weights)};
  }
  return Take::kAccept;
}

comm::Envelope ClientEndpoint::metadata(std::size_t round, double inference_loss) const {
  comm::MetadataMsg meta;
  meta.round = round;
  meta.client_id = client_.id();
  meta.num_samples = client_.num_samples();
  meta.inference_loss = inference_loss;
  return comm::Envelope{MessageType::kMetadataReport, meta.encode()};
}

comm::Envelope ClientEndpoint::report(std::size_t round, ClientUpdate update,
                                      const nn::Weights& reference) {
  if (config_.quant == comm::QuantMode::kNone) {
    auto up = report_scalars<comm::ClientReportMsg>(round, client_.id(), update);
    up.weights = std::move(update.weights);
    return comm::Envelope{MessageType::kClientReport, up.encode()};
  }
  auto up = report_scalars<comm::QuantReportMsg>(round, client_.id(), update);
  up.delta = client_.encode_quantized_update(update.weights, reference, config_.quant,
                                             config_.quant_keep);
  count_bytes_saved(reference.size(), 32, 32 + up.delta.wire_size());
  return comm::Envelope{MessageType::kQuantReport, up.encode()};
}

std::optional<Downlink> ClientEndpoint::next_downlink() {
  std::optional<Downlink> down;
  const auto resend = [&](const comm::Envelope& cached) {
    if (!cached.payload.empty()) transport_.send(rank_, kServerRank, cached);
  };
  const Handler handle = [&](const comm::Envelope& env) {
    if (env.type == MessageType::kNack) {
      ByteReader reader(env.payload);
      const bool wants_metadata =
          comm::NackMsg::decode(reader).expected == MessageType::kMetadataReport;
      resend(wants_metadata && !metadata_.payload.empty() ? metadata_ : report_);
      return Take::kAnswered;
    }
    const Take take = take_downlink(env, down);
    if (take != Take::kAccept || down->round != round_) return take;
    // Duplicate downlink (a server retransmit raced our uplinks).
    resend(metadata_);
    resend(report_);
    return Take::kAnswered;
  };
  const auto nack_damaged = [&] {
    transport_.send(rank_, kServerRank, nack(round_ + 1, downlink_type(config_.quant)));
  };
  ParticipantOutcome ignored;
  if (!await(transport_, rank_, kServerRank, ignored, handle, nack_damaged, Stopwatch{},
             std::numeric_limits<double>::infinity())) {
    return std::nullopt;
  }
  round_ = down->round;
  // A stale uplink must not answer this round's NACKs (a straggled round
  // never sends a report).
  metadata_ = comm::Envelope{};
  report_ = comm::Envelope{};
  return down;
}

void ClientEndpoint::send_metadata(double inference_loss) {
  metadata_ = metadata(round_, inference_loss);
  transport_.send(rank_, kServerRank, metadata_);
}

void ClientEndpoint::send_report(ClientUpdate update, const nn::Weights& reference) {
  report_ = report(round_, std::move(update), reference);
  transport_.send(rank_, kServerRank, report_);
}

// ------------------------------------------------------------ server end

void ServerEndpoint::begin_round(std::size_t round, nn::Weights& global) {
  round_ = round;
  reference_ = &global;
  early_reports_.clear();
  if (config_.quant != comm::QuantMode::kNone) {
    comm::QuantGlobalModelMsg down;
    down.round = round;
    down.model = comm::quantize(global, config_.quant);
    global = comm::dequantize(down.model);
    count_bytes_saved(global.size(), 8, 8 + down.model.wire_size());
    if (transport_ != nullptr) {
      downlink_ = comm::Envelope{MessageType::kQuantGlobalModel, down.encode()};
    }
  } else if (transport_ != nullptr) {
    comm::GlobalModelMsg down;
    down.round = round;
    down.weights = global;
    downlink_ = comm::Envelope{MessageType::kGlobalModel, down.encode()};
  }
}

void ServerEndpoint::begin_phase(const std::vector<std::size_t>& clients) {
  phase_watch_.reset();
  if (!remote_) return;
  for (const std::size_t client : clients) transport_->send(kServerRank, client + 1, downlink_);
}

ParticipantOutcome ServerEndpoint::exchange_metadata(
    std::size_t rank, Client& client,
    const std::function<double(const nn::Weights&)>& loss) const {
  obs::Span span("participant", "client");
  span.arg("client", static_cast<double>(rank - 1));
  ParticipantOutcome out;
  std::optional<ClientUpdate> meta;
  const Handler take = [&](const comm::Envelope& env) {
    if (env.type != MessageType::kMetadataReport) return Take::kStale;
    ByteReader reader(env.payload);
    const comm::MetadataMsg msg = comm::MetadataMsg::decode(reader);
    // A rank speaks only for its own client.
    if (msg.round != round_ || msg.client_id != client.id()) return Take::kStale;
    meta = ClientUpdate{client.id(), {}, msg.inference_loss, msg.num_samples};
    return Take::kAccept;
  };
  if (transport_ == nullptr) {
    meta = ClientUpdate{client.id(), {}, loss(*reference_), client.num_samples()};
  } else if (remote_) {
    // begin_phase broadcast the downlink; its transfer time is still
    // part of this participant's exchange.
    out.elapsed_s += transport_->model_transfer_seconds(downlink_.wire_size());
    if (!await_uplink(rank, MessageType::kMetadataReport, take, out)) return out;
  } else {
    // The downlink copy is sent here, not at broadcast time, so the
    // fabric holds O(workers) wire images of the model, not O(cohort).
    ClientEndpoint peer(*transport_, rank, client, config_);
    std::optional<Downlink> down;
    const Handler take_down = [&](const comm::Envelope& env) {
      return peer.take_downlink(env, down, round_);
    };
    if (!transfer(kServerRank, rank, downlink_, take_down, out)) return out;
    const double f_i = loss(down->weights);
    down.reset();  // phase ② trains from the bit-equal server reference
    if (!transfer(rank, kServerRank, peer.metadata(round_, f_i), take, out)) return out;
  }
  if (within_deadline(config_.uplink_deadline_s, out)) out.metadata = std::move(meta);
  return out;
}

std::optional<ClientUpdate> ServerEndpoint::exchange_report(
    std::size_t rank, Client& client, const std::function<ClientUpdate()>& train,
    ParticipantOutcome& counters) const {
  obs::Span span("participant", "client");
  span.arg("client", static_cast<double>(rank - 1));
  std::optional<ClientUpdate> report;
  const Handler take = [&](const comm::Envelope& env) {
    if (env.type != report_type(config_.quant)) return Take::kStale;
    ByteReader reader(env.payload);
    if (config_.quant != comm::QuantMode::kNone) {
      const comm::QuantReportMsg msg = comm::QuantReportMsg::decode(reader);
      if (msg.round != round_ || msg.client_id != client.id()) return Take::kStale;
      // Reconstructed against w̃_t per slot, so the fold downstream sees
      // dense weights and stays independent of the worker count.
      nn::Weights weights = *reference_;
      comm::dequantize_add(weights, msg.delta);  // throws on a wrong size
      report = ClientUpdate{client.id(), std::move(weights), msg.inference_loss,
                            msg.num_samples};
      return Take::kAccept;
    }
    comm::ClientReportMsg msg = comm::ClientReportMsg::decode(reader);
    // Never aggregated under another client's identity or model size.
    if (msg.round != round_ || msg.client_id != client.id() ||
        msg.weights.size() != reference_->size()) {
      return Take::kStale;
    }
    report = ClientUpdate{client.id(), std::move(msg.weights), msg.inference_loss,
                          msg.num_samples};
    return Take::kAccept;
  };
  if (transport_ == nullptr) {
    report = train();
    if (config_.quant != comm::QuantMode::kNone) {
      // Unmetered path: the identical codec transform, so quantization's
      // accuracy effect does not depend on the fabric being in the loop.
      const comm::QuantizedDelta coded = client.encode_quantized_update(
          report->weights, *reference_, config_.quant, config_.quant_keep);
      report->weights = *reference_;
      comm::dequantize_add(report->weights, coded);
    }
    return report;
  }
  if (remote_) {
    // The worker trains unprompted after the downlink.
    if (!await_uplink(rank, report_type(config_.quant), take, counters)) return std::nullopt;
  } else {
    ClientEndpoint peer(*transport_, rank, client, config_);
    if (!transfer(rank, kServerRank, peer.report(round_, train(), *reference_), take,
                  counters)) {
      return std::nullopt;
    }
  }
  if (!within_deadline(config_.uplink_deadline_s, counters)) return std::nullopt;
  return report;
}

bool ServerEndpoint::transfer(std::size_t src, std::size_t dst, const comm::Envelope& env,
                              const Handler& handle, ParticipantOutcome& out) const {
  for (std::size_t attempt = 0;; ++attempt) {
    transport_->send(src, dst, env);
    out.elapsed_s += transport_->model_transfer_seconds(env.wire_size());
    if (drain(*transport_, dst, src, out, handle)) return true;
    if (attempt == config_.max_retries) return false;  // link exhausted
    const comm::Envelope nack_env = nack(round_, env.type);
    transport_->send(dst, src, nack_env);
    out.elapsed_s += transport_->model_transfer_seconds(nack_env.wire_size());
    const double backoff = config_.retry_backoff_s * static_cast<double>(1ULL << attempt);
    transport_->add_link_delay(src, dst, backoff);
    out.elapsed_s += backoff;
    out.retries += 1;
  }
}

bool ServerEndpoint::await_uplink(std::size_t rank, MessageType expected,
                                  const Handler& take, ParticipantOutcome& out) const {
  const auto retransmit = [&](const comm::Envelope& env) {
    if (out.retries >= config_.max_retries) return;
    transport_->send(kServerRank, rank, env);
    out.retries += 1;
  };
  const Handler handle = [&](const comm::Envelope& env) {
    if (env.type == MessageType::kNack) {
      retransmit(downlink_);  // the worker lost or rejected the downlink
      return Take::kAnswered;
    }
    // This round's report overtook a metadata frame that must be resent
    // (the worker trains unprompted): keep it for phase ②. Every message
    // encodes its round first.
    if (expected == MessageType::kMetadataReport &&
        env.type == report_type(config_.quant) &&
        ByteReader(env.payload).read_u64() == round_ &&
        early_reports_.try_emplace(rank, env).second) {
      return Take::kAnswered;
    }
    const Take result = take(env);
    if (result == Take::kAccept) {
      out.elapsed_s += transport_->model_transfer_seconds(env.wire_size());
    }
    return result;
  };
  const auto held = early_reports_.extract(rank);
  if (!held.empty() && offer(held.mapped(), out, handle)) return true;
  return await(*transport_, kServerRank, rank, out, handle,
               [&] { retransmit(nack(round_, expected)); }, phase_watch_,
               config_.remote_recv_timeout_s);
}

}  // namespace fedcav::fl
