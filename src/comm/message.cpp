#include "src/comm/message.hpp"

#include "src/comm/crc32.hpp"
#include "src/utils/error.hpp"

namespace fedcav::comm {

namespace {

// Whether `tag` names a MessageType: the one check both decoders that
// read a tag off the wire (Envelope and NackMsg) apply.
bool known_type(std::uint64_t tag) {
  switch (static_cast<MessageType>(tag)) {
    case MessageType::kGlobalModel:
    case MessageType::kClientReport:
    case MessageType::kNack:
    case MessageType::kMetadataReport:
    case MessageType::kQuantGlobalModel:
    case MessageType::kQuantReport:
      return true;
  }
  return false;
}

}  // namespace

ByteBuffer GlobalModelMsg::encode() const {
  ByteBuffer buf;
  write_u64(buf, round);
  write_f32_span(buf, weights);
  return buf;
}

GlobalModelMsg GlobalModelMsg::decode(ByteReader& reader) {
  GlobalModelMsg msg;
  msg.round = reader.read_u64();
  msg.weights = reader.read_f32_vector();
  return msg;
}

ByteBuffer ClientReportMsg::encode() const {
  ByteBuffer buf;
  write_u64(buf, round);
  write_u64(buf, client_id);
  write_u64(buf, num_samples);
  write_f64(buf, inference_loss);
  write_f32_span(buf, weights);
  return buf;
}

ClientReportMsg ClientReportMsg::decode(ByteReader& reader) {
  ClientReportMsg msg;
  msg.round = reader.read_u64();
  msg.client_id = reader.read_u64();
  msg.num_samples = reader.read_u64();
  msg.inference_loss = reader.read_f64();
  msg.weights = reader.read_f32_vector();
  return msg;
}

ByteBuffer MetadataMsg::encode() const {
  ByteBuffer buf;
  write_u64(buf, round);
  write_u64(buf, client_id);
  write_u64(buf, num_samples);
  write_f64(buf, inference_loss);
  return buf;
}

MetadataMsg MetadataMsg::decode(ByteReader& reader) {
  MetadataMsg msg;
  msg.round = reader.read_u64();
  msg.client_id = reader.read_u64();
  msg.num_samples = reader.read_u64();
  msg.inference_loss = reader.read_f64();
  return msg;
}

ByteBuffer QuantGlobalModelMsg::encode() const {
  ByteBuffer buf;
  write_u64(buf, round);
  const ByteBuffer body = model.encode();
  buf.insert(buf.end(), body.begin(), body.end());
  return buf;
}

QuantGlobalModelMsg QuantGlobalModelMsg::decode(ByteReader& reader) {
  QuantGlobalModelMsg msg;
  msg.round = reader.read_u64();
  msg.model = QuantizedDelta::decode(reader);
  return msg;
}

ByteBuffer QuantReportMsg::encode() const {
  ByteBuffer buf;
  write_u64(buf, round);
  write_u64(buf, client_id);
  write_u64(buf, num_samples);
  write_f64(buf, inference_loss);
  const ByteBuffer body = delta.encode();
  buf.insert(buf.end(), body.begin(), body.end());
  return buf;
}

QuantReportMsg QuantReportMsg::decode(ByteReader& reader) {
  QuantReportMsg msg;
  msg.round = reader.read_u64();
  msg.client_id = reader.read_u64();
  msg.num_samples = reader.read_u64();
  msg.inference_loss = reader.read_f64();
  msg.delta = QuantizedDelta::decode(reader);
  return msg;
}

ByteBuffer NackMsg::encode() const {
  ByteBuffer buf;
  write_u64(buf, round);
  write_u64(buf, static_cast<std::uint64_t>(expected));
  return buf;
}

NackMsg NackMsg::decode(ByteReader& reader) {
  NackMsg msg;
  msg.round = reader.read_u64();
  const std::uint64_t t = reader.read_u64();
  FEDCAV_REQUIRE(known_type(t), "NackMsg: unknown expected type");
  msg.expected = static_cast<MessageType>(t);
  return msg;
}

ByteBuffer Envelope::encode() const {
  ByteBuffer buf;
  buf.reserve(wire_size());  // the payload is copied once, not again at the CRC append
  write_u64(buf, static_cast<std::uint64_t>(type));
  buf.insert(buf.end(), payload.begin(), payload.end());
  write_u32(buf, crc32({buf.data(), buf.size()}));
  return buf;
}

std::optional<EnvelopeView> Envelope::try_view(std::span<const std::uint8_t> wire) {
  if (wire.size() < kEnvelopeFraming) return std::nullopt;
  const std::size_t body = wire.size() - sizeof(std::uint32_t);
  const std::uint32_t expected = crc32(wire.first(body));
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(wire[body + i]) << (8 * i);
  }
  if (stored != expected) return std::nullopt;
  std::uint64_t t = 0;
  for (int i = 0; i < 8; ++i) t |= static_cast<std::uint64_t>(wire[i]) << (8 * i);
  if (!known_type(t)) return std::nullopt;
  return EnvelopeView{static_cast<MessageType>(t),
                      wire.subspan(sizeof(std::uint64_t), body - sizeof(std::uint64_t))};
}

std::optional<Envelope> Envelope::try_decode(const ByteBuffer& wire) {
  const std::optional<EnvelopeView> view = try_view(wire);
  if (!view.has_value()) return std::nullopt;
  return Envelope{view->type, ByteBuffer(view->payload.begin(), view->payload.end())};
}

Envelope Envelope::decode(const ByteBuffer& wire) {
  std::optional<Envelope> env = try_decode(wire);
  FEDCAV_REQUIRE(env.has_value(), "Envelope: truncated, corrupt, or unknown-type wire");
  return std::move(*env);
}

}  // namespace fedcav::comm
