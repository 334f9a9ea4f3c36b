// Federated protocol messages and their wire encoding.
//
// The protocol mirrors Fig. 3 of the paper:
//   server -> client : GlobalModel      (weights for round t)
//   client -> server : MetadataReport   (inference loss f_i(w_t) +
//                                        sample count)
//   client -> server : ClientReport     (updated weights + the same
//                                        scalars)
// plus the quantized variants of the two weight-carrying messages and a
// NACK for the retry protocol. The detector's reverse is server-side (the
// next broadcast carries the reversed model), so no message announces it.
// Every message serializes to a byte buffer through src/tensor/serialize
// so the network can meter exact payload sizes — this is how the
// overhead bench verifies the paper's "one extra float per client" claim.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/comm/compression.hpp"
#include "src/tensor/serialize.hpp"

namespace fedcav::comm {

enum class MessageType : std::uint64_t {
  kGlobalModel = 1,
  kClientReport = 2,
  // 3 is retired (an older control message) and rejected on decode.
  /// Receiver-side "resend" request: the expected message was missing,
  /// failed its CRC, or arrived truncated. Part of the fault-tolerant
  /// retry protocol (see DESIGN.md §10).
  kNack = 4,
  /// Scalar-only client report (sample count + inference loss, no
  /// weights) sent in the metadata phase of a round. The server computes
  /// aggregation weights γ from these before any full report is
  /// materialized, which is what makes streaming aggregation possible
  /// (see DESIGN.md §11).
  kMetadataReport = 5,
  /// Quantized downlink: the full global model as a QuantizedDelta
  /// against zero (see src/comm/compression.hpp). Replaces kGlobalModel
  /// when the server runs with quant != none.
  kQuantGlobalModel = 6,
  /// Quantized uplink: the client's weight *delta* against the
  /// dequantized broadcast, with error feedback accumulating what the
  /// code dropped into the next round's delta.
  kQuantReport = 7,
};

struct GlobalModelMsg {
  std::uint64_t round = 0;
  std::vector<float> weights;

  ByteBuffer encode() const;
  static GlobalModelMsg decode(ByteReader& reader);
};

struct ClientReportMsg {
  std::uint64_t round = 0;
  std::uint64_t client_id = 0;
  std::uint64_t num_samples = 0;
  /// Inference loss f_i(w_t) of the *global* model on local data,
  /// computed before local training (Algorithm 2 line 2). This is the
  /// single extra float FedCav adds to the FedAvg payload.
  double inference_loss = 0.0;
  std::vector<float> weights;

  ByteBuffer encode() const;
  static ClientReportMsg decode(ByteReader& reader);
};

/// Phase-① report: the scalars of ClientReportMsg without the weight
/// vector. 32 payload bytes regardless of model size, so the metadata
/// phase's traffic is O(cohort), not O(cohort × model).
struct MetadataMsg {
  std::uint64_t round = 0;
  std::uint64_t client_id = 0;
  std::uint64_t num_samples = 0;
  /// Inference loss f_i(w_t) of the global model on local data (the
  /// FedCav contribution signal, Algorithm 2 line 2).
  double inference_loss = 0.0;

  ByteBuffer encode() const;
  static MetadataMsg decode(ByteReader& reader);
};

/// Quantized broadcast: w̃_t = dequantize(model) IS the round-t
/// reference — the server dequantizes its own broadcast in place so
/// both ends train and diff against the identical float image.
struct QuantGlobalModelMsg {
  std::uint64_t round = 0;
  QuantizedDelta model;

  ByteBuffer encode() const;
  static QuantGlobalModelMsg decode(ByteReader& reader);
};

/// Quantized phase-② report: carries delta = w_i − w̃_t (+ carried
/// error-feedback residual) instead of the dense weight vector. The
/// scalars mirror ClientReportMsg so the metadata phase is unchanged.
struct QuantReportMsg {
  std::uint64_t round = 0;
  std::uint64_t client_id = 0;
  std::uint64_t num_samples = 0;
  double inference_loss = 0.0;
  QuantizedDelta delta;

  ByteBuffer encode() const;
  static QuantReportMsg decode(ByteReader& reader);
};

/// NACK body: which round and message type the receiver was waiting
/// for. Purely diagnostic in the simulated fabric (the retry loop runs
/// both endpoints), but metered like any real control message.
struct NackMsg {
  std::uint64_t round = 0;
  MessageType expected = MessageType::kGlobalModel;

  ByteBuffer encode() const;
  static NackMsg decode(ByteReader& reader);
};

/// An encoded envelope, immutable once built, so one image can sit in
/// many queues at once: the in-memory fabric queues a round's downlink
/// image on every link and copies it only when a fault mutates it.
using WireImage = std::shared_ptr<const ByteBuffer>;

/// Bytes an envelope adds around its payload: the type tag and the CRC.
inline constexpr std::size_t kEnvelopeFraming = sizeof(std::uint64_t) + sizeof(std::uint32_t);

/// A CRC-checked envelope whose payload aliases the wire image it was
/// read from; valid only while that image lives.
struct EnvelopeView {
  MessageType type;
  std::span<const std::uint8_t> payload;

  std::size_t wire_size() const { return payload.size() + kEnvelopeFraming; }
};

/// Envelope: type tag + payload + CRC-32 of (tag || payload), as
/// transmitted. The trailing checksum lets receivers reject in-flight
/// corruption or truncation before any structural decode runs.
struct Envelope {
  MessageType type;
  ByteBuffer payload;

  ByteBuffer encode() const;
  /// The one integrity check every receive runs: nullopt on a short
  /// buffer, CRC mismatch, or unknown type tag. Nothing is copied; a
  /// payload is only handed to Message decode after the CRC proves it
  /// arrived intact.
  static std::optional<EnvelopeView> try_view(std::span<const std::uint8_t> wire);
  /// try_view, then copy the payload out.
  static std::optional<Envelope> try_decode(const ByteBuffer& wire);
  /// Strict decode for trusted fabrics: throws fedcav::Error on the same
  /// conditions.
  static Envelope decode(const ByteBuffer& wire);
  std::size_t wire_size() const { return payload.size() + kEnvelopeFraming; }
};

}  // namespace fedcav::comm
