// The lossy wire codec for model traffic (DESIGN.md §13). fp16 stores
// IEEE 754 half-precision codes (round-to-nearest-even, 2 bytes/value);
// int8 stores per-block affine codes v ≈ zero_point + scale·q with
// q ∈ [0, 255] and one (scale, zero_point) pair per kQuantBlock
// consecutive kept values (1 byte/value + 8 bytes/block). A keep_ratio
// < 1 first keeps only the largest-|v| coordinates (ties go to the lower
// index, so the wire image is deterministic) and records them in a
// dim-bit presence bitmap, 1/8 byte per coordinate, which keeps
// int8 + top-k under 1 byte/coordinate on the wire. The server codes
// each round's broadcast densely, and each client codes its uplink delta
// w_i − w̃_t with per-client error feedback; only the uplink uses top-k.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/tensor/serialize.hpp"

namespace fedcav::comm {

/// True when no value is ±∞ or NaN. Branch-free over the exponent bits
/// (all ones means non-finite), so it vectorizes; quantize and the
/// server's uplink check share it.
bool all_finite(std::span<const float> values);

enum class QuantMode : std::uint8_t { kNone = 0, kFp16 = 1, kInt8 = 2 };

/// "none" | "fp16" | "int8"; throws fedcav::Error on anything else.
QuantMode quant_mode_from_string(const std::string& name);
std::string to_string(QuantMode mode);

/// Values per (scale, zero_point) block of the int8 code.
constexpr std::size_t kQuantBlock = 256;

struct QuantizedDelta {
  QuantMode mode = QuantMode::kFp16;
  std::uint64_t dim = 0;
  /// Presence bitmap, ⌈dim/8⌉ bytes, bit i = coordinate i kept (LSB
  /// first within each byte). Empty means dense (all kept).
  std::vector<std::uint8_t> mask;
  /// int8 only: one affine pair per kQuantBlock kept values, in kept
  /// (ascending-coordinate) order.
  std::vector<float> scales;
  std::vector<float> zero_points;
  /// fp16: 2 little-endian bytes per kept value; int8: 1 byte per value.
  std::vector<std::uint8_t> data;

  /// Number of kept coordinates (dim when dense).
  std::size_t count() const;
  /// Exact wire size of encode()'s output.
  std::size_t wire_size() const;

  ByteBuffer encode() const;
  /// Throws fedcav::Error on any structural inconsistency (sizes, mode
  /// tag, mask popcount vs payload), so a CRC-evading bit flip cannot
  /// produce an out-of-bounds decode.
  static QuantizedDelta decode(ByteReader& reader);
};

/// Quantize `dense`, keeping the ⌈keep_ratio·dim⌉ largest-|v|
/// coordinates (keep_ratio = 1 keeps everything and omits the bitmap).
/// mode must not be kNone; throws fedcav::Error on non-finite input.
QuantizedDelta quantize(std::span<const float> dense, QuantMode mode,
                        double keep_ratio = 1.0);

/// y += scatter(dequantized values); y.size() must equal q.dim. Throws
/// before writing y when the mask or payload sizes disagree with q.dim
/// and the mask's popcount, or a mask bit at or past dim is set.
void dequantize_add(std::span<float> y, const QuantizedDelta& q);

/// Dense reconstruction (zeros at dropped coordinates).
std::vector<float> dequantize(const QuantizedDelta& q);

/// residual = x − dequantize(q), bit for bit, without the dense
/// reconstruction: x is copied, then only the kept coordinates are
/// corrected. This is the uplink's error-feedback step, with x the
/// vector q was coded from. Sizes must all equal q.dim; a malformed q
/// throws as in dequantize_add.
void dequantize_residual(std::span<const float> x, const QuantizedDelta& q,
                         std::span<float> residual);

/// Portable IEEE 754 binary16 conversions (round-to-nearest-even;
/// overflow saturates to ±inf). Exposed for the property tests.
std::uint16_t f32_to_f16(float value);
float f16_to_f32(std::uint16_t half);

}  // namespace fedcav::comm
