// Byte-level serialization for tensors and flat float vectors.
//
// Used by the comm substrate to meter exactly how many bytes each
// federated message carries (the paper's §6 claims FedCav costs one
// extra float per client per round — the overhead bench verifies this
// with these counters). Format: little-endian, u64 sizes, raw f32 data.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/tensor/tensor.hpp"
#include "src/utils/rng.hpp"

namespace fedcav {

using ByteBuffer = std::vector<std::uint8_t>;

/// Append primitives to a buffer.
void write_u8(ByteBuffer& buf, std::uint8_t v);
void write_u32(ByteBuffer& buf, std::uint32_t v);
void write_u64(ByteBuffer& buf, std::uint64_t v);
void write_f32(ByteBuffer& buf, float v);
void write_f64(ByteBuffer& buf, double v);
void write_f32_span(ByteBuffer& buf, std::span<const float> data);

/// Cursor-based reader; throws fedcav::Error on truncated input.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint64_t read_u64();
  std::uint32_t read_u32();
  std::uint8_t read_u8();
  float read_f32();
  double read_f64();
  std::vector<float> read_f32_vector();
  /// Copy the next out.size() bytes into `out`.
  void read_bytes(std::span<std::uint8_t> out);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  void require(std::size_t n);
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Tensor framing: shape rank + dims + payload.
void write_tensor(ByteBuffer& buf, const Tensor& t);
Tensor read_tensor(ByteReader& reader);

/// RNG state framing (4×u64 xoshiro words + Box-Muller cache) — the
/// checkpoint format uses this to resume every random stream exactly.
void write_rng_state(ByteBuffer& buf, const RngState& state);
RngState read_rng_state(ByteReader& reader);

}  // namespace fedcav
