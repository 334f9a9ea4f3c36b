#include "src/tensor/serialize.hpp"

#include <cstring>

#include "src/utils/error.hpp"

namespace fedcav {

void write_u8(ByteBuffer& buf, std::uint8_t v) { buf.push_back(v); }

void write_u32(ByteBuffer& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

void write_u64(ByteBuffer& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

void write_f32(ByteBuffer& buf, float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 4; ++i) buf.push_back(static_cast<std::uint8_t>((bits >> (8 * i)) & 0xff));
}

void write_f64(ByteBuffer& buf, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(buf, bits);
}

void write_f32_span(ByteBuffer& buf, std::span<const float> data) {
  write_u64(buf, data.size());
  if (data.empty()) return;  // memcpy from a null span is UB even at size 0
  const std::size_t offset = buf.size();
  buf.resize(offset + data.size() * sizeof(float));
  std::memcpy(buf.data() + offset, data.data(), data.size() * sizeof(float));
}

void ByteReader::require(std::size_t n) {
  FEDCAV_REQUIRE(pos_ + n <= data_.size(), "ByteReader: truncated message");
}

std::uint64_t ByteReader::read_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

std::uint32_t ByteReader::read_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint8_t ByteReader::read_u8() {
  require(1);
  return data_[pos_++];
}

float ByteReader::read_f32() {
  require(4);
  std::uint32_t bits = 0;
  for (int i = 0; i < 4; ++i) bits |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double ByteReader::read_f64() {
  const std::uint64_t bits = read_u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::vector<float> ByteReader::read_f32_vector() {
  const std::uint64_t n = read_u64();
  // Divide instead of multiplying: a hostile length prefix near 2^64
  // would wrap n * sizeof(float) back into range and sail past require().
  FEDCAV_REQUIRE(n <= remaining() / sizeof(float), "ByteReader: truncated message");
  std::vector<float> out(n);
  if (n == 0) return out;  // out.data() may be null; memcpy(null, ..) is UB
  std::memcpy(out.data(), data_.data() + pos_, n * sizeof(float));
  pos_ += n * sizeof(float);
  return out;
}

void ByteReader::read_bytes(std::span<std::uint8_t> out) {
  require(out.size());
  if (out.empty()) return;  // out.data() may be null; memcpy(null, ..) is UB
  std::memcpy(out.data(), data_.data() + pos_, out.size());
  pos_ += out.size();
}

void write_tensor(ByteBuffer& buf, const Tensor& t) {
  write_u64(buf, t.shape().rank());
  for (std::size_t i = 0; i < t.shape().rank(); ++i) write_u64(buf, t.shape()[i]);
  write_f32_span(buf, t.span());
}

Tensor read_tensor(ByteReader& reader) {
  const std::uint64_t rank = reader.read_u64();
  FEDCAV_REQUIRE(rank <= Shape::kMaxRank, "read_tensor: rank too large");
  std::size_t dims[Shape::kMaxRank] = {0, 0, 0, 0};
  for (std::uint64_t i = 0; i < rank; ++i) dims[i] = reader.read_u64();
  Shape shape;
  switch (rank) {
    case 0: shape = Shape{}; break;
    case 1: shape = Shape::of(dims[0]); break;
    case 2: shape = Shape::of(dims[0], dims[1]); break;
    case 3: shape = Shape::of(dims[0], dims[1], dims[2]); break;
    default: shape = Shape::of(dims[0], dims[1], dims[2], dims[3]); break;
  }
  std::vector<float> data = reader.read_f32_vector();
  return Tensor(shape, std::move(data));
}

void write_rng_state(ByteBuffer& buf, const RngState& state) {
  for (std::size_t i = 0; i < 4; ++i) write_u64(buf, state.s[i]);
  write_u8(buf, state.has_cached_normal ? 1 : 0);
  write_f64(buf, state.cached_normal);
}

RngState read_rng_state(ByteReader& reader) {
  RngState state;
  for (std::size_t i = 0; i < 4; ++i) state.s[i] = reader.read_u64();
  state.has_cached_normal = reader.read_u8() != 0;
  state.cached_normal = reader.read_f64();
  return state;
}

}  // namespace fedcav
