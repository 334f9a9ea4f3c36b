#include "src/comm/compression.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "src/utils/error.hpp"

namespace fedcav::comm {

namespace {

/// |v| as an integer: for finite floats the sign-cleared bit pattern
/// orders exactly like the magnitude, and ±0 share key 0.
std::uint32_t magnitude_key(float v) { return std::bit_cast<std::uint32_t>(v) & 0x7fffffffu; }

/// Where the k largest-|v| coordinates end: every coordinate whose key
/// exceeds `key` is kept, plus the first `ties` (lowest-index)
/// coordinates whose key equals it.
struct TopKCut {
  std::uint32_t key = 0;
  std::size_t ties = 0;
};

/// Exact radix select of the k-th largest key (1 <= k <= dense.size()),
/// most significant digit first. Digit 1 (key bits 30..20) counts every
/// coordinate; digits 2 (bits 19..9) and 3 (bits 8..0) count only the
/// threshold bucket's candidates. Finite input only: a NaN's key would
/// sort above +inf.
TopKCut topk_cut(std::span<const float> dense, std::size_t k) {
  std::array<std::uint32_t, 2048> hist{};
  std::size_t need = k;  // the threshold's rank among keys sharing the digits picked so far
  // Walks a digit's buckets downward past every bucket wholly above the
  // threshold.
  const auto pick = [&](std::uint32_t digit) {
    while (need > hist[digit]) need -= hist[digit--];
    return digit;
  };
  for (const float v : dense) ++hist[magnitude_key(v) >> 20];
  std::uint32_t key = pick(2047) << 20;
  std::vector<std::uint32_t> candidates;
  candidates.reserve(hist[key >> 20]);
  for (const float v : dense) {
    if ((magnitude_key(v) >> 20) == (key >> 20)) candidates.push_back(magnitude_key(v));
  }
  int above = 20;
  for (const int shift : {9, 0}) {
    const std::uint32_t digits = (1u << (above - shift)) - 1u;
    hist.fill(0);
    for (const std::uint32_t c : candidates) {
      if ((c >> above) == (key >> above)) ++hist[(c >> shift) & digits];
    }
    key |= pick(digits) << shift;
    above = shift;
  }
  return {key, need};
}

}  // namespace

bool all_finite(std::span<const float> values) {
  constexpr std::uint32_t kExponent = 0x7f800000u;
  std::uint32_t non_finite = 0;
  for (const float v : values) {
    non_finite |= static_cast<std::uint32_t>((std::bit_cast<std::uint32_t>(v) & kExponent) ==
                                             kExponent);
  }
  return non_finite == 0;
}

QuantMode quant_mode_from_string(const std::string& name) {
  if (name == "none") return QuantMode::kNone;
  if (name == "fp16") return QuantMode::kFp16;
  if (name == "int8") return QuantMode::kInt8;
  FEDCAV_REQUIRE(false, "quant_mode_from_string: unknown mode '" + name + "'");
  return QuantMode::kNone;  // unreachable
}

std::string to_string(QuantMode mode) {
  switch (mode) {
    case QuantMode::kNone: return "none";
    case QuantMode::kFp16: return "fp16";
    case QuantMode::kInt8: return "int8";
  }
  return "none";
}

std::uint16_t f32_to_f16(float value) {
  std::uint32_t x = 0;
  std::memcpy(&x, &value, sizeof(x));
  const std::uint16_t sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
  const std::uint32_t exp32 = (x >> 23) & 0xffu;
  std::uint32_t mant = x & 0x7fffffu;
  if (exp32 == 0xffu) {  // inf / NaN: keep the class, force a quiet payload
    return static_cast<std::uint16_t>(sign | 0x7c00u | (mant != 0 ? 0x200u : 0u));
  }
  const std::int32_t exp = static_cast<std::int32_t>(exp32) - 127 + 15;
  if (exp >= 0x1f) return static_cast<std::uint16_t>(sign | 0x7c00u);  // overflow
  if (exp <= 0) {
    if (exp < -10) return sign;  // rounds to ±0
    mant |= 0x800000u;           // implicit bit of the f32 significand
    const std::uint32_t shift = static_cast<std::uint32_t>(14 - exp);  // 14..24
    std::uint32_t half = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half & 1u))) ++half;
    return static_cast<std::uint16_t>(sign | half);
  }
  std::uint32_t half = (static_cast<std::uint32_t>(exp) << 10) | (mant >> 13);
  const std::uint32_t rem = mant & 0x1fffu;
  // Rounding may carry through the significand into the exponent (and,
  // at the top, into infinity) — the bit layout makes that carry exact.
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) ++half;
  return static_cast<std::uint16_t>(sign | half);
}

float f16_to_f32(std::uint16_t half) {
  const std::uint32_t sign = static_cast<std::uint32_t>(half & 0x8000u) << 16;
  const std::uint32_t exp = (half >> 10) & 0x1fu;
  std::uint32_t mant = half & 0x3ffu;
  std::uint32_t x;
  if (exp == 0) {
    if (mant == 0) {
      x = sign;  // ±0
    } else {
      // Subnormal half: normalize into the f32 field.
      std::uint32_t shift = 0;
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        ++shift;
      }
      mant &= 0x3ffu;
      // Subnormal value = 0.mant · 2^-14; after normalizing (shift
      // places), the biased f32 exponent is 127 - 14 - shift.
      x = sign | ((127u - 14u - shift) << 23) | (mant << 13);
    }
  } else if (exp == 0x1fu) {
    x = sign | 0x7f800000u | (mant << 13);
  } else {
    x = sign | ((exp - 15u + 127u) << 23) | (mant << 13);
  }
  float out = 0.0f;
  std::memcpy(&out, &x, sizeof(out));
  return out;
}

std::size_t QuantizedDelta::count() const {
  if (mask.empty()) return dim;
  std::size_t kept = 0;
  for (std::uint8_t byte : mask) {
    kept += static_cast<std::size_t>(std::popcount(byte));
  }
  return kept;
}

std::size_t QuantizedDelta::wire_size() const {
  return 1 /*mode*/ + 8 /*dim*/ + 8 /*mask bytes*/ + mask.size() +
         8 /*blocks*/ + scales.size() * 2 * sizeof(float) +
         8 /*data bytes*/ + data.size();
}

ByteBuffer QuantizedDelta::encode() const {
  ByteBuffer buf;
  buf.reserve(wire_size());
  write_u8(buf, static_cast<std::uint8_t>(mode));
  write_u64(buf, dim);
  write_u64(buf, mask.size());
  buf.insert(buf.end(), mask.begin(), mask.end());
  write_u64(buf, scales.size());
  for (std::size_t i = 0; i < scales.size(); ++i) {
    write_f32(buf, scales[i]);
    write_f32(buf, zero_points[i]);
  }
  write_u64(buf, data.size());
  buf.insert(buf.end(), data.begin(), data.end());
  return buf;
}

QuantizedDelta QuantizedDelta::decode(ByteReader& reader) {
  QuantizedDelta out;
  const std::uint8_t mode_tag = reader.read_u8();
  FEDCAV_REQUIRE(mode_tag == static_cast<std::uint8_t>(QuantMode::kFp16) ||
                     mode_tag == static_cast<std::uint8_t>(QuantMode::kInt8),
                 "QuantizedDelta: bad mode tag");
  out.mode = static_cast<QuantMode>(mode_tag);
  out.dim = reader.read_u64();
  const std::uint64_t mask_bytes = reader.read_u64();
  FEDCAV_REQUIRE(mask_bytes == 0 || mask_bytes == (out.dim - 1) / 8 + 1,
                 "QuantizedDelta: mask size mismatch");
  // Every resize below is bounded by remaining() first, so a hostile
  // length prefix throws instead of attempting a huge allocation.
  FEDCAV_REQUIRE(mask_bytes <= reader.remaining(),
                 "QuantizedDelta: mask larger than buffer");
  out.mask.resize(mask_bytes);
  reader.read_bytes(out.mask);
  if (mask_bytes > 0 && out.dim % 8 != 0) {
    FEDCAV_REQUIRE((out.mask.back() >> (out.dim % 8)) == 0,
                   "QuantizedDelta: mask bits past dim");
  }
  const std::size_t kept = out.count();
  const std::uint64_t blocks = reader.read_u64();
  FEDCAV_REQUIRE(blocks <= reader.remaining() / 8,
                 "QuantizedDelta: block table larger than buffer");
  out.scales.resize(blocks);
  out.zero_points.resize(blocks);
  for (std::uint64_t i = 0; i < blocks; ++i) {
    out.scales[i] = reader.read_f32();
    out.zero_points[i] = reader.read_f32();
    FEDCAV_REQUIRE(std::isfinite(out.scales[i]) && std::isfinite(out.zero_points[i]),
                   "QuantizedDelta: non-finite block parameters");
  }
  const std::uint64_t data_bytes = reader.read_u64();
  if (out.mode == QuantMode::kFp16) {
    FEDCAV_REQUIRE(blocks == 0, "QuantizedDelta: fp16 carries no blocks");
    // Divide, don't multiply: 2·kept could wrap for a hostile dim.
    FEDCAV_REQUIRE(data_bytes % 2 == 0 && data_bytes / 2 == kept,
                   "QuantizedDelta: fp16 payload size mismatch");
  } else {
    FEDCAV_REQUIRE(blocks == (kept + kQuantBlock - 1) / kQuantBlock,
                   "QuantizedDelta: block count mismatch");
    FEDCAV_REQUIRE(data_bytes == kept, "QuantizedDelta: int8 payload size mismatch");
  }
  FEDCAV_REQUIRE(data_bytes <= reader.remaining(),
                 "QuantizedDelta: payload larger than buffer");
  out.data.resize(data_bytes);
  reader.read_bytes(out.data);
  return out;
}

QuantizedDelta quantize(std::span<const float> dense, QuantMode mode,
                        double keep_ratio) {
  FEDCAV_REQUIRE(mode != QuantMode::kNone, "quantize: mode is none");
  FEDCAV_REQUIRE(!dense.empty(), "quantize: empty input");
  FEDCAV_REQUIRE(keep_ratio > 0.0 && keep_ratio <= 1.0,
                 "quantize: keep_ratio must be in (0, 1]");
  // One scan of the whole input, before selection: a NaN's magnitude
  // key sorts above +∞ so the top-k would keep it, it slips past
  // std::min/std::max, and fp16 would ship ±∞/NaN as codes.
  FEDCAV_REQUIRE(all_finite(dense), "quantize: non-finite input");
  QuantizedDelta out;
  out.mode = mode;
  out.dim = dense.size();

  // Gather the kept values in ascending-coordinate order; the dense case
  // reads straight through.
  std::vector<float> kept_values;
  const float* values = dense.data();
  std::size_t kept = dense.size();
  if (keep_ratio < 1.0) {
    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(keep_ratio * static_cast<double>(dense.size()))));
    // One ascending pass keeps every key above the cut and the
    // lowest-index ties, so the kept values come out in coordinate order.
    const TopKCut cut = topk_cut(dense, k);
    std::size_t ties = cut.ties;
    out.mask.assign((dense.size() + 7) / 8, 0);
    kept_values.reserve(k);
    for (std::size_t idx = 0; idx < dense.size(); ++idx) {
      const std::uint32_t key = magnitude_key(dense[idx]);
      if (key < cut.key || (key == cut.key && ties == 0)) continue;
      if (key == cut.key) --ties;
      out.mask[idx / 8] |= static_cast<std::uint8_t>(1u << (idx % 8));
      kept_values.push_back(dense[idx]);
    }
    values = kept_values.data();
    kept = k;
  }

  if (mode == QuantMode::kFp16) {
    out.data.resize(2 * kept);
    for (std::size_t i = 0; i < kept; ++i) {
      const std::uint16_t h = f32_to_f16(values[i]);
      out.data[2 * i] = static_cast<std::uint8_t>(h & 0xffu);
      out.data[2 * i + 1] = static_cast<std::uint8_t>(h >> 8);
    }
    return out;
  }

  // int8: per-block affine code. zero_point = block min, scale spans the
  // block's range over 255 steps; a constant block (scale 0) reproduces
  // its value exactly through the zero_point.
  const std::size_t blocks = (kept + kQuantBlock - 1) / kQuantBlock;
  out.scales.resize(blocks);
  out.zero_points.resize(blocks);
  out.data.resize(kept);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const std::size_t lo = blk * kQuantBlock;
    const std::size_t hi = std::min(kept, lo + kQuantBlock);
    float mn = values[lo];
    float mx = values[lo];
    for (std::size_t i = lo + 1; i < hi; ++i) {
      mn = std::min(mn, values[i]);
      mx = std::max(mx, values[i]);
    }
    const float scale = (mx - mn) / 255.0f;
    FEDCAV_REQUIRE(std::isfinite(scale), "quantize: int8 block range overflows");
    out.scales[blk] = scale;
    out.zero_points[blk] = mn;
    if (scale <= 0.0f) {
      for (std::size_t i = lo; i < hi; ++i) out.data[i] = 0;
      continue;
    }
    const float inv = 1.0f / scale;
    for (std::size_t i = lo; i < hi; ++i) {
      const float q = std::nearbyint((values[i] - mn) * inv);
      out.data[i] = static_cast<std::uint8_t>(
          std::clamp(q, 0.0f, 255.0f));
    }
  }
  return out;
}

void dequantize_add(std::span<float> y, const QuantizedDelta& q) {
  FEDCAV_REQUIRE(y.size() == q.dim, "dequantize_add: dimension mismatch");
  const std::size_t kept = q.count();
  // Decode the kept values in order, then scatter (dense: straight add).
  auto value_at = [&](std::size_t i) -> float {
    if (q.mode == QuantMode::kFp16) {
      const std::uint16_t h = static_cast<std::uint16_t>(
          q.data[2 * i] | (static_cast<std::uint16_t>(q.data[2 * i + 1]) << 8));
      return f16_to_f32(h);
    }
    const std::size_t blk = i / kQuantBlock;
    return q.zero_points[blk] + q.scales[blk] * static_cast<float>(q.data[i]);
  };
  if (q.mask.empty()) {
    for (std::size_t i = 0; i < kept; ++i) y[i] += value_at(i);
    return;
  }
  std::size_t next = 0;
  for (std::size_t idx = 0; idx < q.dim; ++idx) {
    if ((q.mask[idx / 8] >> (idx % 8)) & 1u) {
      y[idx] += value_at(next);
      ++next;
    }
  }
  FEDCAV_REQUIRE(next == kept, "dequantize_add: mask/payload mismatch");
}

std::vector<float> dequantize(const QuantizedDelta& q) {
  std::vector<float> dense(q.dim, 0.0f);
  dequantize_add(dense, q);
  return dense;
}

}  // namespace fedcav::comm
