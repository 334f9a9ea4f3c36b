#include "src/comm/compression.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "src/utils/error.hpp"

namespace fedcav::comm {

namespace {

/// |v| as an integer: for finite floats the sign-cleared bit pattern
/// orders exactly like the magnitude, and ±0 share key 0.
std::uint32_t magnitude_key(float v) { return std::bit_cast<std::uint32_t>(v) & 0x7fffffffu; }

/// Bit j of the result is byte j of `flags` (each 0 or 1). The multiply
/// moves byte j's bit to bit 56 + j of the product, and no two partial
/// products meet below it, so nothing carries into the top byte.
std::uint64_t pack_flags(const std::uint8_t (&flags)[64]) {
  std::uint64_t bits = 0;
  for (int b = 0; b < 8; ++b) {
    std::uint64_t word = 0;
    for (int i = 0; i < 8; ++i) word |= std::uint64_t{flags[8 * b + i]} << (8 * i);
    bits |= ((word * 0x0102040810204080ull) >> 56) << (8 * b);
  }
  return bits;
}

/// Calls f(word, base, n) for each run of 64 coordinates base..base+63,
/// n of them in range. `word` points at 64 values; the last run's
/// missing ones read as +0.
template <typename F>
void for_each_word(std::span<const float> dense, F&& f) {
  const std::size_t full = dense.size() / 64 * 64;
  for (std::size_t base = 0; base < full; base += 64) f(dense.data() + base, base, std::size_t{64});
  if (full < dense.size()) {
    float tail[64] = {};
    std::memcpy(tail, dense.data() + full, (dense.size() - full) * sizeof(float));
    f(static_cast<const float*>(tail), full, dense.size() - full);
  }
}

/// Where the k largest-|v| coordinates end: every coordinate whose key
/// exceeds `key` is kept, plus those whose key equals it below index
/// `tie_end` (the lowest-index ties).
struct TopKCut {
  std::uint32_t key = 0;
  std::size_t tie_end = 0;
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
  // The threshold bucket's candidates, in coordinate order: a word's
  // bucket bits come from branch-free compares, and only its set bits
  // are visited.
  std::vector<std::size_t> candidates;
  candidates.reserve(hist[key >> 20]);
  for_each_word(dense, [&](const float* word, std::size_t base, std::size_t n) {
    std::uint8_t flags[64];
    for (std::size_t j = 0; j < 64; ++j) flags[j] = (magnitude_key(word[j]) >> 20) == (key >> 20);
    // The last word's +0 padding may share the bucket; only n are real.
    std::uint64_t bits = pack_flags(flags);
    if (n < 64) bits &= (std::uint64_t{1} << n) - 1;
    for (; bits != 0; bits &= bits - 1) {
      candidates.push_back(base + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  });
  int above = 20;
  for (const int shift : {9, 0}) {
    const std::uint32_t digits = (1u << (above - shift)) - 1u;
    std::fill_n(hist.begin(), digits + 1, 0u);
    for (const std::size_t idx : candidates) {
      const std::uint32_t c = magnitude_key(dense[idx]);
      if ((c >> above) == (key >> above)) ++hist[(c >> shift) & digits];
    }
    key |= pick(digits) << shift;
    above = shift;
  }
  // `need` >= 1 ties remain to keep, lowest index first.
  std::size_t tie_end = 0;
  for (const std::size_t idx : candidates) {
    if (magnitude_key(dense[idx]) != key) continue;
    tie_end = idx + 1;
    if (--need == 0) break;
  }
  return {key, tie_end};
}

/// The cut's keep bits for the 64 coordinates `base`..`base+63`, whose
/// values are `v`. Branch-free, so the compiler vectorizes the compares.
std::uint64_t keep_bits(const float* v, std::size_t base, const TopKCut& cut) {
  std::uint8_t flags[64];
  // Coordinates past the word's tie room are never kept on a tie.
  const std::size_t tie_room = cut.tie_end > base ? std::min<std::size_t>(cut.tie_end - base, 64) : 0;
  for (std::size_t j = 0; j < 64; ++j) {
    const std::uint32_t key = magnitude_key(v[j]);
    flags[j] = static_cast<std::uint8_t>((key > cut.key) | ((key == cut.key) & (j < tie_room)));
  }
  return pack_flags(flags);
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Sixteen float lanes: one AVX-512 register, or split by the compiler.
typedef float F32x16 __attribute__((vector_size(16 * sizeof(float))));

/// The min and max of values[0, n), equal bit for bit to a sequential
/// std::min/std::max scan. Sixteen independent lanes reduce most of the
/// block; for finite values that can change only which of +0 and -0 a
/// result keeps, so a result that compares equal to 0 is rescanned in
/// order. n >= 1.
std::pair<float, float> block_range(const float* values, std::size_t n) {
  float mn = values[0];
  float mx = values[0];
  std::size_t i = 1;
  if (n >= 32) {
    F32x16 lo;
    std::memcpy(&lo, values, sizeof(lo));
    F32x16 hi = lo;
    for (i = 16; i + 16 <= n; i += 16) {
      F32x16 v;
      std::memcpy(&v, values + i, sizeof(v));
      lo = v < lo ? v : lo;
      hi = hi < v ? v : hi;
    }
    for (int l = 0; l < 16; ++l) {
      mn = std::min(mn, lo[l]);
      mx = std::max(mx, hi[l]);
    }
  }
  for (; i < n; ++i) {
    mn = std::min(mn, values[i]);
    mx = std::max(mx, values[i]);
  }
  if (mn == 0.0f || mx == 0.0f) {
    mn = mx = values[0];
    for (i = 1; i < n; ++i) {
      mn = std::min(mn, values[i]);
      mx = std::max(mx, values[i]);
    }
  }
  return {mn, mx};
}

/// Validates q's sizes against its mask, then calls visit(coordinate,
/// value) for every kept coordinate in ascending order, with the value
/// dequantize writes there. The presence bitmap is read one
/// little-endian 64-bit word at a time. A set bit at or past dim throws
/// before anything is visited.
template <typename Visit>
void for_each_kept(const QuantizedDelta& q, Visit&& visit) {
  FEDCAV_REQUIRE(q.mask.empty() || (q.dim > 0 && q.mask.size() == (q.dim - 1) / 8 + 1),
                 "dequantize: mask size mismatch");
  if (!q.mask.empty() && q.dim % 8 != 0) {
    FEDCAV_REQUIRE((q.mask.back() >> (q.dim % 8)) == 0, "dequantize: mask bits past dim");
  }
  const std::size_t kept = q.count();
  const std::uint8_t* data = q.data.data();
  const float* scales = q.scales.data();
  const float* zeros = q.zero_points.data();
  const bool fp16 = q.mode == QuantMode::kFp16;
  if (fp16) {
    FEDCAV_REQUIRE(q.data.size() / 2 == kept && q.data.size() % 2 == 0,
                   "dequantize: fp16 payload size mismatch");
  } else {
    const std::size_t blocks = (kept + kQuantBlock - 1) / kQuantBlock;
    FEDCAV_REQUIRE(q.data.size() == kept && q.scales.size() == blocks &&
                       q.zero_points.size() == blocks,
                   "dequantize: int8 payload size mismatch");
  }
  const auto value = [&](std::size_t i) -> float {
    if (fp16) return f16_to_f32(static_cast<std::uint16_t>(data[2 * i] | (data[2 * i + 1] << 8)));
    const std::size_t blk = i / kQuantBlock;
    return zeros[blk] + scales[blk] * static_cast<float>(data[i]);
  };
  if (q.mask.empty()) {
    for (std::size_t i = 0; i < kept; ++i) visit(i, value(i));
    return;
  }
  const std::uint8_t* mask = q.mask.data();
  const std::size_t bytes = q.mask.size();
  std::size_t next = 0;
  for (std::size_t at = 0; at < bytes; at += 8) {
    std::uint64_t bits = 0;
    if (at + 8 <= bytes) {
      bits = load_le64(mask + at);
    } else {
      for (std::size_t b = at; b < bytes; ++b) bits |= std::uint64_t{mask[b]} << (8 * (b - at));
    }
    for (; bits != 0; bits &= bits - 1) {
      visit(8 * at + static_cast<std::size_t>(std::countr_zero(bits)), value(next++));
    }
  }
  FEDCAV_REQUIRE(next == kept, "dequantize: mask/payload mismatch");
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
    // One ascending pass, 64 coordinates per mask word: the word's keep
    // bits, then its kept values in bit order, so they come out in
    // coordinate order and nothing is sorted.
    const TopKCut cut = topk_cut(dense, k);
    out.mask.assign((dense.size() + 7) / 8, 0);
    kept_values.resize(k);
    float* kept_out = kept_values.data();
    // +0 padding past dim is never above the cut and lies past tie_end.
    for_each_word(dense, [&](const float* word, std::size_t base, std::size_t n) {
      std::uint64_t bits = keep_bits(word, base, cut);
      for (std::size_t b = 0; b < (n + 7) / 8; ++b) {
        out.mask[base / 8 + b] = static_cast<std::uint8_t>(bits >> (8 * b));
      }
      for (; bits != 0; bits &= bits - 1) *kept_out++ = word[std::countr_zero(bits)];
    });
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
  std::uint8_t* codes = out.data.data();
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const std::size_t lo = blk * kQuantBlock;
    const std::size_t hi = std::min(kept, lo + kQuantBlock);
    const auto [mn, mx] = block_range(values + lo, hi - lo);
    const float scale = (mx - mn) / 255.0f;
    FEDCAV_REQUIRE(std::isfinite(scale), "quantize: int8 block range overflows");
    out.scales[blk] = scale;
    out.zero_points[blk] = mn;
    if (scale <= 0.0f) {
      std::fill(codes + lo, codes + hi, std::uint8_t{0});
      continue;
    }
    // A subnormal scale makes inv infinite, and the block minimum's
    // 0·inf a NaN: max(0, q) takes it to code 0, the minimum itself.
    const float inv = 1.0f / scale;
    for (std::size_t i = lo; i < hi; ++i) {
      const float q = std::nearbyint((values[i] - mn) * inv);
      codes[i] = static_cast<std::uint8_t>(std::min(std::max(0.0f, q), 255.0f));
    }
  }
  return out;
}

void dequantize_add(std::span<float> y, const QuantizedDelta& q) {
  FEDCAV_REQUIRE(y.size() == q.dim, "dequantize_add: dimension mismatch");
  float* out = y.data();
  for_each_kept(q, [out](std::size_t idx, float v) { out[idx] += v; });
}

void dequantize_residual(std::span<const float> x, const QuantizedDelta& q,
                         std::span<float> residual) {
  FEDCAV_REQUIRE(x.size() == q.dim && residual.size() == q.dim,
                 "dequantize_residual: dimension mismatch");
  // dequantize writes +0 at a dropped coordinate, and x − (+0) is x for
  // every finite x, −0 included. At a kept one it writes 0 + v, which is
  // +0 for a kept −0, so the subtraction keeps that form.
  std::copy(x.begin(), x.end(), residual.begin());
  const float* in = x.data();
  float* out = residual.data();
  for_each_kept(q, [in, out](std::size_t idx, float v) { out[idx] = in[idx] - (0.0f + v); });
}

std::vector<float> dequantize(const QuantizedDelta& q) {
  std::vector<float> dense(q.dim, 0.0f);
  dequantize_add(dense, q);
  return dense;
}

}  // namespace fedcav::comm
