// Property suite for the wire layer: Envelope framing, message codecs,
// and the serialize primitives underneath them. Mass-generated cases
// (see tests/property.hpp; FEDCAV_PROP_CASES / FEDCAV_PROP_SEED) pin:
//   * encode → decode is the identity for every message type;
//   * any single-bit or single-byte in-flight mutation of a frame is
//     rejected (CRC-32 detects all bursts shorter than its width);
//   * any strict prefix of a frame is rejected;
//   * decoding attacker-controlled bytes never crashes and never throws
//     anything but fedcav::Error — including length prefixes crafted to
//     overflow size arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "src/comm/compression.hpp"
#include "src/comm/message.hpp"
#include "src/tensor/serialize.hpp"
#include "src/utils/error.hpp"
#include "property.hpp"

namespace fedcav {
namespace {

using comm::Envelope;
using comm::MessageType;
using proptest::gen_bytes;
using proptest::gen_floats;

Envelope gen_envelope(Rng& rng) {
  constexpr MessageType kTypes[] = {
      MessageType::kGlobalModel,      MessageType::kClientReport,
      MessageType::kNack,             MessageType::kMetadataReport,
      MessageType::kQuantGlobalModel, MessageType::kQuantReport};
  Envelope env;
  env.type = kTypes[rng.uniform_int(std::uint64_t{std::size(kTypes)})];
  env.payload = gen_bytes(rng, 256);
  return env;
}

TEST(PropertyWire, EnvelopeRoundTrip) {
  FEDCAV_PROPERTY("envelope round-trip", 2000, [](Rng& rng) {
    const Envelope env = gen_envelope(rng);
    const ByteBuffer wire = env.encode();
    ASSERT_EQ(wire.size(), env.wire_size());

    const std::optional<Envelope> lenient = Envelope::try_decode(wire);
    ASSERT_TRUE(lenient.has_value());
    EXPECT_EQ(lenient->type, env.type);
    EXPECT_EQ(lenient->payload, env.payload);

    const Envelope strict = Envelope::decode(wire);
    EXPECT_EQ(strict.type, env.type);
    EXPECT_EQ(strict.payload, env.payload);
  });
}

TEST(PropertyWire, SingleBitFlipIsAlwaysRejected) {
  FEDCAV_PROPERTY("single-bit flip rejected", 2000, [](Rng& rng) {
    const Envelope env = gen_envelope(rng);
    ByteBuffer wire = env.encode();
    const std::size_t byte = static_cast<std::size_t>(rng.uniform_int(wire.size()));
    wire[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(std::uint64_t{8}));
    EXPECT_FALSE(Envelope::try_decode(wire).has_value())
        << "flipped bit in byte " << byte << " of " << wire.size()
        << " survived the CRC";
  });
}

TEST(PropertyWire, SingleByteMutationIsAlwaysRejected) {
  FEDCAV_PROPERTY("single-byte mutation rejected", 2000, [](Rng& rng) {
    const Envelope env = gen_envelope(rng);
    ByteBuffer wire = env.encode();
    const std::size_t byte = static_cast<std::size_t>(rng.uniform_int(wire.size()));
    const auto old = wire[byte];
    do {
      wire[byte] = static_cast<std::uint8_t>(rng.uniform_int(256));
    } while (wire[byte] == old);
    // An 8-bit burst is strictly shorter than the CRC width, so
    // detection is a guarantee, not a probability.
    EXPECT_FALSE(Envelope::try_decode(wire).has_value());
  });
}

TEST(PropertyWire, TruncatedFrameIsAlwaysRejected) {
  FEDCAV_PROPERTY("truncated frame rejected", 1000, [](Rng& rng) {
    const Envelope env = gen_envelope(rng);
    ByteBuffer wire = env.encode();
    wire.resize(static_cast<std::size_t>(rng.uniform_int(wire.size())));
    EXPECT_FALSE(Envelope::try_decode(wire).has_value());
  });
}

TEST(PropertyWire, RandomBufferFuzzNeverCrashes) {
  FEDCAV_PROPERTY("try_decode random-buffer fuzz", 5000, [](Rng& rng) {
    const ByteBuffer wire = gen_bytes(rng, 64);
    // Lenient decode must return cleanly (a coincidental CRC pass on
    // random bytes has probability 2^-32 per case and a pinned seed, so
    // acceptance is not asserted against)...
    const std::optional<Envelope> lenient = Envelope::try_decode(wire);
    // ...and strict decode must agree with it: same envelope, or a
    // fedcav::Error exactly when the lenient path said nullopt.
    try {
      const Envelope strict = Envelope::decode(wire);
      ASSERT_TRUE(lenient.has_value());
      EXPECT_EQ(strict.type, lenient->type);
      EXPECT_EQ(strict.payload, lenient->payload);
    } catch (const Error&) {
      EXPECT_FALSE(lenient.has_value());
    }
  });
}

template <typename Msg>
void fuzz_decode(Rng& rng, std::size_t max_len) {
  const ByteBuffer bytes = gen_bytes(rng, max_len);
  ByteReader reader(bytes);
  try {
    (void)Msg::decode(reader);
  } catch (const Error&) {
    // rejected cleanly — the only acceptable failure mode
  }
  // anything else (std::bad_alloc from a hostile length, segfault, UB)
  // escapes and fails the test
}

TEST(PropertyWire, MessageDecodersRejectGarbageCleanly) {
  FEDCAV_PROPERTY("message decode fuzz", 2000, [](Rng& rng) {
    fuzz_decode<comm::MetadataMsg>(rng, 64);
    fuzz_decode<comm::GlobalModelMsg>(rng, 64);
    fuzz_decode<comm::ClientReportMsg>(rng, 96);
    fuzz_decode<comm::NackMsg>(rng, 32);
    fuzz_decode<comm::QuantizedDelta>(rng, 96);
    fuzz_decode<comm::QuantGlobalModelMsg>(rng, 96);
    fuzz_decode<comm::QuantReportMsg>(rng, 128);
  });
}

// ---- Quantized wire codec (DESIGN.md §13) --------------------------

comm::QuantMode gen_quant_mode(Rng& rng) {
  return rng.bernoulli(0.5) ? comm::QuantMode::kFp16 : comm::QuantMode::kInt8;
}

TEST(PropertyWire, QuantizedDeltaRoundTripIsIdentity) {
  FEDCAV_PROPERTY("quantized delta wire round-trip", 500, [](Rng& rng) {
    const std::vector<float> dense = gen_floats(rng, 600);
    if (dense.empty()) return;
    const comm::QuantMode mode = gen_quant_mode(rng);
    const double keep = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.05, 1.0);
    const comm::QuantizedDelta q = comm::quantize(dense, mode, keep);

    const ByteBuffer wire = q.encode();
    ASSERT_EQ(wire.size(), q.wire_size());
    ByteReader reader(wire);
    const comm::QuantizedDelta out = comm::QuantizedDelta::decode(reader);
    EXPECT_TRUE(reader.exhausted());
    EXPECT_EQ(out.mode, q.mode);
    EXPECT_EQ(out.dim, q.dim);
    EXPECT_EQ(out.mask, q.mask);
    EXPECT_EQ(out.scales, q.scales);
    EXPECT_EQ(out.zero_points, q.zero_points);
    EXPECT_EQ(out.data, q.data);
    // Dense codes omit the bitmap; sparse codes keep exactly ⌈keep·dim⌉.
    if (keep == 1.0) {
      EXPECT_TRUE(q.mask.empty());
      EXPECT_EQ(q.count(), dense.size());
    } else {
      const auto k = static_cast<std::size_t>(
          std::ceil(keep * static_cast<double>(dense.size())));
      EXPECT_EQ(q.count(), std::max<std::size_t>(1, k));
    }
  });
}

TEST(PropertyWire, QuantizeFp16ObeysHalfPrecisionErrorBound) {
  FEDCAV_PROPERTY("fp16 quantization error bound", 500, [](Rng& rng) {
    std::vector<float> dense(1 + rng.uniform_int(std::uint64_t{512}));
    for (float& v : dense) v = rng.uniform_f(-100.0f, 100.0f);
    const comm::QuantizedDelta q = comm::quantize(dense, comm::QuantMode::kFp16);
    const std::vector<float> out = comm::dequantize(q);
    for (std::size_t i = 0; i < dense.size(); ++i) {
      // Half precision: 11-bit significand → relative error ≤ 2^-11 for
      // normal values; absolute error ≤ 2^-25 in the subnormal range.
      const double bound =
          std::max(std::abs(static_cast<double>(dense[i])) * 0x1p-11, 0x1p-25);
      EXPECT_LE(std::abs(static_cast<double>(out[i]) - static_cast<double>(dense[i])),
                bound)
          << "v=" << dense[i] << " decoded=" << out[i];
    }
  });
}

TEST(PropertyWire, QuantizeInt8ObeysHalfStepErrorBound) {
  FEDCAV_PROPERTY("int8 quantization error bound", 500, [](Rng& rng) {
    std::vector<float> dense(1 + rng.uniform_int(std::uint64_t{700}));
    const float span = rng.uniform_f(1e-3f, 10.0f);
    for (float& v : dense) v = rng.uniform_f(-span, span);
    const comm::QuantizedDelta q = comm::quantize(dense, comm::QuantMode::kInt8);
    const std::vector<float> out = comm::dequantize(q);
    for (std::size_t i = 0; i < dense.size(); ++i) {
      // Affine rounding lands within half a step of the true value; the
      // slack covers the f32 evaluation of zero + scale·code.
      const double scale = static_cast<double>(q.scales[i / comm::kQuantBlock]);
      const double bound =
          0.5 * scale + 1e-6 * (scale + std::abs(static_cast<double>(dense[i])));
      EXPECT_LE(std::abs(static_cast<double>(out[i]) - static_cast<double>(dense[i])),
                bound)
          << "v=" << dense[i] << " decoded=" << out[i] << " scale=" << scale;
    }
  });
}

TEST(PropertyWire, QuantizeIsIdempotentOnItsOwnReconstruction) {
  FEDCAV_PROPERTY("quantize idempotence", 300, [](Rng& rng) {
    std::vector<float> dense(1 + rng.uniform_int(std::uint64_t{512}));
    for (float& v : dense) v = rng.uniform_f(-5.0f, 5.0f);

    // fp16: every reconstructed value is exactly representable, so a
    // second pass reproduces the first bit-for-bit.
    const std::vector<float> once =
        comm::dequantize(comm::quantize(dense, comm::QuantMode::kFp16));
    const std::vector<float> twice =
        comm::dequantize(comm::quantize(once, comm::QuantMode::kFp16));
    EXPECT_EQ(once, twice);

    // int8: the second pass re-derives block parameters from the
    // reconstruction, so it is not bit-exact — but its error against the
    // first reconstruction must stay within the first code's step size
    // (the code never degrades by re-coding).
    const comm::QuantizedDelta q1 = comm::quantize(dense, comm::QuantMode::kInt8);
    const std::vector<float> r1 = comm::dequantize(q1);
    const std::vector<float> r2 =
        comm::dequantize(comm::quantize(r1, comm::QuantMode::kInt8));
    for (std::size_t i = 0; i < dense.size(); ++i) {
      const double step = static_cast<double>(q1.scales[i / comm::kQuantBlock]);
      EXPECT_LE(std::abs(static_cast<double>(r2[i]) - static_cast<double>(r1[i])),
                0.5 * step + 1e-6);
    }
  });
}

TEST(PropertyWire, QuantizeTopKDropsOnlySmallestAndKeepsExactBudget) {
  FEDCAV_PROPERTY("quantized top-k selection", 300, [](Rng& rng) {
    std::vector<float> dense(8 + rng.uniform_int(std::uint64_t{256}));
    for (float& v : dense) v = rng.uniform_f(-1.0f, 1.0f);
    const double keep = rng.uniform(0.05, 0.95);
    const comm::QuantizedDelta q =
        comm::quantize(dense, gen_quant_mode(rng), keep);
    const std::vector<float> out = comm::dequantize(q);
    ASSERT_EQ(q.mask.size(), (dense.size() + 7) / 8);
    // Every kept coordinate's |v| must be >= every dropped one's.
    float min_kept = std::numeric_limits<float>::infinity();
    float max_dropped = 0.0f;
    for (std::size_t i = 0; i < dense.size(); ++i) {
      const bool kept = (q.mask[i / 8] >> (i % 8)) & 1u;
      if (kept) {
        min_kept = std::min(min_kept, std::abs(dense[i]));
      } else {
        max_dropped = std::max(max_dropped, std::abs(dense[i]));
        EXPECT_EQ(out[i], 0.0f) << "dropped coordinate reconstructed nonzero";
      }
    }
    EXPECT_GE(min_kept, max_dropped);
  });
}

TEST(PropertyWire, QuantizeRejectsNonFiniteInputAnywhere) {
  // std::min/std::max skip NaN, so a per-block range check sees only a
  // block's first value; fp16 would ship ±∞/NaN as codes; and a NaN
  // breaks the strict weak ordering the top-k selection needs.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> dense(300, 0.5f);
  dense[1] = nan;
  EXPECT_THROW(comm::quantize(dense, comm::QuantMode::kInt8, 1.0), Error);
  EXPECT_THROW(comm::quantize(dense, comm::QuantMode::kFp16, 1.0), Error);
  EXPECT_THROW(comm::quantize(dense, comm::QuantMode::kFp16, 0.25), Error);
  dense[1] = 0.5f;
  dense[0] = inf;
  EXPECT_THROW(comm::quantize(dense, comm::QuantMode::kFp16, 1.0), Error);
  // Finite, but the block's range overflows float: no finite int8 scale.
  EXPECT_THROW(comm::quantize(std::vector<float>{-3e38f, 3e38f}, comm::QuantMode::kInt8), Error);

  FEDCAV_PROPERTY("quantize rejects non-finite input", 300, [&](Rng& rng) {
    std::vector<float> values = gen_floats(rng, 600);
    if (values.empty()) return;
    const float bad[] = {nan, inf, -inf};
    values[rng.uniform_int(values.size())] = bad[rng.uniform_int(std::uint64_t{3})];
    const double keep = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.05, 1.0);
    EXPECT_THROW(comm::quantize(values, gen_quant_mode(rng), keep), Error);
  });
}

TEST(PropertyWire, QuantizedDeltaBitFlipDecodesSafely) {
  FEDCAV_PROPERTY("quantized delta bit-flip fuzz", 1000, [](Rng& rng) {
    std::vector<float> dense(1 + rng.uniform_int(std::uint64_t{128}));
    for (float& v : dense) v = rng.uniform_f(-2.0f, 2.0f);
    const double keep = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.1, 1.0);
    ByteBuffer wire = comm::quantize(dense, gen_quant_mode(rng), keep).encode();
    const std::size_t byte = static_cast<std::size_t>(rng.uniform_int(wire.size()));
    wire[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(std::uint64_t{8}));
    // In the real protocol the envelope CRC rejects this before decode
    // ever runs; the codec itself must still never crash or read out of
    // bounds on a mutated image — either a clean fedcav::Error or a
    // structurally consistent delta whose reconstruction is safe.
    ByteReader reader(wire);
    try {
      const comm::QuantizedDelta q = comm::QuantizedDelta::decode(reader);
      const std::vector<float> out = comm::dequantize(q);
      EXPECT_EQ(out.size(), q.dim);
    } catch (const Error&) {
      // rejected cleanly
    }
  });
}

// The regression the fuzz originally caught: a length prefix near 2^64
// made `n * sizeof(float)` wrap back into range inside read_f32_vector,
// so the bound check passed and the reader allocated and read far past
// the buffer. The guard now divides instead of multiplying.
TEST(PropertyWire, HostileLengthPrefixThrowsInsteadOfOverflowing) {
  for (const std::uint64_t n :
       {std::uint64_t{1} << 62, (std::uint64_t{1} << 62) + 1,
        std::uint64_t{0xffffffffffffffffULL}, std::uint64_t{1} << 32}) {
    ByteBuffer bytes;
    write_u64(bytes, n);
    write_f32(bytes, 1.0f);  // a few real bytes so remaining() > 0
    ByteReader reader(bytes);
    EXPECT_THROW((void)reader.read_f32_vector(), Error) << "n=" << n;
  }
}

TEST(PropertyWire, MetadataRoundTripThroughEnvelope) {
  FEDCAV_PROPERTY("metadata round-trip", 1000, [](Rng& rng) {
    comm::MetadataMsg msg;
    msg.round = rng.next_u64();
    msg.client_id = rng.next_u64();
    msg.num_samples = rng.next_u64();
    msg.inference_loss = rng.uniform(-1e30, 1e30);

    Envelope env;
    env.type = MessageType::kMetadataReport;
    env.payload = msg.encode();
    const std::optional<Envelope> decoded = Envelope::try_decode(env.encode());
    ASSERT_TRUE(decoded.has_value());
    ByteReader reader(decoded->payload);
    const comm::MetadataMsg out = comm::MetadataMsg::decode(reader);
    EXPECT_EQ(out.round, msg.round);
    EXPECT_EQ(out.client_id, msg.client_id);
    EXPECT_EQ(out.num_samples, msg.num_samples);
    EXPECT_EQ(out.inference_loss, msg.inference_loss);
  });
}

TEST(PropertyWire, SerializePrimitivesRoundTrip) {
  FEDCAV_PROPERTY("serialize primitives round-trip", 1000, [](Rng& rng) {
    const std::uint8_t u8 = static_cast<std::uint8_t>(rng.uniform_int(256));
    const auto u32 = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint64_t u64 = rng.next_u64();
    const float f32 = rng.uniform_f(-1e30f, 1e30f);
    const double f64 = rng.uniform(-1e300, 1e300);
    const std::vector<float> vec = gen_floats(rng, 32);

    ByteBuffer buf;
    write_u8(buf, u8);
    write_u32(buf, u32);
    write_u64(buf, u64);
    write_f32(buf, f32);
    write_f64(buf, f64);
    write_f32_span(buf, vec);  // writes its own u64 length prefix

    ByteReader reader(buf);
    EXPECT_EQ(reader.read_u8(), u8);
    EXPECT_EQ(reader.read_u32(), u32);
    EXPECT_EQ(reader.read_u64(), u64);
    EXPECT_EQ(reader.read_f32(), f32);
    EXPECT_EQ(reader.read_f64(), f64);
    EXPECT_EQ(reader.read_f32_vector(), vec);
    EXPECT_TRUE(reader.exhausted());
  });
}

TEST(PropertyWire, RngStateRoundTripResumesStream) {
  FEDCAV_PROPERTY("rng state round-trip", 1000, [](Rng& rng) {
    Rng subject(rng.next_u64());
    // Warm the Box-Muller cache on half the cases so both cache states
    // are exercised.
    if (rng.bernoulli(0.5)) (void)subject.normal();

    ByteBuffer buf;
    write_rng_state(buf, subject.state());
    ByteReader reader(buf);
    Rng restored(0);
    restored.set_state(read_rng_state(reader));

    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(restored.next_u64(), subject.next_u64());
    }
    EXPECT_EQ(restored.normal(), subject.normal());
  });
}

}  // namespace
}  // namespace fedcav
