// Property suite for aggregation algebra, top-k sparsification, and the
// fabric's state serialization. Mass-generated cases (tests/property.hpp;
// FEDCAV_PROP_CASES / FEDCAV_PROP_SEED) pin:
//   * streaming (incremental) aggregation is bit-identical to one-shot
//     aggregate() for every strategy and every random cohort;
//   * aggregation weights form a convex combination and are invariant
//     to uniform sample-count scaling;
//   * quantize's top-k keeps exactly the reference selection, ties
//     breaking to the lowest index, under fp16 and int8; its code equals
//     a scalar reference coder's byte for byte, dequantize_add equals a
//     scalar scatter bit for bit, and the coded delta round-trips the
//     wire;
//   * InMemoryNetwork::save_state/load_state round-trips in-flight
//     traffic AND the traffic/fault accounting (the checkpoint-v4
//     regression surface).
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "src/comm/compression.hpp"
#include "src/comm/network.hpp"
#include "src/fl/strategy.hpp"
#include "src/utils/error.hpp"
#include "property.hpp"

namespace fedcav {
namespace {

const char* kStrategies[] = {"fedavg", "fedprox", "fedcav", "fedcav-noclip",
                             "median"};

fl::ClientUpdate gen_update(Rng& rng, std::size_t id, std::size_t dim) {
  fl::ClientUpdate u;
  u.client_id = id;
  u.num_samples = 1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{200}));
  u.inference_loss = rng.uniform(0.01, 10.0);
  u.weights.resize(dim);
  for (auto& w : u.weights) w = rng.uniform_f(-2.0f, 2.0f);
  return u;
}

std::vector<fl::ClientUpdate> gen_cohort(Rng& rng, std::size_t n, std::size_t dim) {
  std::vector<fl::ClientUpdate> cohort;
  cohort.reserve(n);
  for (std::size_t i = 0; i < n; ++i) cohort.push_back(gen_update(rng, i, dim));
  return cohort;
}

std::vector<fl::ClientUpdate> scalars_only(const std::vector<fl::ClientUpdate>& updates) {
  std::vector<fl::ClientUpdate> meta = updates;
  for (auto& m : meta) m.weights.clear();
  return meta;
}

bool bits_equal(const nn::Weights& a, const nn::Weights& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(PropertyAgg, IncrementalMatchesOneShotBitwise) {
  // Mostly small cohorts, plus cohorts that fill many pipeline windows.
  const std::size_t kLargeCohorts[] = {31, 257};
  FEDCAV_PROPERTY("incremental == one-shot", 1000, [&](Rng& rng) {
    const std::size_t dim = 1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{24}));
    const std::size_t n =
        rng.bernoulli(0.1) ? kLargeCohorts[rng.uniform_int(std::uint64_t{2})]
                           : 1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{6}));
    const char* name = kStrategies[rng.uniform_int(std::uint64_t{5})];
    std::vector<float> global(dim);
    for (auto& v : global) v = rng.uniform_f(-1.0f, 1.0f);
    const std::vector<fl::ClientUpdate> updates = gen_cohort(rng, n, dim);

    auto one_shot = fl::make_strategy(name);
    auto incremental = fl::make_strategy(name);
    const nn::Weights direct = one_shot->aggregate(global, updates);
    incremental->begin_aggregation(global, scalars_only(updates));
    for (const auto& u : updates) incremental->accumulate(u);
    const nn::Weights streamed = incremental->finish_aggregation();
    EXPECT_TRUE(bits_equal(direct, streamed)) << "strategy " << name;
  });
}

TEST(PropertyAgg, AggregationWeightsAreConvexAndScaleInvariant) {
  FEDCAV_PROPERTY("gamma convex + scale-invariant", 1000, [](Rng& rng) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{6}));
    // FedProx/median delegate to sample-count weights too; FedCav's γ
    // mixes in the inference losses. All must be a convex combination.
    const char* name = kStrategies[rng.uniform_int(std::uint64_t{5})];
    const std::vector<fl::ClientUpdate> updates = gen_cohort(rng, n, 4);
    const auto strategy = fl::make_strategy(name);
    const std::vector<double> gamma = strategy->aggregation_weights(updates);
    ASSERT_EQ(gamma.size(), updates.size());
    double sum = 0.0;
    for (double g : gamma) {
      EXPECT_GE(g, 0.0);
      sum += g;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);

    // Scaling every sample count by the same factor must not move γ.
    std::vector<fl::ClientUpdate> scaled = updates;
    const std::size_t factor = 2 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{8}));
    for (auto& u : scaled) u.num_samples *= factor;
    const std::vector<double> gamma2 = strategy->aggregation_weights(scaled);
    for (std::size_t i = 0; i < gamma.size(); ++i) {
      EXPECT_NEAR(gamma[i], gamma2[i], 1e-9) << "strategy " << name;
    }
  });
}

/// The codec as a scalar reference over the reference selection `kept`:
/// each value coded in turn, int8 blocks ranged by sequential
/// std::min/std::max and clamped with std::clamp.
comm::QuantizedDelta reference_code(const std::vector<float>& dense,
                                    const std::vector<std::uint32_t>& kept, bool sparse,
                                    comm::QuantMode mode) {
  comm::QuantizedDelta ref;
  ref.mode = mode;
  ref.dim = dense.size();
  if (sparse) {
    ref.mask.assign((dense.size() + 7) / 8, 0);
    for (const std::uint32_t i : kept) ref.mask[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  std::vector<float> values;
  for (const std::uint32_t i : kept) values.push_back(dense[i]);
  if (mode == comm::QuantMode::kFp16) {
    for (const float v : values) {
      const std::uint16_t h = comm::f32_to_f16(v);
      ref.data.push_back(static_cast<std::uint8_t>(h & 0xffu));
      ref.data.push_back(static_cast<std::uint8_t>(h >> 8));
    }
    return ref;
  }
  for (std::size_t lo = 0; lo < values.size(); lo += comm::kQuantBlock) {
    const std::size_t hi = std::min(values.size(), lo + comm::kQuantBlock);
    float mn = values[lo];
    float mx = values[lo];
    for (std::size_t i = lo + 1; i < hi; ++i) {
      mn = std::min(mn, values[i]);
      mx = std::max(mx, values[i]);
    }
    const float scale = (mx - mn) / 255.0f;
    ref.scales.push_back(scale);
    ref.zero_points.push_back(mn);
    if (scale <= 0.0f) {
      ref.data.resize(hi);
      continue;
    }
    // A subnormal scale's inverse is infinite, so the block minimum
    // codes as 0·inf = NaN, which the codec maps to code 0.
    const float inv = 1.0f / scale;
    for (std::size_t i = lo; i < hi; ++i) {
      const float q = std::nearbyint((values[i] - mn) * inv);
      ref.data.push_back(std::isnan(q) ? 0 : static_cast<std::uint8_t>(std::clamp(q, 0.0f, 255.0f)));
    }
  }
  return ref;
}

/// quantize's top-k mask against the full (|v| desc, index asc) sort,
/// every byte of the code against reference_code, dequantize_add
/// against a scalar scatter, and the wire round-trip.
void check_topk_case(Rng& rng, std::size_t dim) {
  // Draw from a small value set so ties are the common case, not a
  // corner case: ±0, a subnormal, equal magnitudes of both signs, values
  // that share their top bits with 1.0 but differ lower down, and FLT_MAX
  // (one sign per case: ±FLT_MAX in one int8 block has no finite scale).
  // One case in four draws only +0, −0 and one value of the case's
  // sign, so int8 blocks have a zero min or max with both zeros present.
  const float values[] = {0.0f, 1e-40f, 0.25f, 1.0f, 1.0f + 0x1p-12f,
                          std::nextafter(1.0f, 2.0f), 2.0f, FLT_MAX};
  const float max_sign = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  const bool zero_heavy = rng.bernoulli(0.25);
  std::vector<float> dense(dim);
  for (auto& v : dense) {
    if (zero_heavy) {
      const std::uint64_t pick = rng.uniform_int(std::uint64_t{3});
      v = pick == 0 ? 0.0f : pick == 1 ? -0.0f : max_sign * 0.5f;
      continue;
    }
    const std::size_t pick = rng.uniform_int(std::size(values));
    const float sign = pick + 1 == std::size(values) ? max_sign
                                                     : (rng.bernoulli(0.5) ? 1.0f : -1.0f);
    v = values[pick] * sign;
  }
  // k = 1, k = dim through the top-k path (ratio < 1) and the dense code
  // (ratio 1, no mask) are forced often; the rest spread over (0, 1).
  double ratio = rng.uniform(0.01, 1.0);
  switch (rng.uniform_int(std::uint64_t{5})) {
    case 0: ratio = 0.5 / static_cast<double>(dim); break;
    case 1: ratio = 1.0 - 0.5 / static_cast<double>(dim); break;
    case 2: ratio = 1.0; break;
    default: break;
  }
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(ratio * static_cast<double>(dim))));

  // Reference selection: stable order by (|v| desc, index asc).
  std::vector<std::uint32_t> order(dim);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const float ma = std::abs(dense[a]);
    const float mb = std::abs(dense[b]);
    if (ma != mb) return ma > mb;
    return a < b;
  });
  order.resize(k);
  std::sort(order.begin(), order.end());

  for (const comm::QuantMode mode : {comm::QuantMode::kFp16, comm::QuantMode::kInt8}) {
    const comm::QuantizedDelta q = comm::quantize(dense, mode, ratio);
    // Dropped coordinates reconstruct to zero; fp16 reproduces each kept
    // one as its half-precision code.
    const std::vector<float> out = comm::dequantize(q);
    std::vector<std::uint32_t> kept;
    for (std::uint32_t i = 0; i < dim; ++i) {
      if (!q.mask.empty() && ((q.mask[i / 8] >> (i % 8)) & 1u) == 0) {
        EXPECT_EQ(out[i], 0.0f);
        continue;
      }
      kept.push_back(i);
      if (mode == comm::QuantMode::kFp16) {
        EXPECT_EQ(out[i], comm::f16_to_f32(comm::f32_to_f16(dense[i])));
      }
    }
    ASSERT_EQ(kept, order) << "tie-break must pick the lowest index ("
                           << comm::to_string(mode) << ", dim " << dim << ", k " << k
                           << ")";

    // Every byte of the code, scales and zero points included.
    const comm::QuantizedDelta ref = reference_code(dense, order, ratio < 1.0, mode);
    const ByteBuffer wire = q.encode();
    ASSERT_EQ(wire, ref.encode()) << comm::to_string(mode) << ", dim " << dim << ", k " << k;

    // dequantize_add, bit for bit, against a scalar scatter of the
    // reference values onto a nonzero base.
    std::vector<float> y(dim);
    for (auto& v : y) v = rng.bernoulli(0.2) ? -0.0f : rng.uniform_f(-1.0f, 1.0f);
    std::vector<float> expect = y;
    for (std::size_t n = 0; n < order.size(); ++n) {
      float v = 0.0f;
      if (mode == comm::QuantMode::kFp16) {
        v = comm::f16_to_f32(static_cast<std::uint16_t>(ref.data[2 * n] | (ref.data[2 * n + 1] << 8)));
      } else {
        const std::size_t blk = n / comm::kQuantBlock;
        v = ref.zero_points[blk] + ref.scales[blk] * static_cast<float>(ref.data[n]);
      }
      expect[order[n]] += v;
    }
    comm::dequantize_add(y, q);
    EXPECT_TRUE(bits_equal(y, expect)) << comm::to_string(mode) << ", dim " << dim;

    // Wire round-trip at the exact size.
    EXPECT_EQ(wire.size(), q.wire_size());
    ByteReader reader(wire);
    EXPECT_EQ(comm::QuantizedDelta::decode(reader).encode(), wire);
  }
}

TEST(PropertyAgg, TopKRoundTripAndDeterministicTieBreak) {
  // Many int8 blocks (256 kept values each) per case.
  FEDCAV_PROPERTY("quantized top-k", 1000, [](Rng& rng) {
    check_topk_case(rng, 1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{2048})));
  });
  // The mlp and cnn9 parameter counts, the sizes the fabric codes.
  FEDCAV_PROPERTY("quantized top-k at model sizes", 20, [](Rng& rng) {
    check_topk_case(rng, rng.bernoulli(0.5) ? 6634 : 14082);
  });
}

TEST(PropertyAgg, DequantizeAddRejectsMaskBitsPastDimBeforeWriting) {
  // Hand-built codes that decode would reject: a mask bit at or past dim,
  // in a partial last byte (dim 13) and in a last 64-bit word (dim 70).
  // Each y is its own allocation, so ASan sees a write past it.
  for (const std::size_t dim : {std::size_t{13}, std::size_t{70}}) {
    for (const comm::QuantMode mode : {comm::QuantMode::kFp16, comm::QuantMode::kInt8}) {
      comm::QuantizedDelta q;
      q.mode = mode;
      q.dim = dim;
      q.mask.assign((dim + 7) / 8, 0);
      q.mask[0] = 0x05;                                        // coordinates 0 and 2
      q.mask.back() |= static_cast<std::uint8_t>(1u << (dim % 8));  // coordinate dim
      q.data.assign(mode == comm::QuantMode::kFp16 ? 6 : 3, 0x3c);
      if (mode == comm::QuantMode::kInt8) {
        q.scales = {1.0f};
        q.zero_points = {0.5f};
      }
      ASSERT_EQ(q.count(), 3u);
      std::vector<float> y(dim, 0.25f);
      EXPECT_THROW(comm::dequantize_add(y, q), Error) << comm::to_string(mode) << ", dim " << dim;
      EXPECT_EQ(y, std::vector<float>(dim, 0.25f)) << "nothing is written before the throw";
    }
  }
}

TEST(PropertyAgg, NetworkStateRoundTripPreservesTrafficAndFaultAccounting) {
  FEDCAV_PROPERTY("fabric state round-trip", 300, [](Rng& rng) {
    comm::NetworkConfig config;
    config.num_endpoints = 2 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{3}));
    config.faults.seed = rng.next_u64();
    config.faults.drop_prob = rng.uniform(0.0, 0.5);
    config.faults.duplicate_prob = rng.uniform(0.0, 0.5);
    config.faults.corrupt_prob = rng.uniform(0.0, 0.3);
    config.faults.jitter_s = rng.uniform(0.0, 0.05);
    comm::InMemoryNetwork net(config);
    net.begin_round(1);

    // Random traffic on the server's links (every link has rank 0 at
    // one end), partially drained, so in-flight messages and nonzero
    // counters both survive into the snapshot.
    const std::size_t sends = 1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{20}));
    for (std::size_t i = 0; i < sends; ++i) {
      const auto client =
          1 + static_cast<std::size_t>(rng.uniform_int(config.num_endpoints - 1));
      const bool uplink = rng.bernoulli(0.5);
      const std::size_t src = uplink ? client : 0;
      const std::size_t dst = uplink ? 0 : client;
      comm::Envelope env;
      env.type = comm::MessageType::kMetadataReport;
      env.payload = proptest::gen_bytes(rng, 32);
      net.send(src, dst, env);
      if (rng.bernoulli(0.4)) (void)net.try_recv_wire(dst, src);
    }

    ByteBuffer snapshot;
    net.save_state(snapshot);
    comm::InMemoryNetwork restored(config);
    ByteReader reader(snapshot);
    restored.load_state(reader);
    EXPECT_TRUE(reader.exhausted());

    EXPECT_EQ(restored.pending_messages(), net.pending_messages());
    const comm::TrafficStats a = net.total_stats();
    const comm::TrafficStats b = restored.total_stats();
    EXPECT_EQ(a.messages_sent, b.messages_sent);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
    const comm::FaultStats fa = net.fault_stats();
    const comm::FaultStats fb = restored.fault_stats();
    EXPECT_EQ(fa.dropped, fb.dropped);
    EXPECT_EQ(fa.duplicated, fb.duplicated);
    EXPECT_EQ(fa.corrupted, fb.corrupted);
    EXPECT_EQ(fa.delivered, fb.delivered);
    EXPECT_EQ(fa.jitter_seconds, fb.jitter_seconds);

    // The restored fabric must drain byte-identically to the original.
    for (std::size_t dst = 0; dst < config.num_endpoints; ++dst) {
      for (std::size_t src = 0; src < config.num_endpoints; ++src) {
        while (true) {
          const auto expect = net.try_recv_wire(dst, src);
          const auto got = restored.try_recv_wire(dst, src);
          ASSERT_EQ(expect.has_value(), got.has_value());
          if (!expect.has_value()) break;
          EXPECT_EQ(*expect, *got);
        }
      }
    }
  });
}

}  // namespace
}  // namespace fedcav
