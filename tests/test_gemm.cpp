// Kernel cross-check suite: every matmul* entry and the underlying
// packed register-tiled gemm() are compared against the deliberately
// naive triple-loop oracle in test_helpers over adversarial shapes —
// dims straddling the 4×16 register tile (63/64/65), degenerate rank-1
// contractions, and strongly non-square panels.
//
// Tolerances are derived from the documented accumulation policy
// (src/tensor/gemm.hpp): products are accumulated in float32 in k-order,
// so each output element carries at most ~k·eps relative error against
// the float64 oracle, scaled by Σ|a_ik·b_kj| (the classic summation
// bound). We allow a 4× slack on that bound.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/tensor/gemm.hpp"
#include "src/tensor/ops.hpp"
#include "src/utils/error.hpp"
#include "src/utils/rng.hpp"
#include "tests/test_helpers.hpp"

namespace fedcav::ops {
namespace {

using fedcav::testing::naive_matmul;

constexpr std::size_t kDims[] = {1, 3, 63, 64, 65, 130};
constexpr double kEps = std::numeric_limits<float>::epsilon();

Tensor abs_tensor(const Tensor& t) {
  Tensor out = t;
  for (std::size_t i = 0; i < out.numel(); ++i) out[i] = std::fabs(out[i]);
  return out;
}

/// Assert |got - ref| element-wise within the fp32 k-order summation
/// bound: 4 · k · eps · (|A|·|B|)_ij, floored at 4·eps for products that
/// cancel to ~0.
void expect_within_policy(const Tensor& got, const Tensor& ref,
                          const Tensor& bound_matrix, std::size_t k,
                          const char* what) {
  ASSERT_EQ(got.shape(), ref.shape()) << what;
  for (std::size_t i = 0; i < got.numel(); ++i) {
    const double tol =
        4.0 * kEps * (static_cast<double>(k) * static_cast<double>(bound_matrix[i]) + 1.0);
    ASSERT_NEAR(got[i], ref[i], tol) << what << " at flat index " << i;
  }
}

struct Operands {
  Tensor a, b;       // stored per the variant's layout
  Tensor ref;        // float64-accumulated oracle
  Tensor bound;      // |op(A)|·|op(B)| for the error bound
};

Operands make_operands(std::size_t m, std::size_t n, std::size_t k,
                       bool trans_a, bool trans_b, std::uint64_t seed) {
  Rng rng(seed);
  Operands o;
  o.a = Tensor::uniform(trans_a ? Shape::of(k, m) : Shape::of(m, k), rng,
                        -1.0f, 1.0f);
  o.b = Tensor::uniform(trans_b ? Shape::of(n, k) : Shape::of(k, n), rng,
                        -1.0f, 1.0f);
  o.ref = naive_matmul(o.a, o.b, trans_a, trans_b);
  o.bound = naive_matmul(abs_tensor(o.a), abs_tensor(o.b), trans_a, trans_b);
  return o;
}

TEST(GemmCrossCheck, MatmulMatchesNaiveOverAdversarialShapes) {
  std::uint64_t seed = 1;
  for (std::size_t m : kDims) {
    for (std::size_t n : kDims) {
      for (std::size_t k : kDims) {
        const Operands o = make_operands(m, n, k, false, false, seed++);
        Tensor c(Shape::of(m, n));
        matmul(o.a, o.b, c);
        expect_within_policy(c, o.ref, o.bound, k, "matmul");
      }
    }
  }
}

TEST(GemmCrossCheck, MatmulTransposedAMatchesNaive) {
  std::uint64_t seed = 1000;
  for (std::size_t m : kDims) {
    for (std::size_t n : kDims) {
      for (std::size_t k : kDims) {
        const Operands o = make_operands(m, n, k, true, false, seed++);
        Tensor c(Shape::of(m, n));
        matmul_transposed_a(o.a, o.b, c);
        expect_within_policy(c, o.ref, o.bound, k, "matmul_transposed_a");
      }
    }
  }
}

TEST(GemmCrossCheck, MatmulTransposedBMatchesNaive) {
  std::uint64_t seed = 2000;
  for (std::size_t m : kDims) {
    for (std::size_t n : kDims) {
      for (std::size_t k : kDims) {
        const Operands o = make_operands(m, n, k, false, true, seed++);
        Tensor c(Shape::of(m, n));
        matmul_transposed_b(o.a, o.b, c);
        expect_within_policy(c, o.ref, o.bound, k, "matmul_transposed_b");
      }
    }
  }
}

TEST(GemmCrossCheck, GemmBothTransposedMatchesNaive) {
  // The Aᵀ·Bᵀ combination has no matmul* shim; exercise it through the
  // gemm() entry directly.
  std::uint64_t seed = 3000;
  for (std::size_t m : kDims) {
    for (std::size_t n : kDims) {
      for (std::size_t k : kDims) {
        const Operands o = make_operands(m, n, k, true, true, seed++);
        Tensor c(Shape::of(m, n));
        gemm(Trans::kYes, Trans::kYes, o.a, o.b, c);
        expect_within_policy(c, o.ref, o.bound, k, "gemm tt");
      }
    }
  }
}

TEST(GemmCrossCheck, RankOneOuterProductExact) {
  // k = 1 involves no accumulation at all, so every variant must be
  // exactly equal to the scalar product — any tiling bug that reads a
  // padded lane shows up as a hard mismatch here.
  Rng rng(7);
  Tensor a = Tensor::uniform(Shape::of(65, 1), rng, -2.0f, 2.0f);
  Tensor b = Tensor::uniform(Shape::of(1, 63), rng, -2.0f, 2.0f);
  Tensor c(Shape::of(65, 63));
  matmul(a, b, c);
  for (std::size_t i = 0; i < 65; ++i) {
    for (std::size_t j = 0; j < 63; ++j) {
      ASSERT_EQ(c(i, j), a(i, 0) * b(0, j)) << i << "," << j;
    }
  }
}

TEST(Gemm, BetaOneAccumulatesIntoC) {
  Rng rng(8);
  const std::size_t m = 5, n = 17, k = 33;  // all straddle tile edges
  Tensor a = Tensor::uniform(Shape::of(m, k), rng, -1.0f, 1.0f);
  Tensor b = Tensor::uniform(Shape::of(k, n), rng, -1.0f, 1.0f);
  Tensor base = Tensor::uniform(Shape::of(m, n), rng, -1.0f, 1.0f);
  Tensor c = base;
  gemm(Trans::kNo, Trans::kNo, a, b, c, /*beta=*/1.0f);
  Tensor product(Shape::of(m, n));
  gemm(Trans::kNo, Trans::kNo, a, b, product, /*beta=*/0.0f);
  for (std::size_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c[i], base[i] + product[i], 1e-5f);
  }
}

TEST(Gemm, BetaScalesExistingC) {
  Rng rng(9);
  const std::size_t m = 4, n = 16, k = 8;
  Tensor a = Tensor::uniform(Shape::of(m, k), rng, -1.0f, 1.0f);
  Tensor b = Tensor::uniform(Shape::of(k, n), rng, -1.0f, 1.0f);
  Tensor base = Tensor::full(Shape::of(m, n), 2.0f);
  Tensor c = base;
  gemm(Trans::kNo, Trans::kNo, a, b, c, /*beta=*/0.5f);
  Tensor product(Shape::of(m, n));
  gemm(Trans::kNo, Trans::kNo, a, b, product);
  for (std::size_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c[i], 1.0f + product[i], 1e-5f);
  }
}

TEST(Gemm, PrepackedAMatchesFreshPackAcrossReuse) {
  // Conv2D's contract: pack the weight panel once, reuse it against a
  // stream of different B matrices. Results must be bit-identical to
  // packing fresh each time.
  Rng rng(10);
  const std::size_t m = 6, n = 49, k = 150;
  Tensor a = Tensor::uniform(Shape::of(m, k), rng, -1.0f, 1.0f);
  const PackedA packed = pack_a(Trans::kNo, m, k, a.data(), k);
  for (int trial = 0; trial < 4; ++trial) {
    Tensor b = Tensor::uniform(Shape::of(k, n), rng, -1.0f, 1.0f);
    Tensor via_prepack(Shape::of(m, n));
    gemm_prepacked(packed, Trans::kNo, n, b.data(), n, 0.0f,
                   via_prepack.data(), n);
    Tensor via_gemm(Shape::of(m, n));
    gemm(Trans::kNo, Trans::kNo, a, b, via_gemm);
    for (std::size_t i = 0; i < via_gemm.numel(); ++i) {
      ASSERT_EQ(via_prepack[i], via_gemm[i]) << "trial " << trial;
    }
  }
}

TEST(Gemm, RepeatCallsAreBitIdentical) {
  // Kernel-level determinism underpins the end-to-end bit-identical
  // TrainingHistory guarantee (test_integration.cpp).
  Rng rng(11);
  const std::size_t m = 65, n = 130, k = 63;
  Tensor a = Tensor::uniform(Shape::of(m, k), rng, -1.0f, 1.0f);
  Tensor b = Tensor::uniform(Shape::of(k, n), rng, -1.0f, 1.0f);
  Tensor c1(Shape::of(m, n));
  Tensor c2(Shape::of(m, n));
  matmul(a, b, c1);
  matmul(a, b, c2);
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.numel() * sizeof(float)));
}

TEST(Gemm, ZeroLengthContraction) {
  // k = 0 through the raw-pointer entry: C must become beta·C without
  // touching the (empty) operands.
  std::vector<float> c(6, 3.0f);
  gemm(Trans::kNo, Trans::kNo, 2, 3, 0, nullptr, 1, nullptr, 3, 0.0f,
       c.data(), 3);
  for (float v : c) EXPECT_EQ(v, 0.0f);
  std::vector<float> c2(6, 3.0f);
  gemm(Trans::kNo, Trans::kNo, 2, 3, 0, nullptr, 1, nullptr, 3, 0.5f,
       c2.data(), 3);
  for (float v : c2) EXPECT_EQ(v, 1.5f);
}

TEST(Gemm, TensorEntryValidatesShapes) {
  Tensor a(Shape::of(2, 3));
  Tensor b(Shape::of(4, 5));  // inner dim mismatch
  Tensor c(Shape::of(2, 5));
  EXPECT_THROW(gemm(Trans::kNo, Trans::kNo, a, b, c), Error);
  Tensor b_ok(Shape::of(3, 5));
  Tensor c_bad(Shape::of(2, 4));
  EXPECT_THROW(gemm(Trans::kNo, Trans::kNo, a, b_ok, c_bad), Error);
  EXPECT_THROW(gemm(Trans::kNo, Trans::kNo, a.reshaped(Shape::of(6)), b_ok, c),
               Error);
}

TEST(Gemm, StridedOutputLeavesGapsUntouched) {
  // Write a 2×2 product into the top-left corner of a 2×5 buffer via
  // ldc=5; the other columns must survive.
  Rng rng(12);
  Tensor a = Tensor::uniform(Shape::of(2, 3), rng, -1.0f, 1.0f);
  Tensor b = Tensor::uniform(Shape::of(3, 2), rng, -1.0f, 1.0f);
  std::vector<float> c(10, 99.0f);
  gemm(Trans::kNo, Trans::kNo, 2, 2, 3, a.data(), 3, b.data(), 2, 0.0f,
       c.data(), 5);
  Tensor ref = testing::naive_matmul(a, b, false, false);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(c[i * 5 + j], ref(i, j), 1e-5f);
    }
    for (std::size_t j = 2; j < 5; ++j) EXPECT_EQ(c[i * 5 + j], 99.0f);
  }
}

TEST(Gemm, LaneWidthsAreBitIdentical) {
  // gemm_prepacked() runs the micro-kernel at the compile target's
  // vector width (kGemmLanes), so a given host only ever executes one of
  // the three builds. Run all three directly over full, short (mr ≤ 2)
  // and edge (nr < kGemmNr) tiles and require the same C bits, gaps
  // past nr and rows past mr included.
  struct Tile {
    std::size_t mr, nr;
  };
  constexpr Tile kTiles[] = {{4, 16}, {2, 16}, {1, 16}, {2, 5},
                             {1, 1},  {4, 11}, {3, 16}, {3, 7}};
  constexpr std::size_t kDepths[] = {1, 7, 64, 257};
  constexpr std::size_t kLdc = 19;
  Rng rng(21);
  for (const std::size_t k : kDepths) {
    std::vector<float> a_panel(k * kGemmMr);
    std::vector<float> b_panel(k * kGemmNr);
    for (float& v : a_panel) v = rng.uniform_f(-1.0f, 1.0f);
    for (float& v : b_panel) v = rng.uniform_f(-1.0f, 1.0f);
    std::vector<float> c0(kGemmMr * kLdc);
    for (float& v : c0) v = rng.uniform_f(-1.0f, 1.0f);
    for (const Tile& t : kTiles) {
      for (const float beta : {0.0f, 1.0f}) {
        std::vector<float> c4 = c0, c8 = c0, c16 = c0;
        detail::micro_kernel<4>(a_panel.data(), b_panel.data(), k, t.mr, t.nr,
                                beta, c4.data(), kLdc);
        detail::micro_kernel<8>(a_panel.data(), b_panel.data(), k, t.mr, t.nr,
                                beta, c8.data(), kLdc);
        detail::micro_kernel<16>(a_panel.data(), b_panel.data(), k, t.mr,
                                 t.nr, beta, c16.data(), kLdc);
        const std::size_t bytes = c0.size() * sizeof(float);
        EXPECT_EQ(0, std::memcmp(c4.data(), c16.data(), bytes))
            << "4 vs 16 lanes: k " << k << ", mr " << t.mr << ", nr " << t.nr
            << ", beta " << beta;
        EXPECT_EQ(0, std::memcmp(c8.data(), c16.data(), bytes))
            << "8 vs 16 lanes: k " << k << ", mr " << t.mr << ", nr " << t.nr
            << ", beta " << beta;
        EXPECT_NE(0, std::memcmp(c0.data(), c16.data(), bytes))
            << "kernel left C untouched";
      }
    }
  }
}

}  // namespace
}  // namespace fedcav::ops
