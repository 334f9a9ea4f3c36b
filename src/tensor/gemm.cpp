#include "src/tensor/gemm.hpp"

#include <algorithm>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/utils/error.hpp"

namespace fedcav::ops {

namespace {

constexpr std::size_t kMr = kGemmMr;
constexpr std::size_t kNr = kGemmNr;

// B-panel scratch, reused across calls on the same thread. Round workers
// train clients concurrently, each running its own GEMMs, so this must
// be thread_local rather than a single static buffer.
std::vector<float>& b_panel_scratch() {
  thread_local std::vector<float> panel;
  return panel;
}

// gemm()'s packed op(A), reused the same way, so a steady-state train
// step's GEMMs touch no heap.
PackedA& a_scratch() {
  thread_local PackedA packed;
  return packed;
}

/// Contraction-axis block size. Panels are kc × kNr = 16 KB, so the B
/// panel stays L1-resident while every A tile streams against it — the
/// batch-fused conv GEMMs contract over k = batch·out_plane (thousands),
/// and an unblocked panel would be re-streamed from L2/L3 once per A
/// tile.
constexpr std::size_t kKc = 256;

/// Pack the k-rows [k0, k0+kc) of NR columns [j0, j0+nr) of op(B) into
/// `panel` (kc × kNr, k-major, zero padded on the right when nr < kNr).
void pack_b_panel(Trans tb, std::size_t n, const float* b, std::size_t ldb,
                  std::size_t j0, std::size_t k0, std::size_t kc, float* panel) {
  const std::size_t nr = std::min(kNr, n - j0);
  if (tb == Trans::kNo) {
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const float* src = b + (k0 + kk) * ldb + j0;
      float* dst = panel + kk * kNr;
      for (std::size_t c = 0; c < nr; ++c) dst[c] = src[c];
      for (std::size_t c = nr; c < kNr; ++c) dst[c] = 0.0f;
    }
  } else {
    // op(B)(kk, j) = B(j, kk): columns of op(B) are rows of B.
    for (std::size_t kk = 0; kk < kc; ++kk) {
      float* dst = panel + kk * kNr;
      for (std::size_t c = 0; c < nr; ++c) dst[c] = b[(j0 + c) * ldb + k0 + kk];
      for (std::size_t c = nr; c < kNr; ++c) dst[c] = 0.0f;
    }
  }
}

// The hot path spells the tile out with GNU vector extensions
// (scalar-broadcast FMA against the B vectors) because the
// autovectorizer picks the 4-wide row axis for the equivalent scalar
// loop nest. Each C row is kGemmNr / L vectors of L lanes; per-lane float
// semantics do not depend on L, so every width is bit-identical.
template <std::size_t L>
struct VecOf {
  typedef float type __attribute__((vector_size(L * sizeof(float))));
};

template <std::size_t L>
inline typename VecOf<L>::type load_lanes(const float* p) {
  typename VecOf<L>::type v;
  __builtin_memcpy(&v, p, sizeof(v));  // unaligned load
  return v;
}

}  // namespace

namespace detail {

template <std::size_t L>
void micro_kernel(const float* a_panel, const float* b_panel, std::size_t k,
                  std::size_t mr, std::size_t nr, float beta, float* c,
                  std::size_t ldc) {
  static_assert(kMr == 4, "micro_kernel unrolls exactly kMr accumulator rows");
  static_assert(kNr % L == 0, "lane width must divide the register tile");
  using V = typename VecOf<L>::type;
  constexpr std::size_t NV = kNr / L;  // hardware vectors per C row
  float acc[kMr][kNr];
  if (mr <= 2) {
    // Short tile: an m-edge of 1–2 rows (e.g. a 6-channel conv leaves a
    // 2-row remainder) would waste half the k-loop on zero-padded
    // accumulator rows; this variant carries only two.
    V a0[NV] = {}, a1[NV] = {};
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* arow = a_panel + kk * kMr;
      for (std::size_t v = 0; v < NV; ++v) {
        const V bv = load_lanes<L>(b_panel + kk * kNr + v * L);
        a0[v] += arow[0] * bv;
        a1[v] += arow[1] * bv;
      }
    }
    __builtin_memcpy(acc[0], a0, sizeof(a0));
    __builtin_memcpy(acc[1], a1, sizeof(a1));
    for (std::size_t r = 0; r < mr; ++r) {
      float* crow = c + r * ldc;
      for (std::size_t col = 0; col < nr; ++col) {
        crow[col] = (beta == 0.0f ? 0.0f : beta * crow[col]) + acc[r][col];
      }
    }
    return;
  }
  V a0[NV] = {}, a1[NV] = {}, a2[NV] = {}, a3[NV] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = a_panel + kk * kMr;
    for (std::size_t v = 0; v < NV; ++v) {
      const V bv = load_lanes<L>(b_panel + kk * kNr + v * L);
      a0[v] += arow[0] * bv;
      a1[v] += arow[1] * bv;
      a2[v] += arow[2] * bv;
      a3[v] += arow[3] * bv;
    }
  }
  __builtin_memcpy(acc[0], a0, sizeof(a0));
  __builtin_memcpy(acc[1], a1, sizeof(a1));
  __builtin_memcpy(acc[2], a2, sizeof(a2));
  __builtin_memcpy(acc[3], a3, sizeof(a3));
  if (mr == kMr && nr == kNr) {
    if (beta == 0.0f) {
      for (std::size_t r = 0; r < kMr; ++r) {
        float* crow = c + r * ldc;
        for (std::size_t col = 0; col < kNr; ++col) crow[col] = acc[r][col];
      }
    } else {
      for (std::size_t r = 0; r < kMr; ++r) {
        float* crow = c + r * ldc;
        for (std::size_t col = 0; col < kNr; ++col) {
          crow[col] = beta * crow[col] + acc[r][col];
        }
      }
    }
    return;
  }
  // Edge tile: bounds-checked scalar writeback.
  for (std::size_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    for (std::size_t col = 0; col < nr; ++col) {
      crow[col] = (beta == 0.0f ? 0.0f : beta * crow[col]) + acc[r][col];
    }
  }
}

template void micro_kernel<4>(const float*, const float*, std::size_t,
                              std::size_t, std::size_t, float, float*,
                              std::size_t);
template void micro_kernel<8>(const float*, const float*, std::size_t,
                              std::size_t, std::size_t, float, float*,
                              std::size_t);
template void micro_kernel<16>(const float*, const float*, std::size_t,
                               std::size_t, std::size_t, float, float*,
                               std::size_t);

}  // namespace detail

PackedA pack_a(Trans ta, std::size_t m, std::size_t k, const float* a,
               std::size_t lda) {
  PackedA packed;
  pack_a_into(ta, m, k, a, lda, packed);
  return packed;
}

void pack_a_into(Trans ta, std::size_t m, std::size_t k, const float* a,
                 std::size_t lda, PackedA& packed) {
  packed.m = m;
  packed.k = k;
  const std::size_t tiles = (m + kMr - 1) / kMr;
  // assign() reuses the vector's capacity, so repacking the same logical
  // shape every step touches no heap.
  packed.data.assign(tiles * k * kMr, 0.0f);
  for (std::size_t t = 0; t < tiles; ++t) {
    const std::size_t i0 = t * kMr;
    const std::size_t mr = std::min(kMr, m - i0);
    float* panel = packed.data.data() + t * k * kMr;
    if (ta == Trans::kNo) {
      for (std::size_t r = 0; r < mr; ++r) {
        const float* src = a + (i0 + r) * lda;
        for (std::size_t kk = 0; kk < k; ++kk) panel[kk * kMr + r] = src[kk];
      }
    } else {
      // op(A)(i, kk) = A(kk, i): walk A row-by-row so reads stay
      // contiguous and the strided writes hit the small packed panel.
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float* src = a + kk * lda + i0;
        float* dst = panel + kk * kMr;
        for (std::size_t r = 0; r < mr; ++r) dst[r] = src[r];
      }
    }
  }
}

void gemm_prepacked(const PackedA& a, Trans tb, std::size_t n, const float* b,
                    std::size_t ldb, float beta, float* c, std::size_t ldc) {
  const std::size_t m = a.m;
  const std::size_t k = a.k;
  if (m == 0 || n == 0) return;
  if (obs::enabled()) {
    // Every GEMM entry point funnels through here, so one pair of
    // counters covers the whole library's matrix-multiply volume.
    static obs::Counter& calls = obs::registry().counter("gemm.calls");
    static obs::Counter& flops = obs::registry().counter("gemm.flops");
    calls.add(1);
    flops.add(static_cast<std::uint64_t>(2) * m * n * k);
  }
  if (k == 0) {
    // Degenerate contraction: C = beta·C.
    for (std::size_t r = 0; r < m; ++r) {
      float* crow = c + r * ldc;
      for (std::size_t col = 0; col < n; ++col) {
        crow[col] = beta == 0.0f ? 0.0f : beta * crow[col];
      }
    }
    return;
  }
  const std::size_t a_tiles = (m + kMr - 1) / kMr;
  const std::size_t j_tiles = (n + kNr - 1) / kNr;
  std::vector<float>& panel = b_panel_scratch();
  panel.resize(std::min(k, kKc) * kNr);
  for (std::size_t jt = 0; jt < j_tiles; ++jt) {
    const std::size_t j0 = jt * kNr;
    for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
      const std::size_t kc = std::min(kKc, k - k0);
      pack_b_panel(tb, n, b, ldb, j0, k0, kc, panel.data());
      // The first k-block applies the caller's beta; later blocks
      // accumulate onto the partial C tile.
      const float blk_beta = k0 == 0 ? beta : 1.0f;
      for (std::size_t t = 0; t < a_tiles; ++t) {
        const std::size_t i0 = t * kMr;
        const std::size_t mr = std::min(kMr, m - i0);
        detail::micro_kernel<kGemmLanes>(
            a.data.data() + t * k * kMr + k0 * kMr, panel.data(), kc, mr,
            std::min(kNr, n - j0), blk_beta, c + i0 * ldc + j0, ldc);
      }
    }
  }
}

void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float beta, float* c, std::size_t ldc) {
  if (m == 0 || n == 0) return;
  PackedA& packed = a_scratch();
  pack_a_into(ta, m, k, a, lda, packed);
  gemm_prepacked(packed, tb, n, b, ldb, beta, c, ldc);
}

void gemm(Trans ta, Trans tb, const Tensor& a, const Tensor& b, Tensor& c,
          float beta) {
  FEDCAV_REQUIRE(a.shape().rank() == 2 && b.shape().rank() == 2 &&
                     c.shape().rank() == 2,
                 "gemm: rank-2 tensors required");
  const std::size_t m = ta == Trans::kNo ? a.shape()[0] : a.shape()[1];
  const std::size_t k = ta == Trans::kNo ? a.shape()[1] : a.shape()[0];
  const std::size_t kb = tb == Trans::kNo ? b.shape()[0] : b.shape()[1];
  const std::size_t n = tb == Trans::kNo ? b.shape()[1] : b.shape()[0];
  FEDCAV_REQUIRE(kb == k, "gemm: inner dimensions differ (" +
                              a.shape().to_string() + " vs " +
                              b.shape().to_string() + ")");
  FEDCAV_REQUIRE(c.shape()[0] == m && c.shape()[1] == n,
                 "gemm: output shape mismatch, want (" + std::to_string(m) +
                     " x " + std::to_string(n) + "), got " +
                     c.shape().to_string());
  gemm(ta, tb, m, n, k, a.data(), a.shape()[1], b.data(), b.shape()[1], beta,
       c.data(), c.shape()[1]);
}

}  // namespace fedcav::ops
