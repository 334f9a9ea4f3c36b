// Packed register-tiled single-precision GEMM micro-kernel.
//
// This is the one matrix-multiply engine in the repo: the three
// `ops::matmul*` entries and the Dense/Conv2D layers all funnel into
// `gemm()` below. The design follows the classic BLIS decomposition,
// shrunk to the model-zoo problem sizes (m, n, k ≤ a few hundred):
//
//  * op(A) is packed once per call into MR-row panels, op(B) into
//    NR-column panels; transposition is absorbed by the packers, so the
//    micro-kernel only ever sees contiguous, zero-padded tiles.
//  * The micro-kernel keeps an MR×NR (4×16) block of C in registers and
//    runs a branch-free FMA loop over k — with `-O3 -march=native` the
//    compiler lowers it to broadcast/load/FMA vector code.
//  * Edge tiles are packed with explicit zero padding and written back
//    through bounds-checked scalar loops, so no shape is special-cased
//    inside the hot loop.
//
// Accumulation policy (load-bearing for test tolerances): all products
// are accumulated in float32, in k-order within a tile. The seed kernels
// disagreed with each other (`matmul` accumulated in float while
// `matmul_transposed_b` accumulated in double); the unified policy is
// fp32 everywhere, which bounds the error of a length-k dot product by
// ~k·eps relative to the double-precision reference (see
// tests/test_gemm.cpp for the derived tolerance).
#pragma once

#include <cstddef>
#include <vector>

#include "src/tensor/tensor.hpp"

namespace fedcav::ops {

enum class Trans : bool { kNo = false, kYes = true };

/// Register-tile footprint of the micro-kernel. 4 rows × 16 columns of
/// float32 C accumulators = 8 AVX2 vectors, leaving registers for the A
/// broadcast and two B loads.
inline constexpr std::size_t kGemmMr = 4;
inline constexpr std::size_t kGemmNr = 16;

/// Vector lane width the micro-kernel is compiled at: the compile
/// target's float vector width, so each lane group is one hardware op
/// (16 = one AVX-512 register per C row, 8 = two AVX registers, 4 =
/// four SSE/NEON registers). It follows the target, not the CPU the
/// binary later runs on: a kernel wider than the target's vectors is
/// split by the compiler into slow emulated ops. Every width is
/// bit-identical per lane (tests/test_gemm.cpp checks all three).
#if defined(__AVX512F__)
inline constexpr std::size_t kGemmLanes = 16;
#elif defined(__AVX__)
inline constexpr std::size_t kGemmLanes = 8;
#else
inline constexpr std::size_t kGemmLanes = 4;
#endif

/// op(A) packed into kGemmMr-row panels (k-major within a panel), zero
/// padded to a multiple of kGemmMr rows. Conv2D repacks its weights
/// into a member PackedA on every fused pass (pack_a_into), so the panel
/// buffer is reused instead of allocated per call.
struct PackedA {
  std::vector<float> data;
  std::size_t m = 0;  // logical rows of op(A)
  std::size_t k = 0;  // logical cols of op(A)
};

/// Pack op(A) where A is a row-major m×k (ta == kNo) or k×m (ta == kYes)
/// matrix with leading dimension `lda`.
PackedA pack_a(Trans ta, std::size_t m, std::size_t k, const float* a, std::size_t lda);

/// Same, packing into an existing PackedA whose buffer is reused when
/// large enough — the allocation-free path for per-step repacking (the
/// weight matrix changes every optimizer step, but its packed footprint
/// does not).
void pack_a_into(Trans ta, std::size_t m, std::size_t k, const float* a,
                 std::size_t lda, PackedA& out);

/// C = op(A)·op(B) + beta·C over raw row-major buffers.
/// op(A) is m×k, op(B) is k×n, C is m×n with leading dimension `ldc`.
/// beta is either 0 (overwrite C) or an arbitrary scale on the existing
/// contents (1 accumulates, as in gradient buffers).
void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float beta, float* c, std::size_t ldc);

/// Same, with op(A) already packed.
void gemm_prepacked(const PackedA& a, Trans tb, std::size_t n, const float* b,
                    std::size_t ldb, float beta, float* c, std::size_t ldc);

/// Tensor-level entry with shape validation: C = op(A)·op(B) + beta·C.
/// Shapes: op(A) m×k, op(B) k×n, C preallocated m×n.
void gemm(Trans ta, Trans tb, const Tensor& a, const Tensor& b, Tensor& c,
          float beta = 0.0f);

namespace detail {

/// The register-tiled inner kernel at lane width L: C[0:mr, 0:nr] (row
/// stride ldc) gets beta·C plus the length-k contraction of one packed
/// A panel (k × kGemmMr) with one packed B panel (k × kGemmNr).
/// gemm_prepacked() runs L = kGemmLanes; gemm.cpp instantiates 4, 8 and
/// 16 so tests can compare the widths on any host.
template <std::size_t L>
void micro_kernel(const float* a_panel, const float* b_panel, std::size_t k,
                  std::size_t mr, std::size_t nr, float beta, float* c,
                  std::size_t ldc);

}  // namespace detail

}  // namespace fedcav::ops
