#include "src/nn/conv2d.hpp"

#include <algorithm>
#include <cstring>

#include "src/nn/init.hpp"
#include "src/tensor/ops.hpp"
#include "src/utils/error.hpp"

namespace fedcav::nn {

namespace {

// Layout crossover. A plane narrower than this cannot keep the GEMM's
// kGemmNr-wide register tile busy per image (a 3×3 plane fills 9 of 16
// lanes), so such layers fuse the batch into one wide matrix even where
// the direct kernels below would take them. At or above it, a geometry
// the direct kernels accept runs them image by image; every other
// geometry (strided convs, stride-2 1×1 projections, rows wider than
// kDirectMaxW) stays fused at any plane size. A GEMM's per-element
// contraction order does not depend on its n extent, so the fused
// layout's forward values do not depend on the batch size.
constexpr std::size_t kFusedPlaneMax = 2 * ops::kGemmNr;

// A stride-1 convolution whose rows fit the vector accumulators below is
// overhead-bound under im2col+GEMM: the expansion duplicates the image
// K²-fold only to be copied through tiny per-row segments, and the GEMM
// then spends more on lowering, packing and edge tiles than on math. The
// direct path pads the image once (no interval logic, no branches) and
// runs fixed-length row FMAs straight off the padded planes. The support
// bound exists only to keep the weight walk of one output row inside L1;
// every conv in the model zoo is far below it.
constexpr std::size_t kDirectMaxCr = 512;
// One output row must fit the widest vector accumulator below.
constexpr std::size_t kDirectMaxW = 16;
// The row loads read a full vector from arbitrary kw offsets, so padded
// buffers carry this much zeroed slack past the last plane.
constexpr std::size_t kDirectSlack = kDirectMaxW;

// Same trick as the GEMM micro-kernel: a GNU vector keeps a whole output
// row in registers across the kernel walk, so each (kh,kw) tap is one
// unaligned load + one FMA. The kernels are compiled at two lane widths:
// W = 16 (one AVX-512 op per row) for planes up to 16 wide, and W = 8
// (one AVX2 op) for planes no wider than 8, where the wide vector would
// waste over half its lanes. Per-lane float semantics are identical, so
// the width choice never changes results — only occupancy.
template <std::size_t W>
struct VecOf {
  typedef float type __attribute__((vector_size(W * sizeof(float))));
};

template <std::size_t W>
inline typename VecOf<W>::type load_vecw(const float* p) {
  typename VecOf<W>::type v;
  __builtin_memcpy(&v, p, sizeof(v));  // unaligned load
  return v;
}

template <std::size_t W>
inline void store_row(const typename VecOf<W>::type& acc, float* __restrict__ d,
                      std::size_t ow) {
  float buf[W];
  __builtin_memcpy(buf, &acc, sizeof(acc));
  for (std::size_t x = 0; x < ow; ++x) d[x] = buf[x];
}

template <std::size_t W>
inline float lane_sum(const typename VecOf<W>::type& acc) {
  float buf[W];
  __builtin_memcpy(buf, &acc, sizeof(acc));
  float s = 0.0f;
  for (std::size_t l = 0; l < W; ++l) s += buf[l];
  return s;
}

// Pairwise tree fold: log₂(W) rounds of independent adds instead of one
// W-long dependency chain (~4× lower latency at W=16). Used by the k==3
// dW specialization, whose layers are tolerance-tested; the generic dW
// walk keeps the ascending lane_sum above, whose order the golden
// lenet5 run pins.
template <std::size_t W>
inline float lane_sum_tree(const typename VecOf<W>::type& acc) {
  float buf[W];
  __builtin_memcpy(buf, &acc, sizeof(acc));
  for (std::size_t h = W / 2; h > 0; h /= 2) {
    for (std::size_t i = 0; i < h; ++i) buf[i] += buf[i + h];
  }
  return buf[0];
}

// Sum `rows` rows of `row_len` floats (rows `row_stride` apart) into one
// double. The serial variant is ONE dependency chain in historical
// (ascending) order — the order the golden lenet5 run pins. The striped
// variant runs kBiasStripes independent chains (vectorizable: ~8× the
// throughput of the serial chain) and folds them in ascending stripe
// order, then the tail — deterministic, but a DIFFERENT order, so it is
// gated on the BATCH size (a pure function of the input shape): batches
// below kBiasStripeBatch keep the serial chain, which the golden
// configurations (batch 10) sit below.
constexpr std::size_t kBiasStripes = 16;
constexpr std::size_t kBiasStripeBatch = 16;

double sum_rows_serial(const float* base, std::size_t rows,
                       std::size_t row_len, std::size_t row_stride) {
  double acc = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* __restrict__ p = base + r * row_stride;
    for (std::size_t i = 0; i < row_len; ++i) acc += static_cast<double>(p[i]);
  }
  return acc;
}

double sum_rows_striped(const float* base, std::size_t rows,
                        std::size_t row_len, std::size_t row_stride) {
  double stripe[kBiasStripes] = {0.0};
  double tail = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* __restrict__ p = base + r * row_stride;
    std::size_t i = 0;
    for (; i + kBiasStripes <= row_len; i += kBiasStripes) {
      for (std::size_t j = 0; j < kBiasStripes; ++j) {
        stripe[j] += static_cast<double>(p[i + j]);
      }
    }
    for (; i < row_len; ++i) tail += static_cast<double>(p[i]);
  }
  double acc = 0.0;
  for (std::size_t j = 0; j < kBiasStripes; ++j) acc += stripe[j];
  return acc + tail;
}

double sum_rows(const float* base, std::size_t rows, std::size_t row_len,
                std::size_t row_stride, std::size_t batch) {
  return batch >= kBiasStripeBatch
             ? sum_rows_striped(base, rows, row_len, row_stride)
             : sum_rows_serial(base, rows, row_len, row_stride);
}

// Copy `planes` (h × w) planes into a PRE-ZEROED buffer of (h+2p) rows
// of (w + 2p + extra_right) floats each, plus kDirectSlack floats of
// tail slack (the vector loads overrun rows by up to kDirectMaxW-1
// lanes; those lanes are discarded at the store or multiplied by zero,
// but must read mapped, finite memory). extra_right widens the zero run
// after each row's data so conv_dw_padded's full-lane reductions only
// ever sum zeros past out_w. Only the data rows are written: the buffer
// comes from Workspace::zeroed_once (shape Shape::of(planes·ph·pw +
// kDirectSlack)), every image rewrites the same data extents, and the
// kernels never write the buffer — so the pad lanes stay zero for the
// layer's lifetime and the per-image memset is gone.
void pad_planes(const float* src, std::size_t src_readable, std::size_t planes,
                std::size_t h, std::size_t w, std::size_t pad,
                std::size_t extra_right, float* dst) {
  const std::size_t pw = w + 2 * pad + extra_right;
  const std::size_t ph = h + 2 * pad;
  if (w <= 16) {
    // Masked vector copy: one 16-lane store per row, lanes ≥ w forced to
    // zero. The zero lanes re-zero every pad lane the store covers, so
    // the zeroed_once invariant holds even though the store may spill
    // past the row (only zeros land there, and ascending y/plane order
    // rewrites any spilled-over data lanes afterwards; the buffer's
    // kDirectSlack absorbs the final row's spill). The vector LOAD reads
    // 16 floats from the row start; rows within 16 floats of the
    // caller's readable extent (src_readable — the distance to the END
    // of the underlying tensor, not of this image) take the scalar walk
    // so the load never crosses the allocation.
    using V = typename VecOf<16>::type;
    V mask{};
    for (std::size_t l = 0; l < 16; ++l) mask[l] = l < w ? 1.0f : 0.0f;
    for (std::size_t pl = 0; pl < planes; ++pl) {
      for (std::size_t y = 0; y < h; ++y) {
        const std::size_t row_off = (pl * h + y) * w;
        const float* s = src + row_off;
        float* d = dst + pl * ph * pw + (y + pad) * pw + pad;
        if (row_off + 16 > src_readable) {
          for (std::size_t x = 0; x < w; ++x) d[x] = s[x];
        } else {
          const V v = load_vecw<16>(s) * mask;
          __builtin_memcpy(d, &v, sizeof(v));
        }
      }
    }
    return;
  }
  for (std::size_t pl = 0; pl < planes; ++pl) {
    for (std::size_t y = 0; y < h; ++y) {
      const float* __restrict__ s = src + (pl * h + y) * w;
      float* __restrict__ d = dst + pl * ph * pw + (y + pad) * pw + pad;
      for (std::size_t x = 0; x < w; ++x) d[x] = s[x];
    }
  }
}

// Pair-interleaved padding: images A and B share each 16-lane row, each
// owning an 8-lane segment laid out [pad zeros][row data][zeros]. Every
// data row is written FULL-width (pads re-zeroed each time), so only the
// all-zero top/bottom pad rows rely on the zeroed_once invariant. A null
// srcB (odd batch tail) zero-fills the B lanes. See the pair-path note
// above Conv2D::use_pair() for why the segment borrowing is sound.
void pad_planes_pair(const float* srcA, const float* srcB, std::size_t planes,
                     std::size_t h, std::size_t w, std::size_t pad,
                     float* dst) {
  const std::size_t ph = h + 2 * pad;
  for (std::size_t pl = 0; pl < planes; ++pl) {
    for (std::size_t y = 0; y < h; ++y) {
      float buf[16] = {0.0f};
      const float* __restrict__ sa = srcA + (pl * h + y) * w;
      for (std::size_t x = 0; x < w; ++x) buf[pad + x] = sa[x];
      if (srcB != nullptr) {
        const float* __restrict__ sb = srcB + (pl * h + y) * w;
        for (std::size_t x = 0; x < w; ++x) buf[8 + pad + x] = sb[x];
      }
      __builtin_memcpy(dst + (pl * ph + y + pad) * 16, buf, sizeof(buf));
    }
  }
}

// out[c][y][x] = bias[c] + Σ_{ci,kh,kw} W(c, ci·K²+kh·K+kw) ·
// pin[ci][y+kh][x+kw]. The weight walk matches the im2col row order, so
// the contraction order is the GEMM's. Rows are processed four at a time
// — one weight broadcast feeds four row FMAs, lifting the FMA:load ratio
// from 1:2 to 4:5 — which regroups work ACROSS output elements only;
// each element's tap order is untouched, so the blocking is bit-identical
// to the single-row loop (which handles the oh % 4 remainder).

// One (C output channels × R output rows) register block of the forward
// convolution: the C·R accumulators share every input-row load (R rows ×
// one load per kw) against C weight broadcasts, which is what moves the
// kernel from load-bound (1 FMA per 1.25 loads at C=1,R=4) to FMA-bound
// (8 FMAs per 6 loads at C=2,R=4). Each output element still owns one
// accumulator fed in ci→kh→kw tap order, so any (C,R) tiling is
// bit-identical to the C=1,R=1 loop.
template <std::size_t W, std::size_t R, std::size_t C>
inline void conv_fwd_block(const float* pin, std::size_t pplane,
                           std::size_t pw, const float* w, std::size_t c0,
                           const float* bias, std::size_t cin, std::size_t k,
                           std::size_t y, std::size_t oh, std::size_t ow,
                           float* out) {
  using V = typename VecOf<W>::type;
  V acc[C][R];
  const float* wk[C];
  for (std::size_t cc = 0; cc < C; ++cc) {
    V b;
    for (std::size_t l = 0; l < W; ++l) b[l] = bias[c0 + cc];
    for (std::size_t r = 0; r < R; ++r) acc[cc][r] = b;
    wk[cc] = w + (c0 + cc) * cin * k * k;
  }
  for (std::size_t ci = 0; ci < cin; ++ci) {
    const float* pch = pin + ci * pplane;
    for (std::size_t kh = 0; kh < k; ++kh) {
      const float* row0 = pch + (y + kh) * pw;
      for (std::size_t kw = 0; kw < k; ++kw) {
        V rv[R];
        for (std::size_t r = 0; r < R; ++r) {
          rv[r] = load_vecw<W>(row0 + r * pw + kw);
        }
        for (std::size_t cc = 0; cc < C; ++cc) {
          const float wv = *wk[cc]++;
          for (std::size_t r = 0; r < R; ++r) acc[cc][r] += wv * rv[r];
        }
      }
    }
  }
  for (std::size_t cc = 0; cc < C; ++cc) {
    float* orow = out + ((c0 + cc) * oh + y) * ow;
    for (std::size_t r = 0; r < R; ++r) {
      store_row<W>(acc[cc][r], orow + r * ow, ow);
    }
  }
}

template <std::size_t W, std::size_t C>
inline void conv_fwd_rows(const float* pin, std::size_t pplane, std::size_t pw,
                          const float* w, std::size_t c0, const float* bias,
                          std::size_t cin, std::size_t k, std::size_t oh,
                          std::size_t ow, float* out) {
  std::size_t y = 0;
  for (; y + 4 <= oh; y += 4) {
    conv_fwd_block<W, 4, C>(pin, pplane, pw, w, c0, bias, cin, k, y, oh, ow, out);
  }
  if (y + 2 <= oh) {
    conv_fwd_block<W, 2, C>(pin, pplane, pw, w, c0, bias, cin, k, y, oh, ow, out);
    y += 2;
  }
  if (y < oh) {
    conv_fwd_block<W, 1, C>(pin, pplane, pw, w, c0, bias, cin, k, y, oh, ow, out);
  }
}

template <std::size_t W>
void conv_fwd_padded(const float* pin, std::size_t pplane, std::size_t pw,
                     const float* w, const float* bias, std::size_t oc,
                     std::size_t cin, std::size_t k, std::size_t oh,
                     std::size_t ow, float* out) {
  std::size_t c = 0;
  for (; c + 2 <= oc; c += 2) {
    conv_fwd_rows<W, 2>(pin, pplane, pw, w, c, bias, cin, k, oh, ow, out);
  }
  if (c < oc) {
    conv_fwd_rows<W, 1>(pin, pplane, pw, w, c, bias, cin, k, oh, ow, out);
  }
}

// dW(c, ci·K²+kh·K+kw) += Σ_{y,x} g[c][y][x] · pin[ci][y+kh][x+kw],
// computed as one vector accumulator per weight tap swept down the rows,
// with a single lane sum at the end. Reads the TRANSPOSE-padded gradient
// whose rows pad_planes() right-extended, so the lanes past out_w land
// on padding zeros and contribute nothing. C output channels are swept
// together so the input-row loads are shared (the k==3 specialization
// additionally shares each gradient-row load across the three kw taps);
// every tap keeps its own accumulator fed in ascending y with the same
// ascending lane sum, so the (C, kw) grouping never changes results.

// `nimg` padded images (pin/pg strides apart) are swept per call. The
// k==3 specialization accumulates each tap's vector across ALL images
// of the batch before its one horizontal fold — at 7-row planes the
// fold is ~half the kernel's work when done per image. The generic-k
// walk folds PER IMAGE in ascending image order, which is exactly the
// historical per-image call sequence the golden lenet5 run pins (each
// dw scalar receives the same per-image partials in the same order).
template <std::size_t W, std::size_t C>
inline void conv_dw_chans(const float* pin, std::size_t pin_stride,
                          std::size_t pplane, std::size_t pw, const float* pg,
                          std::size_t pg_stride, std::size_t pgplane,
                          std::size_t pgw, std::size_t nimg, std::size_t tpad,
                          std::size_t c0, std::size_t cin, std::size_t k,
                          std::size_t oh, float* dw) {
  using V = typename VecOf<W>::type;
  for (std::size_t ci = 0; ci < cin; ++ci) {
    float* dwtap[C];
    for (std::size_t cc = 0; cc < C; ++cc) {
      dwtap[cc] = dw + ((c0 + cc) * cin + ci) * k * k;
    }
    if (k == 3) {
      for (std::size_t kh = 0; kh < 3; ++kh) {
        V q[C][3];
        for (std::size_t cc = 0; cc < C; ++cc) {
          for (std::size_t j = 0; j < 3; ++j) q[cc][j] = V{};
        }
        for (std::size_t img = 0; img < nimg; ++img) {
          const float* pch = pin + img * pin_stride + ci * pplane;
          const float* gplane[C];
          for (std::size_t cc = 0; cc < C; ++cc) {
            gplane[cc] = pg + img * pg_stride + (c0 + cc) * pgplane +
                         tpad * pgw + tpad;
          }
          for (std::size_t y = 0; y < oh; ++y) {
            const float* prow = pch + (y + kh) * pw;
            const V p0 = load_vecw<W>(prow);
            const V p1 = load_vecw<W>(prow + 1);
            const V p2 = load_vecw<W>(prow + 2);
            for (std::size_t cc = 0; cc < C; ++cc) {
              const V gv = load_vecw<W>(gplane[cc] + y * pgw);
              q[cc][0] += gv * p0;
              q[cc][1] += gv * p1;
              q[cc][2] += gv * p2;
            }
          }
        }
        for (std::size_t cc = 0; cc < C; ++cc) {
          for (std::size_t j = 0; j < 3; ++j) {
            dwtap[cc][kh * 3 + j] += lane_sum_tree<W>(q[cc][j]);
          }
        }
      }
      continue;
    }
    for (std::size_t img = 0; img < nimg; ++img) {
      const float* pch = pin + img * pin_stride + ci * pplane;
      const float* gplane[C];
      for (std::size_t cc = 0; cc < C; ++cc) {
        gplane[cc] =
            pg + img * pg_stride + (c0 + cc) * pgplane + tpad * pgw + tpad;
      }
      for (std::size_t kh = 0; kh < k; ++kh) {
        for (std::size_t kw = 0; kw < k; ++kw) {
          V acc[C];
          for (std::size_t cc = 0; cc < C; ++cc) acc[cc] = V{};
          for (std::size_t y = 0; y < oh; ++y) {
            const V pv = load_vecw<W>(pch + (y + kh) * pw + kw);
            for (std::size_t cc = 0; cc < C; ++cc) {
              acc[cc] += load_vecw<W>(gplane[cc] + y * pgw) * pv;
            }
          }
          for (std::size_t cc = 0; cc < C; ++cc) {
            dwtap[cc][kh * k + kw] += lane_sum<W>(acc[cc]);
          }
        }
      }
    }
  }
}

template <std::size_t W>
void conv_dw_padded(const float* pin, std::size_t pin_stride,
                    std::size_t pplane, std::size_t pw, const float* pg,
                    std::size_t pg_stride, std::size_t pgplane,
                    std::size_t pgw, std::size_t nimg, std::size_t tpad,
                    std::size_t oc, std::size_t cin, std::size_t k,
                    std::size_t oh, float* dw) {
  std::size_t c = 0;
  if (W == 16) {
    // 32 vector registers at this width: a 4-channel group (12 tap
    // accumulators + 4 gradient rows + shared input rows) still fits.
    for (; c + 4 <= oc; c += 4) {
      conv_dw_chans<W, 4>(pin, pin_stride, pplane, pw, pg, pg_stride, pgplane,
                          pgw, nimg, tpad, c, cin, k, oh, dw);
    }
  }
  for (; c + 2 <= oc; c += 2) {
    conv_dw_chans<W, 2>(pin, pin_stride, pplane, pw, pg, pg_stride, pgplane,
                        pgw, nimg, tpad, c, cin, k, oh, dw);
  }
  if (c < oc) {
    conv_dw_chans<W, 1>(pin, pin_stride, pplane, pw, pg, pg_stride, pgplane,
                        pgw, nimg, tpad, c, cin, k, oh, dw);
  }
}

// The transpose: dx[ci][y][x] = Σ_{c,kh,kw} W(c, ci·K²+kh·K+kw) ·
// g[c][y-kh+p][x-kw+p], evaluated branch-free against the gradient
// padded by K-1-p (the transpose-convolution padding identity), with the
// same (C input channels × R rows) register blocking as the forward —
// here the C accumulator groups share the gradient-row loads against C
// weight broadcasts. Per-element tap order (c→kh→kw) is unchanged by
// either grouping.

template <std::size_t W, std::size_t R, std::size_t C>
inline void conv_dx_block(const float* pg, std::size_t pgplane,
                          std::size_t pgw, const float* w, std::size_t ci0,
                          std::size_t oc, std::size_t cin, std::size_t k,
                          std::size_t y, std::size_t h, std::size_t wid,
                          float* dx) {
  using V = typename VecOf<W>::type;
  V acc[C][R];
  for (std::size_t cc = 0; cc < C; ++cc) {
    for (std::size_t r = 0; r < R; ++r) acc[cc][r] = V{};
  }
  for (std::size_t c = 0; c < oc; ++c) {
    const float* pch = pg + c * pgplane;
    const float* wci = w + c * cin * k * k + ci0 * k * k;
    for (std::size_t kh = 0; kh < k; ++kh) {
      const float* row0 = pch + (y + kh) * pgw;
      for (std::size_t kw = 0; kw < k; ++kw) {
        V rv[R];
        for (std::size_t r = 0; r < R; ++r) {
          rv[r] = load_vecw<W>(row0 + r * pgw + kw);
        }
        for (std::size_t cc = 0; cc < C; ++cc) {
          const float wv = wci[cc * k * k + (k - 1 - kh) * k + (k - 1 - kw)];
          for (std::size_t r = 0; r < R; ++r) acc[cc][r] += wv * rv[r];
        }
      }
    }
  }
  for (std::size_t cc = 0; cc < C; ++cc) {
    float* drow = dx + ((ci0 + cc) * h + y) * wid;
    for (std::size_t r = 0; r < R; ++r) {
      store_row<W>(acc[cc][r], drow + r * wid, wid);
    }
  }
}

template <std::size_t W, std::size_t C>
inline void conv_dx_rows(const float* pg, std::size_t pgplane, std::size_t pgw,
                         const float* w, std::size_t ci0, std::size_t oc,
                         std::size_t cin, std::size_t k, std::size_t h,
                         std::size_t wid, float* dx) {
  std::size_t y = 0;
  for (; y + 4 <= h; y += 4) {
    conv_dx_block<W, 4, C>(pg, pgplane, pgw, w, ci0, oc, cin, k, y, h, wid, dx);
  }
  if (y + 2 <= h) {
    conv_dx_block<W, 2, C>(pg, pgplane, pgw, w, ci0, oc, cin, k, y, h, wid, dx);
    y += 2;
  }
  if (y < h) {
    conv_dx_block<W, 1, C>(pg, pgplane, pgw, w, ci0, oc, cin, k, y, h, wid, dx);
  }
}

template <std::size_t W>
void conv_bwd_dx_padded(const float* pg, std::size_t pgplane, std::size_t pgw,
                        const float* w, std::size_t oc, std::size_t cin,
                        std::size_t k, std::size_t h, std::size_t wid,
                        float* dx) {
  std::size_t ci = 0;
  for (; ci + 2 <= cin; ci += 2) {
    conv_dx_rows<W, 2>(pg, pgplane, pgw, w, ci, oc, cin, k, h, wid, dx);
  }
  if (ci < cin) {
    conv_dx_rows<W, 1>(pg, pgplane, pgw, w, ci, oc, cin, k, h, wid, dx);
  }
}

}  // namespace

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t pad, std::size_t in_h, std::size_t in_w,
               Rng& rng)
    : geometry_{in_channels, in_h, in_w, kernel, kernel, stride, pad},
      out_channels_(out_channels),
      weight_(Shape::of(out_channels, in_channels * kernel * kernel)),
      bias_(Shape::of(out_channels)),
      weight_grad_(Shape::of(out_channels, in_channels * kernel * kernel)),
      bias_grad_(Shape::of(out_channels)) {
  geometry_.validate();
  FEDCAV_REQUIRE(out_channels > 0, "Conv2D: zero output channels");
  he_normal(weight_, geometry_.col_rows(), rng);
}

bool Conv2D::use_direct() const {
  // in_w bounds the TRANSPOSE convolution's row store (dx rows), out_w
  // the forward's; both must fit the vector accumulator. 2·pad < kernel
  // keeps the transpose-padded gradient tall enough for the dx row walk
  // (every "valid"/"same" conv satisfies it).
  return geometry_.stride == 1 && geometry_.kernel_h == geometry_.kernel_w &&
         2 * geometry_.pad < geometry_.kernel_h &&
         geometry_.col_rows() <= kDirectMaxCr &&
         geometry_.out_w() <= kDirectMaxW && geometry_.in_w <= kDirectMaxW;
}

std::size_t Conv2D::direct_width() const {
  // Planes no wider than 8 run the 8-lane kernels — the 16-lane vector
  // would waste over half its lanes there. Width never changes per-lane
  // math, only occupancy.
  return std::max(geometry_.out_w(), geometry_.in_w) <= 8 ? 8 : 16;
}

// Pair-interleaved direct path: for "same"-padded geometries (2p+1 = k,
// so out_w = in_w and the transpose pad equals p) whose padded rows fit
// 8 lanes (in_w + p ≤ 8), images A and B share each 16-lane vector row —
// A in lanes 0..7, B in lanes 8..15, each segment [p zeros][data][zeros].
// The construction is self-padding: A's rightmost taps read B's leading
// zeros, B's rightmost taps read the NEXT row's leading zeros (row
// stride is 16, so the vector load's trailing lanes wrap into it), and
// lanes holding wrapped data are either discarded at the store (forward
// / dx write a full 16-wide scratch that the caller de-interleaves) or
// multiplied by a zero gradient lane (dW). The W = 16 kernels run on the
// pair buffers UNMODIFIED with pw = 16: per-lane tap order is identical
// to the per-image walk, so forward and dx are bit-identical to it; only
// dW's full-lane reduction changes (A's and B's contribution fold in one
// lane_sum instead of image order), which no golden-pinned geometry
// observes — lenet5's convs are either wider than 8 (conv1) or fused
// (conv2), so pair eligibility covers tolerance-tested layers only
// (cnn9's 7×7-plane convs). Images pair as (2i, 2i+1); an odd batch's
// last image runs alone with zero B lanes.
bool Conv2D::use_pair() const {
  return use_direct() && 2 * geometry_.pad + 1 == geometry_.kernel_h &&
         geometry_.in_w + geometry_.pad <= 8;
}

const Tensor& Conv2D::forward(const Tensor& input, bool training) {
  const auto& s = input.shape();
  FEDCAV_REQUIRE(s.rank() == 4 && s[1] == geometry_.in_channels &&
                     s[2] == geometry_.in_h && s[3] == geometry_.in_w,
                 "Conv2D::forward: input shape mismatch, got " + s.to_string());
  const std::size_t batch = s[0];
  if (training) {
    in_shape_ = s;
    has_cols_ = true;
  }
  return use_fused() ? forward_fused(input, batch)
                     : forward_direct(input, batch, training);
}

bool Conv2D::use_fused() const {
  // Small planes stay fused even when use_direct() would accept them
  // (lenet5's conv2 — pinned by the golden run); geometries the direct
  // kernels cannot take fuse at any plane size.
  return geometry_.col_cols() < kFusedPlaneMax || !use_direct();
}

// One column matrix for the whole batch, image b owning columns
// [b·plane, (b+1)·plane). Rows stride by n, so W·cols is ONE GEMM; a
// re-interleave pass folds the bias while scattering (C_out ×
// batch·plane) back to (batch × C_out × plane). The weight panel is
// packed here, where it is read, since it changes every optimizer step.
const Tensor& Conv2D::forward_fused(const Tensor& input, std::size_t batch) {
  const std::size_t oh = geometry_.out_h();
  const std::size_t ow = geometry_.out_w();
  const std::size_t plane = oh * ow;
  const std::size_t n = batch * plane;
  const std::size_t image_size = geometry_.in_channels * geometry_.in_h * geometry_.in_w;

  // Pad each image once into scratch, then lower with the branch-free
  // padded walk.
  const std::size_t ppw = geometry_.in_w + 2 * geometry_.pad;
  const std::size_t pplane = (geometry_.in_h + 2 * geometry_.pad) * ppw;
  Tensor& cols = ws_.get(kCols, Shape::of(geometry_.col_rows(), n));
  Tensor& pin = ws_.zeroed_once(
      kPadIn, Shape::of(geometry_.in_channels * pplane + kDirectSlack));
  for (std::size_t b = 0; b < batch; ++b) {
    pad_planes(input.data() + b * image_size, input.numel() - b * image_size,
               geometry_.in_channels, geometry_.in_h, geometry_.in_w,
               geometry_.pad, /*extra_right=*/0, pin.data());
    im2col_padded(geometry_, pin.data(), cols.data() + b * plane, n);
  }

  Tensor& gemm_out = ws_.get(kGemmOut, Shape::of(out_channels_, n));
  ops::pack_a_into(ops::Trans::kNo, out_channels_, geometry_.col_rows(),
                   weight_.data(), geometry_.col_rows(), packed_w_);
  ops::gemm_prepacked(packed_w_, ops::Trans::kNo, n, cols.data(), n,
                      /*beta=*/0.0f, gemm_out.data(), n);

  Tensor& out = ws_.get(kOut, Shape::of(batch, out_channels_, oh, ow));
  for (std::size_t b = 0; b < batch; ++b) {
    float* dst_img = out.data() + b * out_channels_ * plane;
    for (std::size_t c = 0; c < out_channels_; ++c) {
      const float bc = bias_(c);
      const float* src = gemm_out.data() + c * n + b * plane;
      float* d = dst_img + c * plane;
      for (std::size_t i = 0; i < plane; ++i) d[i] = src[i] + bc;
    }
  }
  return out;
}

// Direct padded kernels, image by image (or pair by pair): no lowering
// at all. Training caches the INPUT, which backward re-pads.
const Tensor& Conv2D::forward_direct(const Tensor& input, std::size_t batch,
                                     bool training) {
  const std::size_t oh = geometry_.out_h();
  const std::size_t ow = geometry_.out_w();
  const std::size_t plane = oh * ow;
  const std::size_t image_size = geometry_.in_channels * geometry_.in_h * geometry_.in_w;

  if (training) cached_in_ = input;  // capacity-reusing copy
  Tensor& out = ws_.get(kOut, Shape::of(batch, out_channels_, oh, ow));
  const std::size_t k = geometry_.kernel_h;
  const std::size_t pad = geometry_.pad;
  const std::size_t pw = geometry_.in_w + 2 * pad;
  const std::size_t pplane = (geometry_.in_h + 2 * pad) * pw;
  const std::size_t width = direct_width();
  if (use_pair()) {
    // Two images per kernel invocation (see use_pair()): pad both into
    // one 16-lane-row buffer, run the W = 16 forward on it with a
    // full-width store into the pair scratch, then de-interleave the
    // two images' rows. Per-lane math matches the 8-lane per-image
    // walk exactly, so this is bit-identical to it.
    const std::size_t ph = geometry_.in_h + 2 * pad;
    Tensor& pin = ws_.zeroed_once(
        kPadIn, Shape::of(geometry_.in_channels * ph * 16 + kDirectSlack));
    Tensor& sc = ws_.get(kPairOut, Shape::of(out_channels_ * oh * 16));
    for (std::size_t bA = 0; bA < batch; bA += 2) {
      const bool has_b = bA + 1 < batch;
      pad_planes_pair(input.data() + bA * image_size,
                      has_b ? input.data() + (bA + 1) * image_size : nullptr,
                      geometry_.in_channels, geometry_.in_h, geometry_.in_w,
                      pad, pin.data());
      conv_fwd_padded<16>(pin.data(), ph * 16, 16, weight_.data(),
                          bias_.data(), out_channels_, geometry_.in_channels,
                          k, oh, /*ow=*/16, sc.data());
      for (std::size_t c = 0; c < out_channels_; ++c) {
        for (std::size_t y = 0; y < oh; ++y) {
          const float* __restrict__ srow = sc.data() + (c * oh + y) * 16;
          float* __restrict__ da =
              out.data() + ((bA * out_channels_ + c) * oh + y) * ow;
          for (std::size_t x = 0; x < ow; ++x) da[x] = srow[x];
          if (has_b) {
            float* __restrict__ db =
                out.data() + (((bA + 1) * out_channels_ + c) * oh + y) * ow;
            for (std::size_t x = 0; x < ow; ++x) db[x] = srow[8 + x];
          }
        }
      }
    }
    return out;
  }
  Tensor& pin = ws_.zeroed_once(
      kPadIn, Shape::of(geometry_.in_channels * pplane + kDirectSlack));
  for (std::size_t b = 0; b < batch; ++b) {
    // Copied even for pad == 0: the vector row loads overrun into the
    // buffer's zeroed slack, which the raw input tensor doesn't have.
    pad_planes(input.data() + b * image_size, input.numel() - b * image_size,
               geometry_.in_channels, geometry_.in_h, geometry_.in_w, pad,
               /*extra_right=*/0, pin.data());
    float* ob = out.data() + b * out_channels_ * plane;
    if (width == 8) {
      conv_fwd_padded<8>(pin.data(), pplane, pw, weight_.data(), bias_.data(),
                         out_channels_, geometry_.in_channels, k, oh, ow, ob);
    } else {
      conv_fwd_padded<16>(pin.data(), pplane, pw, weight_.data(),
                          bias_.data(), out_channels_, geometry_.in_channels,
                          k, oh, ow, ob);
    }
  }
  return out;
}

const Tensor& Conv2D::backward(const Tensor& grad_output) {
  FEDCAV_REQUIRE(has_cols_, "Conv2D::backward before forward(training=true)");
  const std::size_t batch = in_shape_[0];
  const std::size_t oh = geometry_.out_h();
  const std::size_t ow = geometry_.out_w();
  FEDCAV_REQUIRE(grad_output.shape().rank() == 4 && grad_output.shape()[0] == batch &&
                     grad_output.shape()[1] == out_channels_ &&
                     grad_output.shape()[2] == oh && grad_output.shape()[3] == ow,
                 "Conv2D::backward: grad_output shape mismatch");
  return use_fused() ? backward_fused(grad_output, batch)
                     : backward_direct(grad_output, batch);
}

const Tensor& Conv2D::backward_fused(const Tensor& grad_output, std::size_t batch) {
  const std::size_t plane = geometry_.col_cols();
  const std::size_t n = batch * plane;
  const std::size_t image_size = geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  const Tensor& cols = ws_.at(kCols);  // the training forward's expansion
  FEDCAV_REQUIRE(cols.shape() == Shape::of(geometry_.col_rows(), n),
                 "Conv2D::backward: stale column matrix (intervening forward?)");

  // View the batch's output gradient as one (C_out × batch·plane) matrix
  // matching the column layout — a strided re-interleave, not a per-image
  // heap copy — and fold the bias row-sums into the same pass.
  Tensor& g = ws_.get(kGmat, Shape::of(out_channels_, n));
  for (std::size_t c = 0; c < out_channels_; ++c) {
    float* grow = g.data() + c * n;
    for (std::size_t b = 0; b < batch; ++b) {
      const float* __restrict__ src =
          grad_output.data() + (b * out_channels_ + c) * plane;
      float* __restrict__ dst = grow + b * plane;
      for (std::size_t i = 0; i < plane; ++i) dst[i] = src[i];
    }
    // Summed over the re-interleaved row, which is the same ascending
    // (b, i) order the interleaved fold used.
    bias_grad_(c) += static_cast<float>(sum_rows(grow, 1, n, 0, batch));
  }

  // dW += G · colsᵀ  ((C_out × batch·plane) · (batch·plane × col_rows)):
  // one whole-batch GEMM accumulated straight into the grad buffer.
  ops::gemm(ops::Trans::kNo, ops::Trans::kYes, out_channels_, geometry_.col_rows(), n,
            g.data(), n, cols.data(), n, /*beta=*/1.0f, weight_grad_.data(),
            geometry_.col_rows());

  // dcols = Wᵀ · G  ((col_rows × C_out) · (C_out × batch·plane)).
  Tensor& dcols = ws_.get(kDcols, Shape::of(geometry_.col_rows(), n));
  ops::pack_a_into(ops::Trans::kYes, geometry_.col_rows(), out_channels_,
                   weight_.data(), geometry_.col_rows(), packed_wt_);
  ops::gemm_prepacked(packed_wt_, ops::Trans::kNo, n, g.data(), n,
                      /*beta=*/0.0f, dcols.data(), n);

  // Scatter-add each image's column gradient into a zeroed padded
  // scratch (branch-free), then unpad into dx; the gradient the pad
  // ring absorbs is dropped.
  const std::size_t ppw = geometry_.in_w + 2 * geometry_.pad;
  const std::size_t pplane = (geometry_.in_h + 2 * geometry_.pad) * ppw;
  const std::size_t pbytes =
      geometry_.in_channels * pplane * sizeof(float);
  Tensor& dx = ws_.get(kDx, in_shape_);
  Tensor& pg = ws_.get(kPadG, Shape::of(geometry_.in_channels * pplane));
  for (std::size_t b = 0; b < batch; ++b) {
    std::memset(pg.data(), 0, pbytes);
    col2im_padded(geometry_, dcols.data() + b * plane, n, pg.data());
    float* __restrict__ dimg = dx.data() + b * image_size;
    for (std::size_t c = 0; c < geometry_.in_channels; ++c) {
      for (std::size_t y = 0; y < geometry_.in_h; ++y) {
        const float* __restrict__ s = pg.data() + c * pplane +
                                      (y + geometry_.pad) * ppw +
                                      geometry_.pad;
        float* __restrict__ d = dimg + (c * geometry_.in_h + y) * geometry_.in_w;
        for (std::size_t x = 0; x < geometry_.in_w; ++x) d[x] = s[x];
      }
    }
  }
  return dx;
}

// The incoming gradient is already per-image (C_out × plane) planes,
// padded straight into the kernels' buffers; dW accumulates into
// weight_grad_ over the whole batch.
const Tensor& Conv2D::backward_direct(const Tensor& grad_output, std::size_t batch) {
  const std::size_t plane = geometry_.col_cols();
  const std::size_t oh = geometry_.out_h();
  const std::size_t ow = geometry_.out_w();
  const std::size_t image_size = geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  FEDCAV_REQUIRE(cached_in_.shape() == in_shape_,
                 "Conv2D::backward: stale cached input (intervening forward?)");

  for (std::size_t c = 0; c < out_channels_; ++c) {
    bias_grad_(c) += static_cast<float>(
        sum_rows(grad_output.data() + c * plane, batch, plane,
                 out_channels_ * plane, batch));
  }

  // The dx kernels overwrite every element, so dx needs no zero pass.
  // The whole batch is padded before the kernels: one dW sweep over all
  // images amortizes each tap's horizontal fold across them (k==3
  // layers) or walks them in the pinned per-image order (generic k) —
  // see conv_dw_chans. The batch buffers have their own kPadInBatch
  // slot, apart from the forward's one-image kPadIn, so both keep a
  // fixed shape and zeroed_once zeroes each only once.
  Tensor& dx = ws_.get(kDx, in_shape_);
  const std::size_t k = geometry_.kernel_h;
  const std::size_t pad = geometry_.pad;
  const std::size_t tpad = k - 1 - pad;  // transpose-conv padding
  if (use_pair()) {
    // Pair-interleaved backward (see use_pair()): pad the gradient and
    // input pairs into 16-lane rows, run ONE dW sweep over all of them,
    // then the dx kernel per pair into a 16-wide scratch de-interleaved
    // below. tpad == pad for these "same" geometries, so one pair layout
    // serves all three roles.
    const std::size_t ph = geometry_.in_h + 2 * pad;
    const std::size_t pgh = oh + 2 * tpad;
    const std::size_t nbuf = (batch + 1) / 2;
    const std::size_t pin_stride = geometry_.in_channels * ph * 16;
    const std::size_t pg_stride = out_channels_ * pgh * 16;
    Tensor& pg =
        ws_.zeroed_once(kPadG, Shape::of(nbuf * pg_stride + kDirectSlack));
    Tensor& pin =
        ws_.zeroed_once(kPadInBatch, Shape::of(nbuf * pin_stride + kDirectSlack));
    Tensor& sc = ws_.get(
        kPairOut, Shape::of(geometry_.in_channels * geometry_.in_h * 16));
    for (std::size_t i = 0; i < nbuf; ++i) {
      const std::size_t b = 2 * i;
      const bool has_b = b + 1 < batch;
      const float* gb = grad_output.data() + b * out_channels_ * plane;
      pad_planes_pair(gb, has_b ? gb + out_channels_ * plane : nullptr,
                      out_channels_, oh, ow, tpad, pg.data() + i * pg_stride);
      const float* ib = cached_in_.data() + b * image_size;
      pad_planes_pair(ib, has_b ? ib + image_size : nullptr,
                      geometry_.in_channels, geometry_.in_h, geometry_.in_w,
                      pad, pin.data() + i * pin_stride);
    }
    conv_dw_padded<16>(pin.data(), pin_stride, ph * 16, 16, pg.data(),
                       pg_stride, pgh * 16, 16, nbuf, tpad, out_channels_,
                       geometry_.in_channels, k, oh, weight_grad_.data());
    for (std::size_t i = 0; i < nbuf; ++i) {
      const std::size_t b = 2 * i;
      const bool has_b = b + 1 < batch;
      conv_bwd_dx_padded<16>(pg.data() + i * pg_stride, pgh * 16, 16,
                             weight_.data(), out_channels_,
                             geometry_.in_channels, k, geometry_.in_h,
                             /*wid=*/16, sc.data());
      for (std::size_t ci = 0; ci < geometry_.in_channels; ++ci) {
        for (std::size_t y = 0; y < geometry_.in_h; ++y) {
          const float* __restrict__ srow =
              sc.data() + (ci * geometry_.in_h + y) * 16;
          float* __restrict__ da = dx.data() + b * image_size +
                                   (ci * geometry_.in_h + y) * geometry_.in_w;
          for (std::size_t x = 0; x < geometry_.in_w; ++x) da[x] = srow[x];
          if (has_b) {
            float* __restrict__ db = da + image_size;
            for (std::size_t x = 0; x < geometry_.in_w; ++x) db[x] = srow[8 + x];
          }
        }
      }
    }
    return dx;
  }
  const std::size_t width = direct_width();
  // conv_dw_padded sums FULL vectors of each gradient row, so every row
  // must be followed by at least (width - ow) zeros before the next
  // row's data; pad_planes right-extends the rows to guarantee it.
  const std::size_t extra_right = width > ow ? width - ow : 0;
  const std::size_t pgw = ow + 2 * tpad + extra_right;
  const std::size_t pgplane = (oh + 2 * tpad) * pgw;
  const std::size_t pw = geometry_.in_w + 2 * pad;
  const std::size_t pplane = (geometry_.in_h + 2 * pad) * pw;
  const std::size_t pin_stride = geometry_.in_channels * pplane;
  const std::size_t pg_stride = out_channels_ * pgplane;
  Tensor& pg =
      ws_.zeroed_once(kPadG, Shape::of(batch * pg_stride + kDirectSlack));
  Tensor& pin =
      ws_.zeroed_once(kPadInBatch, Shape::of(batch * pin_stride + kDirectSlack));
  for (std::size_t b = 0; b < batch; ++b) {
    pad_planes(grad_output.data() + b * out_channels_ * plane,
               grad_output.numel() - b * out_channels_ * plane, out_channels_,
               oh, ow, tpad, extra_right, pg.data() + b * pg_stride);
    pad_planes(cached_in_.data() + b * image_size,
               cached_in_.numel() - b * image_size, geometry_.in_channels,
               geometry_.in_h, geometry_.in_w, pad, /*extra_right=*/0,
               pin.data() + b * pin_stride);
  }
  if (width == 8) {
    conv_dw_padded<8>(pin.data(), pin_stride, pplane, pw, pg.data(), pg_stride,
                      pgplane, pgw, batch, tpad, out_channels_,
                      geometry_.in_channels, k, oh, weight_grad_.data());
    for (std::size_t b = 0; b < batch; ++b) {
      conv_bwd_dx_padded<8>(pg.data() + b * pg_stride, pgplane, pgw,
                            weight_.data(), out_channels_,
                            geometry_.in_channels, k, geometry_.in_h,
                            geometry_.in_w, dx.data() + b * image_size);
    }
  } else {
    conv_dw_padded<16>(pin.data(), pin_stride, pplane, pw, pg.data(), pg_stride,
                       pgplane, pgw, batch, tpad, out_channels_,
                       geometry_.in_channels, k, oh, weight_grad_.data());
    for (std::size_t b = 0; b < batch; ++b) {
      conv_bwd_dx_padded<16>(pg.data() + b * pg_stride, pgplane, pgw,
                             weight_.data(), out_channels_,
                             geometry_.in_channels, k, geometry_.in_h,
                             geometry_.in_w, dx.data() + b * image_size);
    }
  }
  return dx;
}

std::vector<ParamView> Conv2D::params() {
  return {{&weight_, &weight_grad_}, {&bias_, &bias_grad_}};
}

std::string Conv2D::name() const {
  return "Conv2D(" + std::to_string(geometry_.in_channels) + "->" +
         std::to_string(out_channels_) + ", k=" + std::to_string(geometry_.kernel_h) +
         ", s=" + std::to_string(geometry_.stride) + ", p=" + std::to_string(geometry_.pad) +
         ")";
}

std::unique_ptr<Layer> Conv2D::clone() const {
  auto copy = std::unique_ptr<Conv2D>(new Conv2D(*this));
  copy->weight_grad_.fill(0.0f);
  copy->bias_grad_.fill(0.0f);
  copy->in_shape_ = Shape();
  copy->has_cols_ = false;
  copy->cached_in_ = Tensor();
  return copy;
}

}  // namespace fedcav::nn
