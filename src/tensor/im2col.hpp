// im2col / col2im over zero-padded images: lower convolution to GEMM.
//
// Layout convention: images are CHW (channels, height, width); the column
// matrix is (C*KH*KW) × (OH*OW) so that `weights(OC, C*KH*KW) * cols`
// yields the (OC, OH*OW) output feature map in one matmul. Callers pad
// the image first (Conv2D keeps a zeroed scratch whose pad ring stays
// zero), so neither walk checks bounds.
#pragma once

#include <cstddef>

namespace fedcav {

struct Conv2dGeometry {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel_h = 0;
  std::size_t kernel_w = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }
  std::size_t col_rows() const { return in_channels * kernel_h * kernel_w; }
  std::size_t col_cols() const { return out_h() * out_w(); }

  /// Throws if the kernel does not fit the padded input.
  void validate() const;
};

/// Lower one PRE-PADDED CHW image: `padded` holds C planes of
/// (in_h+2·pad) rows × (in_w+2·pad) floats with the pad lanes zero. Row
/// r of the expansion lands at cols + r*ld (ld >= col_cols()), so a
/// whole batch shares one (col_rows × batch·col_cols) matrix by passing,
/// for image b, `cols = base + b*col_cols()` with `ld = batch*col_cols()`.
/// Every source coordinate is in bounds by construction, so each
/// expansion row is a branch-free strided copy.
void im2col_padded(const Conv2dGeometry& g, const float* padded, float* cols,
                   std::size_t ld);

/// Scatter-add the column gradient (same strided layout) into a
/// PRE-ZEROED padded image buffer laid out as im2col_padded's input; the
/// caller unpads afterwards, dropping the gradient the pad ring absorbed.
/// Each destination pixel accumulates in ascending (c, kh, kw) row order.
void col2im_padded(const Conv2dGeometry& g, const float* cols, std::size_t ld,
                   float* padded);

}  // namespace fedcav
