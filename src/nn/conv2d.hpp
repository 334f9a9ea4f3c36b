// 2-D convolution, two layouts by geometry (DESIGN.md §8).
//
// Input: (batch × C_in × H × W); output: (batch × C_out × OH × OW).
// Weights are stored as a (C_out × C_in*KH*KW) matrix. Small stride-1
// kernels whose rows fit a 16-lane vector (2·pad < K, support ≤ 512,
// rows ≤ 16 floats) skip im2col and convolve directly over a padded
// plane copy, image by image, with a vector row accumulator (backward =
// transpose convolution) — unless the output plane is too narrow to
// pay for it. Every other layer is fused: the whole batch is expanded
// into ONE (C_in*KH*KW × batch·OH·OW) column matrix, so forward is a
// single wide GEMM. All temporaries live in a persistent Workspace, so
// steady-state training allocates nothing.
#pragma once

#include "src/nn/layer.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/im2col.hpp"
#include "src/utils/rng.hpp"

namespace fedcav::nn {

class Conv2D : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t pad, std::size_t in_h, std::size_t in_w,
         Rng& rng);

  const Tensor& forward(const Tensor& input, bool training) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::vector<ParamView> params() override;
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

  std::size_t out_channels() const { return out_channels_; }
  std::size_t out_h() const { return geometry_.out_h(); }
  std::size_t out_w() const { return geometry_.out_w(); }

 private:
  Conv2D(const Conv2D&) = default;

  // Small stride-1 kernels skip the im2col lowering entirely: forward
  // and dx run as direct (transpose) convolutions over a padded plane
  // copy. See conv2d.cpp.
  bool use_direct() const;
  // Whether this geometry runs the fused (whole-batch column matrix)
  // layout rather than the direct one; see conv2d.cpp for the crossover.
  bool use_fused() const;
  // Narrow "same"-padded direct geometries (rows ≤ 8 lanes incl. pad)
  // interleave TWO images per 16-lane vector row, doubling lane
  // occupancy over the 8-lane kernels; see conv2d.cpp.
  bool use_pair() const;
  // Vector lane width (8 or 16) the direct kernels run at for this
  // geometry; per-lane math is identical, so it never changes results.
  std::size_t direct_width() const;

  const Tensor& forward_fused(const Tensor& input, std::size_t batch);
  const Tensor& forward_direct(const Tensor& input, std::size_t batch, bool training);
  const Tensor& backward_fused(const Tensor& grad_output, std::size_t batch);
  const Tensor& backward_direct(const Tensor& grad_output, std::size_t batch);

  // Workspace slots (see DESIGN.md §8). On the fused path kCols holds
  // the batch-wide expansion and survives from forward to backward;
  // kCols, kGemmOut, kGmat and kDcols are fused-only. The direct path
  // caches the raw input (cached_in_) instead, which backward re-pads.
  enum Slot : std::size_t {
    kCols = 0, kGemmOut, kOut, kGmat, kDcols, kDx,
    kPadIn,       // forward: zero-padded input planes, one image or pair
    kPadG,        // backward: transpose-padded gradient planes, whole
                  // batch (direct); padded dx scratch, one image (fused)
    kPairOut,     // pair path: 16-wide kernel output before de-interleaving
    kPadInBatch,  // direct backward: zero-padded input planes, whole batch
  };

  Conv2dGeometry geometry_;
  std::size_t out_channels_;
  Tensor weight_;       // (C_out × C_in*KH*KW)
  Tensor bias_;         // (C_out)
  Tensor weight_grad_;
  Tensor bias_grad_;
  Shape in_shape_;      // of the last training forward's input
  bool has_cols_ = false;  // the last training forward's lowering state is live
  Tensor cached_in_;    // direct path: input copy for backward re-padding
  Workspace ws_;
  ops::PackedA packed_w_;   // fused path: forward weight packing
  ops::PackedA packed_wt_;  // fused path: backward Wᵀ packing
};

}  // namespace fedcav::nn
