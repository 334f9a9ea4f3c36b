// Loss functions. Each returns the mean loss over the batch from
// forward() and the gradient w.r.t. the logits from backward().
//
// SoftmaxCrossEntropy is the paper's ℓ (Eq. 1). FocalLoss is provided as
// an extension: Fed-Focal (related work [17]) uses it for client
// selection, and it slots into the same training loop.
//
// backward() returns a reference to a loss-owned gradient buffer, valid
// until the next forward()/backward() on the same object (mirrors the
// Layer buffer-ownership contract).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/tensor/tensor.hpp"

namespace fedcav::nn {

class Loss {
 public:
  virtual ~Loss() = default;

  /// Mean loss of `logits` (batch × classes) against integer `labels`.
  /// Caches what backward() needs.
  virtual float forward(const Tensor& logits, const std::vector<std::size_t>& labels) = 0;

  /// d(mean loss)/d(logits) for the cached batch.
  virtual const Tensor& backward() = 0;

  virtual std::string name() const = 0;
  virtual std::unique_ptr<Loss> clone() const = 0;
};

/// Numerically-stable fused softmax + cross-entropy. forward() runs an
/// online softmax (running max + rescaled partial sum) in a single pass
/// over each logit row and never materialises a probability tensor;
/// backward() reconstructs p_j = exp(x_j - m) / s from the cached logits
/// and per-row (m, s) statistics.
class SoftmaxCrossEntropy : public Loss {
 public:
  float forward(const Tensor& logits, const std::vector<std::size_t>& labels) override;
  const Tensor& backward() override;
  std::string name() const override { return "SoftmaxCrossEntropy"; }
  std::unique_ptr<Loss> clone() const override;

 private:
  Tensor logits_;              // cached batch (capacity-reusing copy)
  std::vector<float> rowmax_;  // per-row running max m
  std::vector<float> rowsum_;  // per-row sum of exp(x_j - m)
  std::vector<std::size_t> labels_;
  Tensor grad_;
};

/// Focal loss (Lin et al.): FL(p_t) = -(1-p_t)^gamma log(p_t). gamma=0
/// recovers cross-entropy.
class FocalLoss : public Loss {
 public:
  explicit FocalLoss(float gamma = 2.0f);

  float forward(const Tensor& logits, const std::vector<std::size_t>& labels) override;
  const Tensor& backward() override;
  std::string name() const override { return "FocalLoss"; }
  std::unique_ptr<Loss> clone() const override;

 private:
  float gamma_;
  Tensor probs_;
  std::vector<std::size_t> labels_;
  Tensor grad_;
};

/// Mean squared error against one-hot targets; used by gradient-check
/// tests and as a simple regression head.
class MseLoss : public Loss {
 public:
  float forward(const Tensor& logits, const std::vector<std::size_t>& labels) override;
  const Tensor& backward() override;
  std::string name() const override { return "MseLoss"; }
  std::unique_ptr<Loss> clone() const override;

 private:
  Tensor logits_;
  std::vector<std::size_t> labels_;
  Tensor grad_;
};

}  // namespace fedcav::nn
