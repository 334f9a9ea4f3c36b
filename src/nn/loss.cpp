#include "src/nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/tensor/ops.hpp"
#include "src/utils/error.hpp"

namespace fedcav::nn {

namespace {
void check_batch(const Tensor& logits, const std::vector<std::size_t>& labels,
                 const char* who) {
  FEDCAV_REQUIRE(logits.shape().rank() == 2, std::string(who) + ": rank-2 logits required");
  FEDCAV_REQUIRE(logits.shape()[0] == labels.size(),
                 std::string(who) + ": batch size mismatch");
  const std::size_t classes = logits.shape()[1];
  for (std::size_t y : labels) {
    FEDCAV_REQUIRE(y < classes, std::string(who) + ": label out of range");
  }
}
constexpr float kProbFloor = 1e-12f;
}  // namespace

float SoftmaxCrossEntropy::forward(const Tensor& logits,
                                   const std::vector<std::size_t>& labels) {
  check_batch(logits, labels, "SoftmaxCrossEntropy");
  logits_ = logits;  // capacity-reusing copy; backward reads it
  labels_ = labels;
  const std::size_t batch = labels.size();
  const std::size_t classes = logits.shape()[1];
  rowmax_.resize(batch);
  rowsum_.resize(batch);
  double total = 0.0;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits.data() + b * classes;
    // Online softmax: one traversal keeps a running max m and the sum of
    // exp(x - m), rescaling the partial sum whenever the max moves.
    float m = -std::numeric_limits<float>::infinity();
    float s = 0.0f;
    for (std::size_t j = 0; j < classes; ++j) {
      const float x = row[j];
      if (x > m) {
        s = s * std::exp(m - x) + 1.0f;  // rescale old partials, count x
        m = x;
      } else {
        s += std::exp(x - m);
      }
    }
    rowmax_[b] = m;
    rowsum_[b] = s;
    const double py =
        std::max(static_cast<double>(kProbFloor),
                 std::exp(static_cast<double>(row[labels_[b]] - m)) /
                     static_cast<double>(s));
    total += -std::log(py);
  }
  return static_cast<float>(total / static_cast<double>(batch));
}

const Tensor& SoftmaxCrossEntropy::backward() {
  FEDCAV_REQUIRE(logits_.numel() > 0, "SoftmaxCrossEntropy::backward before forward");
  const std::size_t batch = labels_.size();
  const std::size_t classes = logits_.shape()[1];
  const float inv_batch = 1.0f / static_cast<float>(batch);
  grad_.resize_uninitialized(logits_.shape());
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits_.data() + b * classes;
    float* dst = grad_.data() + b * classes;
    const float m = rowmax_[b];
    const float inv_s = 1.0f / rowsum_[b];
    const std::size_t y = labels_[b];
    for (std::size_t j = 0; j < classes; ++j) {
      const float p = std::exp(row[j] - m) * inv_s;
      dst[j] = (p - (j == y ? 1.0f : 0.0f)) * inv_batch;
    }
  }
  return grad_;
}

std::unique_ptr<Loss> SoftmaxCrossEntropy::clone() const {
  return std::make_unique<SoftmaxCrossEntropy>();
}

FocalLoss::FocalLoss(float gamma) : gamma_(gamma) {
  FEDCAV_REQUIRE(gamma >= 0.0f, "FocalLoss: gamma must be non-negative");
}

float FocalLoss::forward(const Tensor& logits, const std::vector<std::size_t>& labels) {
  check_batch(logits, labels, "FocalLoss");
  ops::softmax_rows_into(logits, probs_);
  labels_ = labels;
  const std::size_t batch = labels.size();
  const std::size_t classes = logits.shape()[1];
  double total = 0.0;
  for (std::size_t b = 0; b < batch; ++b) {
    const double pt = std::max(static_cast<double>(kProbFloor),
                               static_cast<double>(probs_.data()[b * classes + labels[b]]));
    total -= std::pow(1.0 - pt, static_cast<double>(gamma_)) * std::log(pt);
  }
  return static_cast<float>(total / static_cast<double>(batch));
}

const Tensor& FocalLoss::backward() {
  FEDCAV_REQUIRE(probs_.numel() > 0, "FocalLoss::backward before forward");
  const std::size_t batch = labels_.size();
  const std::size_t classes = probs_.shape()[1];
  const double g = static_cast<double>(gamma_);
  grad_.resize_uninitialized(probs_.shape());
  // dFL/dz_j = p_j * s - [j == y] * s_y-term, derived from
  // FL = -(1-p_y)^g log(p_y) with softmax p. Let
  //   A = g (1-p_y)^{g-1} p_y log(p_y) - (1-p_y)^g
  // then dFL/dz_j = -A * (delta_{jy} - p_j) ... expanded below.
  for (std::size_t b = 0; b < batch; ++b) {
    const float* p = probs_.data() + b * classes;
    float* dst = grad_.data() + b * classes;
    const std::size_t y = labels_[b];
    const double py = std::max(static_cast<double>(kProbFloor), static_cast<double>(p[y]));
    const double one_minus = std::max(0.0, 1.0 - py);
    const double a = g * std::pow(one_minus, g - 1.0) * py * std::log(py) -
                     std::pow(one_minus, g);
    for (std::size_t j = 0; j < classes; ++j) {
      const double delta = (j == y) ? 1.0 : 0.0;
      dst[j] = static_cast<float>(a * (delta - static_cast<double>(p[j])) /
                                  static_cast<double>(batch));
    }
  }
  return grad_;
}

std::unique_ptr<Loss> FocalLoss::clone() const {
  return std::make_unique<FocalLoss>(gamma_);
}

float MseLoss::forward(const Tensor& logits, const std::vector<std::size_t>& labels) {
  check_batch(logits, labels, "MseLoss");
  logits_ = logits;
  labels_ = labels;
  const std::size_t batch = labels.size();
  const std::size_t classes = logits.shape()[1];
  double total = 0.0;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits.data() + b * classes;
    for (std::size_t j = 0; j < classes; ++j) {
      const double target = (j == labels[b]) ? 1.0 : 0.0;
      const double d = static_cast<double>(row[j]) - target;
      total += d * d;
    }
  }
  return static_cast<float>(total / static_cast<double>(batch * classes));
}

const Tensor& MseLoss::backward() {
  FEDCAV_REQUIRE(logits_.numel() > 0, "MseLoss::backward before forward");
  const std::size_t batch = labels_.size();
  const std::size_t classes = logits_.shape()[1];
  const float scale = 2.0f / static_cast<float>(batch * classes);
  grad_.resize_uninitialized(logits_.shape());
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits_.data() + b * classes;
    float* dst = grad_.data() + b * classes;
    for (std::size_t j = 0; j < classes; ++j) {
      const float target = (j == labels_[b]) ? 1.0f : 0.0f;
      dst[j] = scale * (row[j] - target);
    }
  }
  return grad_;
}

std::unique_ptr<Loss> MseLoss::clone() const { return std::make_unique<MseLoss>(); }

}  // namespace fedcav::nn
