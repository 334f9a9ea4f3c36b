#include "src/nn/pool2d.hpp"

#include <limits>

#include "src/utils/error.hpp"

namespace fedcav::nn {

namespace {
void check_pool_input(const Shape& s, std::size_t window, const char* who) {
  FEDCAV_REQUIRE(s.rank() == 4, std::string(who) + ": rank-4 input required");
  FEDCAV_REQUIRE(s[2] >= window && s[3] >= window,
                 std::string(who) + ": window larger than input");
}
}  // namespace

MaxPool2D::MaxPool2D(std::size_t window, std::size_t stride)
    : window_(window), stride_(stride) {
  FEDCAV_REQUIRE(window > 0 && stride > 0, "MaxPool2D: zero window or stride");
}

const Tensor& MaxPool2D::forward(const Tensor& input, bool training) {
  check_pool_input(input.shape(), window_, "MaxPool2D");
  input_shape_ = input.shape();
  const std::size_t batch = input_shape_[0];
  const std::size_t channels = input_shape_[1];
  const std::size_t h = input_shape_[2];
  const std::size_t w = input_shape_[3];
  const std::size_t oh = (h - window_) / stride_ + 1;
  const std::size_t ow = (w - window_) / stride_ + 1;

  Tensor& out = ws_.get(kOut, Shape::of(batch, channels, oh, ow));
  // resize, not assign: every element is overwritten below, and assign's
  // zero pass costs a full traversal per step.
  if (training) argmax_.resize(out.numel());

  const std::size_t planes = batch * channels;
  std::size_t oi = 0;
  for (std::size_t p = 0; p < planes; ++p) {
    const float* plane = input.data() + p * h * w;
    const std::size_t plane_base = p * h * w;
    if (window_ == 2 && stride_ == 2) {
      // The zoo's only pooling geometry: a branchless 2×2 tournament.
      // Data-dependent if-chains mispredict on ~random activations;
      // ternaries compile to cmov/blend. Comparison directions keep
      // the generic loop's first-max-wins tie semantics: on a tie the
      // earlier element (row-major order) survives every round.
      for (std::size_t y = 0; y < oh; ++y) {
        const std::size_t ry = 2 * y * w;
        const float* r0 = plane + ry;
        const float* r1 = r0 + w;
        for (std::size_t x = 0; x < ow; ++x, ++oi) {
          const std::size_t rx = 2 * x;
          const float v0 = r0[rx], v1 = r0[rx + 1];
          const float v2 = r1[rx], v3 = r1[rx + 1];
          const bool t01 = v1 > v0;
          const bool t23 = v3 > v2;
          const float m01 = t01 ? v1 : v0;
          const float m23 = t23 ? v3 : v2;
          const bool tf = m23 > m01;
          out[oi] = tf ? m23 : m01;
          if (training) {
            const std::size_t i01 = ry + rx + (t01 ? 1 : 0);
            const std::size_t i23 = ry + w + rx + (t23 ? 1 : 0);
            argmax_[oi] = plane_base + (tf ? i23 : i01);
          }
        }
      }
      continue;
    }
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x, ++oi) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t dy = 0; dy < window_; ++dy) {
          const float* row = plane + (y * stride_ + dy) * w + x * stride_;
          for (std::size_t dx = 0; dx < window_; ++dx) {
            if (row[dx] > best) {
              best = row[dx];
              best_idx = (y * stride_ + dy) * w + x * stride_ + dx;
            }
          }
        }
        out[oi] = best;
        if (training) argmax_[oi] = plane_base + best_idx;
      }
    }
  }
  return out;
}

const Tensor& MaxPool2D::backward(const Tensor& grad_output) {
  FEDCAV_REQUIRE(!argmax_.empty(), "MaxPool2D::backward before forward(training=true)");
  FEDCAV_REQUIRE(grad_output.numel() == argmax_.size(),
                 "MaxPool2D::backward: grad_output size mismatch");
  Tensor& dx = ws_.zeroed(kDx, input_shape_);
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    dx[argmax_[i]] += grad_output[i];
  }
  return dx;
}

std::string MaxPool2D::name() const {
  return "MaxPool2D(w=" + std::to_string(window_) + ", s=" + std::to_string(stride_) + ")";
}

std::unique_ptr<Layer> MaxPool2D::clone() const {
  return std::make_unique<MaxPool2D>(window_, stride_);
}

AvgPool2D::AvgPool2D(std::size_t window, std::size_t stride)
    : window_(window), stride_(stride) {
  FEDCAV_REQUIRE(window > 0 && stride > 0, "AvgPool2D: zero window or stride");
}

const Tensor& AvgPool2D::forward(const Tensor& input, bool training) {
  (void)training;
  check_pool_input(input.shape(), window_, "AvgPool2D");
  input_shape_ = input.shape();
  const std::size_t batch = input_shape_[0];
  const std::size_t channels = input_shape_[1];
  const std::size_t h = input_shape_[2];
  const std::size_t w = input_shape_[3];
  const std::size_t oh = (h - window_) / stride_ + 1;
  const std::size_t ow = (w - window_) / stride_ + 1;
  const float inv = 1.0f / static_cast<float>(window_ * window_);

  Tensor& out = ws_.get(kOut, Shape::of(batch, channels, oh, ow));
  const std::size_t planes = batch * channels;
  std::size_t oi = 0;
  for (std::size_t p = 0; p < planes; ++p) {
    const float* plane = input.data() + p * h * w;
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x, ++oi) {
        float acc = 0.0f;
        for (std::size_t dy = 0; dy < window_; ++dy) {
          for (std::size_t dx = 0; dx < window_; ++dx) {
            acc += plane[(y * stride_ + dy) * w + (x * stride_ + dx)];
          }
        }
        out[oi] = acc * inv;
      }
    }
  }
  return out;
}

const Tensor& AvgPool2D::backward(const Tensor& grad_output) {
  FEDCAV_REQUIRE(input_shape_.rank() == 4, "AvgPool2D::backward before forward");
  const std::size_t batch = input_shape_[0];
  const std::size_t channels = input_shape_[1];
  const std::size_t h = input_shape_[2];
  const std::size_t w = input_shape_[3];
  const std::size_t oh = (h - window_) / stride_ + 1;
  const std::size_t ow = (w - window_) / stride_ + 1;
  const float inv = 1.0f / static_cast<float>(window_ * window_);

  Tensor& dx = ws_.zeroed(kDx, input_shape_);
  const std::size_t planes = batch * channels;
  std::size_t oi = 0;
  for (std::size_t p = 0; p < planes; ++p) {
    float* plane = dx.data() + p * h * w;
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x, ++oi) {
        const float g = grad_output[oi] * inv;
        for (std::size_t dy = 0; dy < window_; ++dy) {
          for (std::size_t dx2 = 0; dx2 < window_; ++dx2) {
            plane[(y * stride_ + dy) * w + (x * stride_ + dx2)] += g;
          }
        }
      }
    }
  }
  return dx;
}

std::string AvgPool2D::name() const {
  return "AvgPool2D(w=" + std::to_string(window_) + ", s=" + std::to_string(stride_) + ")";
}

std::unique_ptr<Layer> AvgPool2D::clone() const {
  return std::make_unique<AvgPool2D>(window_, stride_);
}

const Tensor& GlobalAvgPool::forward(const Tensor& input, bool training) {
  (void)training;
  FEDCAV_REQUIRE(input.shape().rank() == 4, "GlobalAvgPool: rank-4 input required");
  input_shape_ = input.shape();
  const std::size_t batch = input_shape_[0];
  const std::size_t channels = input_shape_[1];
  const std::size_t plane = input_shape_[2] * input_shape_[3];
  const float inv = 1.0f / static_cast<float>(plane);

  Tensor& out = ws_.get(kOut, Shape::of(batch, channels));
  for (std::size_t p = 0, planes = batch * channels; p < planes; ++p) {
    const float* src = input.data() + p * plane;
    double acc = 0.0;
    for (std::size_t i = 0; i < plane; ++i) acc += static_cast<double>(src[i]);
    out[p] = static_cast<float>(acc) * inv;
  }
  return out;
}

const Tensor& GlobalAvgPool::backward(const Tensor& grad_output) {
  FEDCAV_REQUIRE(input_shape_.rank() == 4, "GlobalAvgPool::backward before forward");
  const std::size_t batch = input_shape_[0];
  const std::size_t channels = input_shape_[1];
  const std::size_t plane = input_shape_[2] * input_shape_[3];
  const float inv = 1.0f / static_cast<float>(plane);

  Tensor& dx = ws_.get(kDx, input_shape_);
  for (std::size_t p = 0, planes = batch * channels; p < planes; ++p) {
    const float g = grad_output[p] * inv;
    float* dst = dx.data() + p * plane;
    for (std::size_t i = 0; i < plane; ++i) dst[i] = g;
  }
  return dx;
}

std::unique_ptr<Layer> GlobalAvgPool::clone() const {
  return std::make_unique<GlobalAvgPool>();
}

}  // namespace fedcav::nn
