#include "src/nn/activation.hpp"

#include <cmath>

#include "src/utils/error.hpp"

namespace fedcav::nn {

const Tensor& ReLU::forward(const Tensor& input, bool training) {
  Tensor& out = ws_.get(kOut, input.shape());
  if (training) mask_.resize_uninitialized(input.shape());
  // restrict: input, output and mask are distinct buffers — the promise
  // lets the compare/select loops vectorize.
  const float* __restrict__ pi = input.data();
  float* __restrict__ po = out.data();
  const std::size_t n = out.numel();
  if (training) {
    float* __restrict__ pm = mask_.data();
    for (std::size_t i = 0; i < n; ++i) {
      const bool positive = pi[i] > 0.0f;
      po[i] = positive ? pi[i] : 0.0f;
      pm[i] = positive ? 1.0f : 0.0f;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) po[i] = pi[i] > 0.0f ? pi[i] : 0.0f;
  }
  return out;
}

const Tensor& ReLU::backward(const Tensor& grad_output) {
  FEDCAV_REQUIRE(mask_.same_shape(grad_output), "ReLU::backward: shape mismatch");
  Tensor& dx = ws_.get(kDx, grad_output.shape());
  const float* __restrict__ pg = grad_output.data();
  float* __restrict__ pd = dx.data();
  const float* __restrict__ pm = mask_.data();
  for (std::size_t i = 0, n = dx.numel(); i < n; ++i) pd[i] = pg[i] * pm[i];
  return dx;
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(); }

const Tensor& LeakyReLU::forward(const Tensor& input, bool training) {
  if (training) cached_input_ = input;
  Tensor& out = ws_.get(kOut, input.shape());
  const float* pi = input.data();
  float* po = out.data();
  for (std::size_t i = 0, n = out.numel(); i < n; ++i) {
    po[i] = pi[i] < 0.0f ? pi[i] * slope_ : pi[i];
  }
  return out;
}

const Tensor& LeakyReLU::backward(const Tensor& grad_output) {
  FEDCAV_REQUIRE(cached_input_.same_shape(grad_output), "LeakyReLU::backward: shape mismatch");
  Tensor& dx = ws_.get(kDx, grad_output.shape());
  const float* pg = grad_output.data();
  float* pd = dx.data();
  const float* pi = cached_input_.data();
  for (std::size_t i = 0, n = dx.numel(); i < n; ++i) {
    pd[i] = pi[i] < 0.0f ? pg[i] * slope_ : pg[i];
  }
  return dx;
}

std::unique_ptr<Layer> LeakyReLU::clone() const {
  return std::make_unique<LeakyReLU>(slope_);
}

const Tensor& Tanh::forward(const Tensor& input, bool training) {
  Tensor& out = ws_.get(kOut, input.shape());
  const float* pi = input.data();
  float* po = out.data();
  for (std::size_t i = 0, n = out.numel(); i < n; ++i) po[i] = std::tanh(pi[i]);
  if (training) cached_output_ = out;
  return out;
}

const Tensor& Tanh::backward(const Tensor& grad_output) {
  FEDCAV_REQUIRE(cached_output_.same_shape(grad_output), "Tanh::backward: shape mismatch");
  Tensor& dx = ws_.get(kDx, grad_output.shape());
  const float* pg = grad_output.data();
  float* pd = dx.data();
  const float* py = cached_output_.data();
  for (std::size_t i = 0, n = dx.numel(); i < n; ++i) {
    pd[i] = pg[i] * (1.0f - py[i] * py[i]);
  }
  return dx;
}

std::unique_ptr<Layer> Tanh::clone() const { return std::make_unique<Tanh>(); }

}  // namespace fedcav::nn
