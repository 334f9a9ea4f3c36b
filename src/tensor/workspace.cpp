#include "src/tensor/workspace.hpp"

#include "src/utils/error.hpp"

namespace fedcav {

const Tensor& Workspace::at(std::size_t slot) const {
  FEDCAV_REQUIRE(slot < slots_.size(), "Workspace::at: slot never populated");
  return slots_[slot];
}

Tensor& Workspace::get(std::size_t slot, const Shape& shape) {
  if (slot >= slots_.size()) slots_.resize(slot + 1);
  Tensor& t = slots_[slot];
  t.resize_uninitialized(shape);
  return t;
}

Tensor& Workspace::zeroed(std::size_t slot, const Shape& shape) {
  Tensor& t = get(slot, shape);
  t.fill(0.0f);
  return t;
}

Tensor& Workspace::zeroed_once(std::size_t slot, const Shape& shape) {
  Tensor& t = get(slot, shape);
  if (slot >= zeroed_shapes_.size()) zeroed_shapes_.resize(slot + 1);
  if (zeroed_shapes_[slot] != shape) {
    t.fill(0.0f);
    zeroed_shapes_[slot] = shape;
  }
  return t;
}

}  // namespace fedcav
