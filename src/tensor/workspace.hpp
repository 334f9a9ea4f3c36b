// Workspace: a small set of persistent, grow-only tensor slots.
//
// Every layer owns one. Hot-path temporaries (outputs, column matrices,
// gradient buffers) are drawn from numbered slots instead of being
// freshly constructed per batch: the first pass through a shape
// allocates, every later pass reuses the buffer (Tensor's grow-only
// capacity), so a steady-state train step performs zero heap
// allocations — asserted by tests/test_alloc_stats.cpp via the
// FEDCAV_ALLOC_STATS counters.
//
// Ownership rules (DESIGN.md §8):
//  * Slot contents are valid until the next get()/zeroed() on the same
//    slot. Layers hand out `const Tensor&` views of their slots; callers
//    that need the data past the layer's next forward/backward must copy.
//  * Copying a Workspace yields an *empty* one: workspaces are caches,
//    not state, so cloned models start cold instead of duplicating
//    scratch buffers.
#pragma once

#include <cstddef>
#include <deque>

#include "src/tensor/tensor.hpp"

namespace fedcav {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) {}  // clones start cold
  Workspace& operator=(const Workspace&) { return *this; }
  Workspace(Workspace&&) noexcept = default;
  Workspace& operator=(Workspace&&) noexcept = default;

  /// The slot tensor resized (contents indeterminate) to `shape`.
  /// Allocation-free once the slot's capacity covers the shape.
  Tensor& get(std::size_t slot, const Shape& shape);

  /// Same, but zero-filled (for accumulation targets like pooling's dx).
  Tensor& zeroed(std::size_t slot, const Shape& shape);

  /// Zero-filled on the FIRST pass through a shape only; later passes
  /// return the buffer as-is. For buffers whose zero regions are
  /// invariant across uses (Conv2D's padded planes: the pad lanes stay
  /// zero forever, only the data rows are rewritten per image), this
  /// drops the per-use memset from the hot path.
  Tensor& zeroed_once(std::size_t slot, const Shape& shape);

  /// An existing slot, contents preserved (throws if never populated).
  /// Used by backward passes to read buffers their forward pass filled.
  const Tensor& at(std::size_t slot) const;

 private:
  // deque, not vector: growing for a new slot must not move existing
  // Tensors — layers hold references into earlier slots while later
  // slots are created (e.g. Conv2D's cols across gemm_out/out).
  std::deque<Tensor> slots_;
  // Per-slot shape of the last zeroed_once() fill (empty = never).
  std::deque<Shape> zeroed_shapes_;
};

}  // namespace fedcav
