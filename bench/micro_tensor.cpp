// Microbenchmarks for the tensor substrate: GEMM, conv lowering,
// softmax and the flat-vector kernels the aggregation path leans on.
#include <benchmark/benchmark.h>

#include "src/nn/conv2d.hpp"
#include "src/tensor/im2col.hpp"
#include "src/tensor/ops.hpp"
#include "src/utils/rng.hpp"

namespace {

using namespace fedcav;

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::uniform(Shape::of(n, n), rng, -1.0f, 1.0f);
  Tensor b = Tensor::uniform(Shape::of(n, n), rng, -1.0f, 1.0f);
  Tensor c(Shape::of(n, n));
  for (auto _ : state) {
    ops::matmul(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

void BM_MatmulTransposedB(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Tensor a = Tensor::uniform(Shape::of(n, n), rng, -1.0f, 1.0f);
  Tensor b = Tensor::uniform(Shape::of(n, n), rng, -1.0f, 1.0f);
  Tensor c(Shape::of(n, n));
  for (auto _ : state) {
    ops::matmul_transposed_b(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatmulTransposedB)->Arg(64);

void BM_Im2Col(benchmark::State& state) {
  // Lowers an already padded image, as Conv2D's fused path does after
  // copying each image into its zero-ringed scratch.
  Conv2dGeometry g{8, 14, 14, 3, 3, 1, 1};
  Rng rng(3);
  std::vector<float> padded(8 * 16 * 16, 0.0f);
  for (std::size_t c = 0; c < 8; ++c) {
    for (std::size_t y = 0; y < 14; ++y) {
      for (std::size_t x = 0; x < 14; ++x) {
        padded[(c * 16 + y + 1) * 16 + x + 1] = rng.uniform_f(-1.0f, 1.0f);
      }
    }
  }
  Tensor cols(Shape::of(g.col_rows(), g.col_cols()));
  for (auto _ : state) {
    im2col_padded(g, padded.data(), cols.data(), g.col_cols());
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2Col);

void BM_Conv2DForward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  nn::Conv2D conv(1, 8, 3, 1, 1, 14, 14, rng);
  Tensor input = Tensor::uniform(Shape::of(batch, 1, 14, 14), rng, -1.0f, 1.0f);
  for (auto _ : state) {
    Tensor out = conv.forward(input, false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_Conv2DForward)->Arg(1)->Arg(10)->Arg(32);

void BM_Conv2DBackward(benchmark::State& state) {
  Rng rng(5);
  nn::Conv2D conv(1, 8, 3, 1, 1, 14, 14, rng);
  Tensor input = Tensor::uniform(Shape::of(10, 1, 14, 14), rng, -1.0f, 1.0f);
  Tensor out = conv.forward(input, true);
  Tensor grad(out.shape(), 1.0f);
  for (auto _ : state) {
    conv.zero_grad();
    Tensor dx = conv.backward(grad);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_Conv2DBackward);

void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(6);
  Tensor logits = Tensor::uniform(Shape::of(64, 10), rng, -4.0f, 4.0f);
  for (auto _ : state) {
    Tensor p = ops::softmax_rows(logits);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_SoftmaxRows);

void BM_FlatAxpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<float> y(n, 0.0f);
  std::vector<float> x(n);
  for (auto& v : x) v = rng.uniform_f(-1.0f, 1.0f);
  for (auto _ : state) {
    ops::axpy(std::span<float>(y), 0.5f, std::span<const float>(x));
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float) * 2));
}
BENCHMARK(BM_FlatAxpy)->Arg(12502)->Arg(100000);

}  // namespace
