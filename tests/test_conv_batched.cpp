// Conv2D's two layouts vs a naive direct-convolution oracle.
//
// Conv2D either lowers the whole batch into one (col_rows × batch·oh·ow)
// column matrix and runs a single GEMM per call (fused), or convolves
// each image directly over a padded copy (direct). These tests pin both
// to the textbook quadruple loop on awkward geometries (padding, stride,
// edge-tile channel counts, planes on both sides of the layout
// crossover) for batch = 1 and batch > 1, plus finite-difference
// gradient checks on the same geometries.
#include <gtest/gtest.h>

#include <cstddef>
#include <ostream>
#include <vector>

#include "src/nn/conv2d.hpp"
#include "src/tensor/tensor.hpp"
#include "src/utils/rng.hpp"
#include "tests/test_helpers.hpp"

namespace fedcav {
namespace {

using nn::Conv2D;

struct ConvCase {
  std::size_t batch, in_c, out_c, h, w, kernel, stride, pad;
};

// Without this gtest prints the case as a byte dump, and ctest names the
// test after that print (e.g. batch4_2to3ch_8x8_k3_s1_p1).
void PrintTo(const ConvCase& g, std::ostream* os) {
  *os << "batch" << g.batch << '_' << g.in_c << "to" << g.out_c << "ch_" << g.h << 'x' << g.w
      << "_k" << g.kernel << "_s" << g.stride << "_p" << g.pad;
}

// Direct convolution, float64 accumulation: the trusted reference.
Tensor naive_conv(const Tensor& input, const Tensor& weight, const Tensor& bias,
                  const ConvCase& g) {
  const std::size_t oh = (g.h + 2 * g.pad - g.kernel) / g.stride + 1;
  const std::size_t ow = (g.w + 2 * g.pad - g.kernel) / g.stride + 1;
  Tensor out(Shape::of(g.batch, g.out_c, oh, ow));
  for (std::size_t b = 0; b < g.batch; ++b) {
    for (std::size_t oc = 0; oc < g.out_c; ++oc) {
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          double acc = static_cast<double>(bias(oc));
          for (std::size_t ic = 0; ic < g.in_c; ++ic) {
            for (std::size_t kh = 0; kh < g.kernel; ++kh) {
              for (std::size_t kw = 0; kw < g.kernel; ++kw) {
                const long long sy = static_cast<long long>(y * g.stride + kh) -
                                     static_cast<long long>(g.pad);
                const long long sx = static_cast<long long>(x * g.stride + kw) -
                                     static_cast<long long>(g.pad);
                if (sy < 0 || sy >= static_cast<long long>(g.h) || sx < 0 ||
                    sx >= static_cast<long long>(g.w)) {
                  continue;
                }
                const float v = input(b, ic, static_cast<std::size_t>(sy),
                                      static_cast<std::size_t>(sx));
                const float wv = weight(oc, (ic * g.kernel + kh) * g.kernel + kw);
                acc += static_cast<double>(v) * static_cast<double>(wv);
              }
            }
          }
          out(b, oc, y, x) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

const ConvCase kCases[] = {
    {1, 2, 3, 8, 8, 3, 1, 1},   // padded, batch = 1
    {4, 2, 3, 8, 8, 3, 1, 1},   // padded, batch > 1
    {3, 2, 5, 9, 9, 3, 2, 0},   // strided
    {5, 1, 2, 7, 7, 3, 2, 1},   // strided + padded
    {2, 3, 7, 6, 6, 1, 1, 0},   // 1×1 kernel, edge-tile channel count
    {6, 1, 4, 5, 5, 5, 1, 2},   // kernel = input side, heavy padding
    {2, 2, 3, 1, 1, 5, 1, 2},   // 1×1 input under a 5×5 kernel: every
                                // kernel row/col but the centre is pure
                                // padding (degenerate valid intervals)
    {2, 2, 3, 20, 20, 3, 2, 1},   // strided, 10×10 plane: fused above
                                  // 64 columns per image
    {2, 4, 16, 18, 18, 3, 1, 1},  // stride 1 but 18-wide rows, past the
                                  // direct kernels' 16 lanes: fused
};

class ConvBatched : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvBatched, ForwardMatchesNaiveOracle) {
  const ConvCase g = GetParam();
  Rng rng(0x5eed + g.batch * 131 + g.kernel);
  Conv2D conv(g.in_c, g.out_c, g.kernel, g.stride, g.pad, g.h, g.w, rng);
  const Tensor input = Tensor::uniform(Shape::of(g.batch, g.in_c, g.h, g.w), rng,
                                       -1.0f, 1.0f);
  const Tensor& weight = *conv.params()[0].value;
  const Tensor& bias = *conv.params()[1].value;

  const Tensor expected = naive_conv(input, weight, bias, g);
  const Tensor& got = conv.forward(input, /*training=*/false);
  ASSERT_TRUE(got.same_shape(expected));
  for (std::size_t i = 0; i < got.numel(); ++i) {
    ASSERT_NEAR(got[i], expected[i], 1e-4f) << "flat index " << i;
  }
}

TEST_P(ConvBatched, BackwardMatchesNumericGradient) {
  const ConvCase g = GetParam();
  Rng rng(0xbeef + g.stride);
  Conv2D conv(g.in_c, g.out_c, g.kernel, g.stride, g.pad, g.h, g.w, rng);
  const Tensor input = Tensor::uniform(Shape::of(g.batch, g.in_c, g.h, g.w), rng,
                                       -1.0f, 1.0f);
  // eps = 1e-2 as in the test_zoo_training sweep: the check's loss is
  // quadratic, so larger eps only reduces float32 rounding noise.
  EXPECT_LT(testing::gradient_check_layer(conv, input, /*eps=*/1e-2), 2e-2);
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvBatched, ::testing::ValuesIn(kCases));

// Forward must not depend on how the batch is sliced: running images
// one at a time gives bitwise-identical planes to the fused whole-batch
// GEMM (same k-order dot products).
TEST(ConvBatched, PerImageSlicesMatchFusedBatch) {
  const ConvCase g{4, 2, 3, 8, 8, 3, 1, 1};
  Rng rng(77);
  Conv2D conv(g.in_c, g.out_c, g.kernel, g.stride, g.pad, g.h, g.w, rng);
  const Tensor batch_in = Tensor::uniform(Shape::of(g.batch, g.in_c, g.h, g.w), rng,
                                          -1.0f, 1.0f);
  const Tensor fused = conv.forward(batch_in, /*training=*/false);

  const std::size_t image = g.in_c * g.h * g.w;
  const std::size_t out_image = fused.numel() / g.batch;
  for (std::size_t b = 0; b < g.batch; ++b) {
    Tensor one(Shape::of(1, g.in_c, g.h, g.w));
    for (std::size_t i = 0; i < image; ++i) one[i] = batch_in[b * image + i];
    const Tensor& single = conv.forward(one, /*training=*/false);
    for (std::size_t i = 0; i < out_image; ++i) {
      ASSERT_EQ(single[i], fused[b * out_image + i]) << "image " << b << " flat " << i;
    }
  }
}

// Backward above 8 images on cnn9's pair geometry (16→16 channels, 7×7
// planes, k3 p1: two images share each 16-lane row). Batch 21 leaves an
// odd pair tail. One batched backward's dW and db must equal the sum of
// 21 single-image backwards up to float reassociation; dx is per image
// and must match bitwise.
TEST(ConvBatched, BackwardOverOddBatchMatchesSingleImageSum) {
  constexpr std::size_t kBatch = 21, kChannels = 16, kSide = 7;
  Rng rng(2109);
  Conv2D conv(kChannels, kChannels, 3, 1, 1, kSide, kSide, rng);
  const Shape shape = Shape::of(kBatch, kChannels, kSide, kSide);
  const Tensor input = Tensor::uniform(shape, rng, -1.0f, 1.0f);
  const Tensor grad = Tensor::uniform(shape, rng, -1.0f, 1.0f);
  const std::vector<nn::ParamView> params = conv.params();

  conv.zero_grad();
  conv.forward(input, /*training=*/true);
  const Tensor dx = conv.backward(grad);
  const Tensor dw = *params[0].grad;
  const Tensor db = *params[1].grad;

  const std::size_t image = kChannels * kSide * kSide;
  std::vector<double> dw_sum(dw.numel(), 0.0);
  std::vector<double> db_sum(db.numel(), 0.0);
  for (std::size_t b = 0; b < kBatch; ++b) {
    Tensor one_in(Shape::of(1, kChannels, kSide, kSide));
    Tensor one_grad(Shape::of(1, kChannels, kSide, kSide));
    for (std::size_t i = 0; i < image; ++i) {
      one_in[i] = input[b * image + i];
      one_grad[i] = grad[b * image + i];
    }
    conv.zero_grad();
    conv.forward(one_in, /*training=*/true);
    const Tensor& one_dx = conv.backward(one_grad);
    for (std::size_t i = 0; i < image; ++i) {
      ASSERT_EQ(one_dx[i], dx[b * image + i]) << "image " << b << " flat " << i;
    }
    for (std::size_t i = 0; i < dw.numel(); ++i) {
      dw_sum[i] += static_cast<double>((*params[0].grad)[i]);
    }
    for (std::size_t i = 0; i < db.numel(); ++i) {
      db_sum[i] += static_cast<double>((*params[1].grad)[i]);
    }
  }
  // Entries are sums of ~1,000 products of magnitude < 1: about 10 in
  // size. One dropped or doubled image moves an entry by about 2.
  for (std::size_t i = 0; i < dw.numel(); ++i) {
    ASSERT_NEAR(dw[i], dw_sum[i], 2e-3) << "dW flat " << i;
  }
  for (std::size_t i = 0; i < db.numel(); ++i) {
    ASSERT_NEAR(db[i], db_sum[i], 2e-3) << "db " << i;
  }
}

}  // namespace
}  // namespace fedcav
