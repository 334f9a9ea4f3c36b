// Unit tests for src/tensor: shapes, storage, ops, im2col, serialization.
#include <gtest/gtest.h>

#include <cmath>

#include "src/tensor/im2col.hpp"
#include "src/tensor/ops.hpp"
#include "src/tensor/serialize.hpp"
#include "src/tensor/shape.hpp"
#include "src/tensor/tensor.hpp"
#include "src/utils/error.hpp"
#include "src/utils/rng.hpp"

namespace fedcav {
namespace {

// --------------------------------------------------------------- Shape

TEST(Shape, NumelMultipliesDims) {
  EXPECT_EQ(Shape::of(3).numel(), 3u);
  EXPECT_EQ(Shape::of(2, 3).numel(), 6u);
  EXPECT_EQ(Shape::of(2, 3, 4).numel(), 24u);
  EXPECT_EQ(Shape::of(2, 3, 4, 5).numel(), 120u);
}

TEST(Shape, ScalarShapeHasNumelOne) {
  Shape scalar;
  EXPECT_EQ(scalar.rank(), 0u);
  EXPECT_EQ(scalar.numel(), 1u);
}

TEST(Shape, OffsetIsRowMajor) {
  const Shape s = Shape::of(2, 3, 4);
  EXPECT_EQ(s.offset(0, 0, 0), 0u);
  EXPECT_EQ(s.offset(0, 0, 3), 3u);
  EXPECT_EQ(s.offset(0, 1, 0), 4u);
  EXPECT_EQ(s.offset(1, 0, 0), 12u);
  EXPECT_EQ(s.offset(1, 2, 3), 23u);
}

TEST(Shape, OffsetRankMismatchThrows) {
  const Shape s = Shape::of(2, 3);
  EXPECT_THROW(s.offset(1), Error);
  EXPECT_THROW(s.offset(1, 1, 1), Error);
}

TEST(Shape, EqualityComparesRankAndDims) {
  EXPECT_EQ(Shape::of(2, 3), Shape::of(2, 3));
  EXPECT_NE(Shape::of(2, 3), Shape::of(3, 2));
  EXPECT_NE(Shape::of(6), Shape::of(2, 3));
}

TEST(Shape, AxisOutOfRangeThrows) {
  const Shape s = Shape::of(2, 3);
  EXPECT_EQ(s[1], 3u);
  EXPECT_THROW(s[2], Error);
}

TEST(Shape, ToStringFormats) { EXPECT_EQ(Shape::of(2, 3).to_string(), "[2, 3]"); }

// -------------------------------------------------------------- Tensor

TEST(Tensor, ConstructsFilled) {
  Tensor t(Shape::of(2, 3), 1.5f);
  EXPECT_EQ(t.numel(), 6u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(t[i], 1.5f);
}

TEST(Tensor, ConstructFromDataValidatesSize) {
  EXPECT_NO_THROW(Tensor(Shape::of(2), std::vector<float>{1.0f, 2.0f}));
  EXPECT_THROW(Tensor(Shape::of(3), std::vector<float>{1.0f, 2.0f}), Error);
}

TEST(Tensor, MultiIndexAccess) {
  Tensor t(Shape::of(2, 3));
  t(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(t[5], 7.0f);
  EXPECT_FLOAT_EQ(t(1, 2), 7.0f);
}

TEST(Tensor, CheckedAtThrowsOutOfRange) {
  Tensor t(Shape::of(2));
  EXPECT_NO_THROW(t.at(1));
  EXPECT_THROW(t.at(2), Error);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t(Shape::of(2, 3));
  for (std::size_t i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
  Tensor r = t.reshaped(Shape::of(3, 2));
  EXPECT_EQ(r.shape(), Shape::of(3, 2));
  for (std::size_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(r[i], static_cast<float>(i));
  EXPECT_THROW(t.reshaped(Shape::of(4, 2)), Error);
}

TEST(Tensor, UniformInitWithinBounds) {
  Rng rng(3);
  Tensor t = Tensor::uniform(Shape::of(1000), rng, -2.0f, 2.0f);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t[i], -2.0f);
    EXPECT_LT(t[i], 2.0f);
  }
}

TEST(Tensor, NormalInitHasRequestedMoments) {
  Rng rng(3);
  Tensor t = Tensor::normal(Shape::of(4, 2500), rng, 1.0f, 0.5f);
  double sum = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) sum += static_cast<double>(t[i]);
  EXPECT_NEAR(sum / static_cast<double>(t.numel()), 1.0, 0.05);
}

// ----------------------------------------------------------------- ops

TEST(Ops, ElementwiseAddSubMul) {
  Tensor a(Shape::of(3), std::vector<float>{1, 2, 3});
  Tensor b(Shape::of(3), std::vector<float>{4, 5, 6});
  Tensor sum = ops::add(a, b);
  Tensor diff = ops::sub(b, a);
  Tensor prod = ops::mul(a, b);
  EXPECT_FLOAT_EQ(sum[0], 5);
  EXPECT_FLOAT_EQ(sum[2], 9);
  EXPECT_FLOAT_EQ(diff[1], 3);
  EXPECT_FLOAT_EQ(prod[2], 18);
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a(Shape::of(3));
  Tensor b(Shape::of(4));
  EXPECT_THROW(ops::add_inplace(a, b), Error);
}

TEST(Ops, AxpyAndScale) {
  Tensor y(Shape::of(3), std::vector<float>{1, 1, 1});
  Tensor x(Shape::of(3), std::vector<float>{1, 2, 3});
  ops::axpy_inplace(y, 2.0f, x);
  EXPECT_FLOAT_EQ(y[2], 7.0f);
  ops::scale_inplace(y, 0.5f);
  EXPECT_FLOAT_EQ(y[2], 3.5f);
}

TEST(Ops, FlatSpanHelpers) {
  std::vector<float> a = {3.0f, 4.0f};
  std::vector<float> b = {1.0f, 0.0f};
  EXPECT_FLOAT_EQ(ops::l2_norm(a), 5.0f);
  EXPECT_FLOAT_EQ(ops::dot(a, b), 3.0f);
  EXPECT_FLOAT_EQ(ops::l2_distance(a, b), std::sqrt(4.0f + 16.0f));
  ops::axpy(std::span<float>(a), -1.0f, std::span<const float>(b));
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  ops::scale(std::span<float>(a), 2.0f);
  EXPECT_FLOAT_EQ(a[0], 4.0f);
}

TEST(Ops, MatmulKnownValues) {
  Tensor a(Shape::of(2, 3), std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b(Shape::of(3, 2), std::vector<float>{7, 8, 9, 10, 11, 12});
  Tensor c = ops::matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 58);
  EXPECT_FLOAT_EQ(c(0, 1), 64);
  EXPECT_FLOAT_EQ(c(1, 0), 139);
  EXPECT_FLOAT_EQ(c(1, 1), 154);
}

TEST(Ops, MatmulAgainstNaiveRandom) {
  Rng rng(5);
  const std::size_t m = 17;
  const std::size_t k = 23;
  const std::size_t n = 13;
  Tensor a = Tensor::uniform(Shape::of(m, k), rng, -1.0f, 1.0f);
  Tensor b = Tensor::uniform(Shape::of(k, n), rng, -1.0f, 1.0f);
  Tensor c = ops::matmul(a, b);
  for (std::size_t i = 0; i < m; i += 3) {
    for (std::size_t j = 0; j < n; j += 2) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a(i, kk)) * static_cast<double>(b(kk, j));
      }
      EXPECT_NEAR(c(i, j), acc, 1e-4);
    }
  }
}

TEST(Ops, MatmulTransposedBMatchesExplicitTranspose) {
  Rng rng(6);
  Tensor a = Tensor::uniform(Shape::of(4, 5), rng, -1.0f, 1.0f);
  Tensor b = Tensor::uniform(Shape::of(3, 5), rng, -1.0f, 1.0f);
  Tensor c1(Shape::of(4, 3));
  ops::matmul_transposed_b(a, b, c1);
  Tensor c2 = ops::matmul(a, ops::transpose(b));
  for (std::size_t i = 0; i < c1.numel(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-5);
}

TEST(Ops, MatmulTransposedAMatchesExplicitTranspose) {
  Rng rng(7);
  Tensor a = Tensor::uniform(Shape::of(5, 4), rng, -1.0f, 1.0f);
  Tensor b = Tensor::uniform(Shape::of(5, 3), rng, -1.0f, 1.0f);
  Tensor c1(Shape::of(4, 3));
  ops::matmul_transposed_a(a, b, c1);
  Tensor c2 = ops::matmul(ops::transpose(a), b);
  for (std::size_t i = 0; i < c1.numel(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-5);
}

TEST(Ops, MatmulDimensionMismatchThrows) {
  Tensor a(Shape::of(2, 3));
  Tensor b(Shape::of(4, 2));
  EXPECT_THROW(ops::matmul(a, b), Error);
}

TEST(Ops, TransposeSwapsIndices) {
  Tensor a(Shape::of(2, 3), std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor t = ops::transpose(a);
  EXPECT_EQ(t.shape(), Shape::of(3, 2));
  EXPECT_FLOAT_EQ(t(0, 1), 4);
  EXPECT_FLOAT_EQ(t(2, 0), 3);
}

TEST(Ops, Reductions) {
  Tensor a(Shape::of(4), std::vector<float>{1, -2, 3, 6});
  EXPECT_FLOAT_EQ(ops::sum(a), 8.0f);
  EXPECT_FLOAT_EQ(ops::mean(a), 2.0f);
  EXPECT_FLOAT_EQ(ops::max_value(a), 6.0f);
  EXPECT_EQ(ops::argmax(a.span()), 3u);
}

TEST(Ops, ArgmaxFirstOfTies) {
  std::vector<float> v = {1.0f, 5.0f, 5.0f};
  EXPECT_EQ(ops::argmax(v), 1u);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(8);
  Tensor logits = Tensor::uniform(Shape::of(5, 10), rng, -4.0f, 4.0f);
  Tensor p = ops::softmax_rows(logits);
  for (std::size_t r = 0; r < 5; ++r) {
    double row = 0.0;
    for (std::size_t c = 0; c < 10; ++c) {
      EXPECT_GT(p(r, c), 0.0f);
      row += static_cast<double>(p(r, c));
    }
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxRowsStableUnderHugeLogits) {
  Tensor logits(Shape::of(1, 3), std::vector<float>{1000.0f, 1001.0f, 999.0f});
  Tensor p = ops::softmax_rows(logits);
  EXPECT_TRUE(std::isfinite(p(0, 0)));
  EXPECT_GT(p(0, 1), p(0, 0));
  EXPECT_GT(p(0, 0), p(0, 2));
}

TEST(Ops, StableSoftmaxMatchesDirectComputation) {
  const std::vector<double> x = {0.5, 1.5, -0.5};
  const auto p = ops::stable_softmax(x);
  double denom = std::exp(0.5) + std::exp(1.5) + std::exp(-0.5);
  EXPECT_NEAR(p[0], std::exp(0.5) / denom, 1e-12);
  EXPECT_NEAR(p[1], std::exp(1.5) / denom, 1e-12);
  EXPECT_NEAR(p[2], std::exp(-0.5) / denom, 1e-12);
}

TEST(Ops, StableSoftmaxHandlesExtremeValues) {
  const auto p = ops::stable_softmax({1e6, 1e6 - 1.0});
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
  EXPECT_GT(p[0], p[1]);
}

TEST(Ops, LogSumExpMatchesNaiveForSmallValues) {
  const std::vector<double> x = {0.1, 0.7, -0.3};
  const double naive = std::log(std::exp(0.1) + std::exp(0.7) + std::exp(-0.3));
  EXPECT_NEAR(ops::log_sum_exp(x), naive, 1e-12);
}

TEST(Ops, LogSumExpStableForLargeValues) {
  EXPECT_NEAR(ops::log_sum_exp({1000.0, 1000.0}), 1000.0 + std::log(2.0), 1e-9);
}

// -------------------------------------------------------------- im2col

TEST(Im2Col, GeometryComputesOutputSize) {
  Conv2dGeometry g{1, 5, 5, 3, 3, 1, 0};
  EXPECT_EQ(g.out_h(), 3u);
  EXPECT_EQ(g.out_w(), 3u);
  EXPECT_EQ(g.col_rows(), 9u);
  EXPECT_EQ(g.col_cols(), 9u);
  g.pad = 1;
  EXPECT_EQ(g.out_h(), 5u);
  g.stride = 2;
  EXPECT_EQ(g.out_h(), 3u);
}

TEST(Im2Col, GeometryValidation) {
  Conv2dGeometry bad{1, 2, 2, 3, 3, 1, 0};
  EXPECT_THROW(bad.validate(), Error);
  Conv2dGeometry ok{1, 2, 2, 3, 3, 1, 1};
  EXPECT_NO_THROW(ok.validate());
}

TEST(Im2Col, IdentityKernelExtractsPixels) {
  // 1x1 kernel, no padding: cols equals the flattened image.
  Conv2dGeometry g{1, 3, 3, 1, 1, 1, 0};
  std::vector<float> img = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> cols(g.col_rows() * g.col_cols());
  im2col_padded(g, img.data(), cols.data(), g.col_cols());
  for (std::size_t i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(cols[i], img[i]);
}

// Zero-pad a CHW image into im2col_padded's input layout.
std::vector<float> pad_image(const Conv2dGeometry& g, const std::vector<float>& img) {
  const std::size_t pw = g.in_w + 2 * g.pad;
  const std::size_t ph = g.in_h + 2 * g.pad;
  std::vector<float> padded(g.in_channels * ph * pw, 0.0f);
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t y = 0; y < g.in_h; ++y) {
      for (std::size_t x = 0; x < g.in_w; ++x) {
        padded[(c * ph + y + g.pad) * pw + x + g.pad] =
            img[(c * g.in_h + y) * g.in_w + x];
      }
    }
  }
  return padded;
}

TEST(Im2Col, PaddingProducesZeros) {
  Conv2dGeometry g{1, 2, 2, 3, 3, 1, 1};
  std::vector<float> img = {1, 2, 3, 4};
  const std::vector<float> padded = pad_image(g, img);
  std::vector<float> cols(g.col_rows() * g.col_cols());
  im2col_padded(g, padded.data(), cols.data(), g.col_cols());
  // Top-left window (kh=0, kw=0) at output (0,0) reads padded (-1,-1) = 0.
  EXPECT_FLOAT_EQ(cols[0 * g.col_cols() + 0], 0.0f);
  // Center tap (kh=1, kw=1) at output (0,0) reads pixel (0,0) = 1.
  EXPECT_FLOAT_EQ(cols[4 * g.col_cols() + 0], 1.0f);
}

TEST(Im2Col, Col2ImIsAdjointOfIm2Col) {
  // <lower(x), y> == <x, scatter(y)> for random x, y — the defining
  // adjoint identity that makes conv backward correct. x is padded into
  // a zeroed buffer before im2col_padded; col2im_padded scatters into a
  // zeroed padded buffer whose interior is x's gradient (the pad ring
  // is dropped).
  Rng rng(11);
  Conv2dGeometry g{2, 6, 6, 3, 3, 2, 1};
  std::vector<float> x(2 * 6 * 6);
  for (auto& v : x) v = rng.uniform_f(-1.0f, 1.0f);
  Tensor y = Tensor::uniform(Shape::of(g.col_rows(), g.col_cols()), rng, -1.0f, 1.0f);

  const std::vector<float> padded = pad_image(g, x);
  std::vector<float> cols(g.col_rows() * g.col_cols());
  im2col_padded(g, padded.data(), cols.data(), g.col_cols());
  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    lhs += static_cast<double>(cols[i]) * static_cast<double>(y[i]);
  }

  const std::size_t pw = g.in_w + 2 * g.pad;
  const std::size_t ph = g.in_h + 2 * g.pad;
  std::vector<float> back(g.in_channels * ph * pw, 0.0f);
  col2im_padded(g, y.data(), g.col_cols(), back.data());
  double rhs = 0.0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t yy = 0; yy < g.in_h; ++yy) {
      for (std::size_t xx = 0; xx < g.in_w; ++xx) {
        rhs += static_cast<double>(x[(c * g.in_h + yy) * g.in_w + xx]) *
               static_cast<double>(back[(c * ph + yy + g.pad) * pw + xx + g.pad]);
      }
    }
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// ----------------------------------------------------------- serialize

TEST(Serialize, PrimitiveRoundTrip) {
  ByteBuffer buf;
  write_u64(buf, 0xdeadbeefcafef00dULL);
  write_f32(buf, 3.25f);
  write_f64(buf, -1.5e-8);
  ByteReader reader(buf);
  EXPECT_EQ(reader.read_u64(), 0xdeadbeefcafef00dULL);
  EXPECT_FLOAT_EQ(reader.read_f32(), 3.25f);
  EXPECT_DOUBLE_EQ(reader.read_f64(), -1.5e-8);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serialize, FloatVectorRoundTrip) {
  ByteBuffer buf;
  const std::vector<float> v = {1.0f, -2.5f, 1e-20f, 3e20f};
  write_f32_span(buf, v);
  ByteReader reader(buf);
  EXPECT_EQ(reader.read_f32_vector(), v);
}

TEST(Serialize, TensorRoundTripPreservesShape) {
  Rng rng(13);
  Tensor t = Tensor::uniform(Shape::of(2, 3, 4), rng, -1.0f, 1.0f);
  ByteBuffer buf;
  write_tensor(buf, t);
  ByteReader reader(buf);
  Tensor back = read_tensor(reader);
  EXPECT_EQ(back.shape(), t.shape());
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(back[i], t[i]);
}

TEST(Serialize, TruncatedBufferThrows) {
  ByteBuffer buf;
  write_u64(buf, 42);
  buf.pop_back();
  ByteReader reader(buf);
  EXPECT_THROW(reader.read_u64(), Error);
}

TEST(Serialize, TruncatedVectorThrows) {
  ByteBuffer buf;
  write_f32_span(buf, std::vector<float>{1.0f, 2.0f});
  buf.resize(buf.size() - 3);
  ByteReader reader(buf);
  EXPECT_THROW(reader.read_f32_vector(), Error);
}

TEST(Serialize, RemainingTracksCursor) {
  ByteBuffer buf;
  write_u64(buf, 1);
  write_u64(buf, 2);
  ByteReader reader(buf);
  EXPECT_EQ(reader.remaining(), 16u);
  reader.read_u64();
  EXPECT_EQ(reader.remaining(), 8u);
}

}  // namespace
}  // namespace fedcav
