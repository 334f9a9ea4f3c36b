// Property-based tests: parameterized sweeps over randomized inputs
// checking the invariants DESIGN.md §6 calls out.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <ostream>
#include <set>

#include "src/core/contribution.hpp"
#include "src/core/detector.hpp"
#include "src/core/fedcav.hpp"
#include "src/data/partition.hpp"
#include "src/data/stats.hpp"
#include "src/data/synthetic.hpp"
#include "src/fl/fedavg.hpp"
#include "src/fl/robust.hpp"
#include "src/nn/activation.hpp"
#include "src/nn/dense.hpp"
#include "src/nn/loss.hpp"
#include "src/tensor/ops.hpp"
#include "src/utils/rng.hpp"
#include "tests/test_helpers.hpp"

namespace fedcav {
namespace {

// --------------------------------------------- contribution invariants

class ContributionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ContributionProperty, WeightsFormADistribution) {
  Rng rng(GetParam());
  const std::size_t n = 2 + rng.uniform_int(std::uint64_t{30});
  std::vector<double> losses(n);
  for (auto& f : losses) f = rng.uniform(0.0, 10.0);

  for (const auto clip :
       {core::ClipPolicy::kNone, core::ClipPolicy::kMean, core::ClipPolicy::kQuantile}) {
    core::ContributionConfig config;
    config.clip = clip;
    const auto w = core::contribution_weights(losses, config);
    ASSERT_EQ(w.size(), n);
    double sum = 0.0;
    for (double v : w) {
      EXPECT_GT(v, 0.0);
      EXPECT_LE(v, 1.0 + 1e-12);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_P(ContributionProperty, ClippingNeverIncreasesALoss) {
  Rng rng(GetParam());
  const std::size_t n = 2 + rng.uniform_int(std::uint64_t{30});
  std::vector<double> losses(n);
  for (auto& f : losses) f = rng.uniform(0.0, 20.0);
  core::ContributionConfig config;
  config.clip = core::ClipPolicy::kMean;
  const auto clipped = core::clip_losses(losses, config);
  for (std::size_t i = 0; i < n; ++i) EXPECT_LE(clipped[i], losses[i] + 1e-12);
}

TEST_P(ContributionProperty, MonotoneInLoss) {
  // Without clipping: strictly larger loss => strictly larger weight.
  Rng rng(GetParam());
  const std::size_t n = 3 + rng.uniform_int(std::uint64_t{20});
  std::vector<double> losses(n);
  for (auto& f : losses) f = rng.uniform(0.0, 5.0);
  core::ContributionConfig config;
  config.clip = core::ClipPolicy::kNone;
  const auto w = core::contribution_weights(losses, config);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (losses[i] > losses[j] + 1e-9) {
        EXPECT_GT(w[i], w[j]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContributionProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---------------------------------------------- aggregation invariants

class AggregationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AggregationProperty, FedCavOutputInConvexHullCoordinatewise) {
  Rng rng(GetParam());
  const std::size_t clients = 2 + rng.uniform_int(std::uint64_t{10});
  const std::size_t dim = 1 + rng.uniform_int(std::uint64_t{50});
  std::vector<fl::ClientUpdate> updates(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    updates[i].client_id = i;
    updates[i].inference_loss = rng.uniform(0.0, 4.0);
    updates[i].num_samples = 1 + rng.uniform_int(std::uint64_t{100});
    updates[i].weights.resize(dim);
    for (auto& w : updates[i].weights) w = rng.uniform_f(-3.0f, 3.0f);
  }
  core::FedCavStrategy strategy;
  const nn::Weights out = strategy.aggregate(nn::Weights(dim, 0.0f), updates);
  for (std::size_t d = 0; d < dim; ++d) {
    float lo = updates[0].weights[d];
    float hi = lo;
    for (const auto& u : updates) {
      lo = std::min(lo, u.weights[d]);
      hi = std::max(hi, u.weights[d]);
    }
    EXPECT_GE(out[d], lo - 1e-4f);
    EXPECT_LE(out[d], hi + 1e-4f);
  }
}

TEST_P(AggregationProperty, FedAvgAndFedCavAgreeOnUniformInputs) {
  // Equal sample counts + equal losses: both reduce to the plain mean.
  Rng rng(GetParam());
  const std::size_t clients = 2 + rng.uniform_int(std::uint64_t{8});
  const std::size_t dim = 1 + rng.uniform_int(std::uint64_t{20});
  std::vector<fl::ClientUpdate> updates(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    updates[i].client_id = i;
    updates[i].inference_loss = 1.5;
    updates[i].num_samples = 10;
    updates[i].weights.resize(dim);
    for (auto& w : updates[i].weights) w = rng.uniform_f(-1.0f, 1.0f);
  }
  fl::FedAvg fedavg;
  core::FedCavStrategy fedcav;
  const nn::Weights a = fedavg.aggregate(nn::Weights(dim, 0.0f), updates);
  const nn::Weights b = fedcav.aggregate(nn::Weights(dim, 0.0f), updates);
  for (std::size_t d = 0; d < dim; ++d) EXPECT_NEAR(a[d], b[d], 1e-5f);
}

TEST_P(AggregationProperty, AggregationIsPermutationInvariant) {
  Rng rng(GetParam());
  const std::size_t clients = 3 + rng.uniform_int(std::uint64_t{6});
  std::vector<fl::ClientUpdate> updates(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    updates[i].client_id = i;
    updates[i].inference_loss = rng.uniform(0.1, 3.0);
    updates[i].num_samples = 1 + rng.uniform_int(std::uint64_t{50});
    updates[i].weights = {rng.uniform_f(-2.0f, 2.0f), rng.uniform_f(-2.0f, 2.0f)};
  }
  std::vector<fl::ClientUpdate> reversed(updates.rbegin(), updates.rend());
  core::FedCavStrategy fedcav;
  const nn::Weights a = fedcav.aggregate({0.0f, 0.0f}, updates);
  const nn::Weights b = fedcav.aggregate({0.0f, 0.0f}, reversed);
  EXPECT_NEAR(a[0], b[0], 1e-5f);
  EXPECT_NEAR(a[1], b[1], 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregationProperty,
                         ::testing::Values(2, 4, 6, 10, 16, 26, 42, 68));

// ------------------------------------------------- detector invariants

class DetectorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectorProperty, NeverFiresWhenAllLossesShrink) {
  Rng rng(GetParam());
  core::AnomalyDetector detector;
  std::vector<double> losses(5 + rng.uniform_int(std::uint64_t{10}));
  for (auto& f : losses) f = rng.uniform(1.0, 5.0);
  detector.commit(losses);
  for (int round = 0; round < 10; ++round) {
    for (auto& f : losses) f *= rng.uniform(0.5, 1.0);
    EXPECT_FALSE(detector.check(losses).abnormal);
    detector.commit(losses);
  }
}

TEST_P(DetectorProperty, AlwaysFiresWhenAllLossesJumpAboveMax) {
  Rng rng(GetParam());
  core::AnomalyDetector detector;
  std::vector<double> losses(3 + rng.uniform_int(std::uint64_t{10}));
  for (auto& f : losses) f = rng.uniform(0.5, 2.0);
  detector.commit(losses);
  const double previous_max = 2.0;
  for (auto& f : losses) f = previous_max + rng.uniform(0.1, 5.0);
  EXPECT_TRUE(detector.check(losses).abnormal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorProperty,
                         ::testing::Values(3, 7, 11, 19, 23, 31));

// ------------------------------------------------ partition invariants

struct PartitionCase {
  data::PartitionScheme scheme;
  std::size_t num_clients;
  std::uint64_t seed;
};

// Without this gtest prints the case as a byte dump that includes the
// struct's padding, and ctest names the test after that print, so the
// test name would differ from run to run.
void PrintTo(const PartitionCase& c, std::ostream* os) {
  *os << data::to_string(c.scheme) << '_' << c.num_clients << "clients_seed" << c.seed;
}

class PartitionProperty : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionProperty, EveryClientNonEmptyAndIndicesValid) {
  const PartitionCase param = GetParam();
  const data::SynthGenerator gen(data::synth_digits_config(2));
  Rng rng(3);
  const data::Dataset ds = gen.generate_balanced(30, rng);
  data::PartitionConfig config;
  config.scheme = param.scheme;
  config.num_clients = param.num_clients;
  config.seed = param.seed;
  const data::Partition part = data::make_partition(ds, config);
  ASSERT_EQ(part.size(), param.num_clients);
  for (const auto& client : part) {
    EXPECT_FALSE(client.empty());
    for (std::size_t i : client) EXPECT_LT(i, ds.size());
  }
}

TEST_P(PartitionProperty, ExactCoverSchemesLoseNoSample) {
  const PartitionCase param = GetParam();
  if (param.scheme != data::PartitionScheme::kIidBalanced &&
      param.scheme != data::PartitionScheme::kNonIidBalanced) {
    GTEST_SKIP() << "sampling-based schemes may duplicate/drop by design";
  }
  const data::SynthGenerator gen(data::synth_digits_config(2));
  Rng rng(3);
  const data::Dataset ds = gen.generate_balanced(30, rng);
  data::PartitionConfig config;
  config.scheme = param.scheme;
  config.num_clients = param.num_clients;
  config.seed = param.seed;
  const data::Partition part = data::make_partition(ds, config);
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (const auto& client : part) {
    total += client.size();
    seen.insert(client.begin(), client.end());
  }
  EXPECT_EQ(total, ds.size());
  EXPECT_EQ(seen.size(), ds.size());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, PartitionProperty,
    ::testing::Values(
        PartitionCase{data::PartitionScheme::kIidBalanced, 5, 1},
        PartitionCase{data::PartitionScheme::kIidBalanced, 30, 2},
        PartitionCase{data::PartitionScheme::kNonIidBalanced, 10, 3},
        PartitionCase{data::PartitionScheme::kNonIidBalanced, 25, 4},
        PartitionCase{data::PartitionScheme::kNonIidImbalanced, 10, 5},
        PartitionCase{data::PartitionScheme::kNonIidImbalanced, 40, 6},
        PartitionCase{data::PartitionScheme::kDirichlet, 10, 7},
        PartitionCase{data::PartitionScheme::kDirichlet, 20, 8}));

// ------------------------------------------------- gradient properties

struct DenseCase {
  std::size_t in;
  std::size_t out;
  std::size_t batch;
  std::uint64_t seed;
};

// Without this gtest prints the case as a byte dump, and ctest names the
// test after that print (e.g. 7to3_batch2_seed2).
void PrintTo(const DenseCase& c, std::ostream* os) {
  *os << c.in << "to" << c.out << "_batch" << c.batch << "_seed" << c.seed;
}

class DenseGradProperty : public ::testing::TestWithParam<DenseCase> {};

TEST_P(DenseGradProperty, GradCheckAcrossShapes) {
  const DenseCase param = GetParam();
  Rng rng(param.seed);
  nn::Dense layer(param.in, param.out, rng);
  Tensor input = Tensor::uniform(Shape::of(param.batch, param.in), rng, -1.0f, 1.0f);
  EXPECT_LT(testing::gradient_check_layer(layer, input), 2e-2);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DenseGradProperty,
                         ::testing::Values(DenseCase{1, 1, 1, 1}, DenseCase{7, 3, 2, 2},
                                           DenseCase{16, 16, 4, 3}, DenseCase{3, 11, 5, 4},
                                           DenseCase{32, 2, 1, 5}));

// ------------------------------------------------- softmax ce property

class SoftmaxProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoftmaxProperty, LossIsShiftInvariant) {
  // softmax-CE(logits + c) == softmax-CE(logits) for any constant shift.
  Rng rng(GetParam());
  nn::SoftmaxCrossEntropy ce;
  Tensor logits = Tensor::uniform(Shape::of(3, 6), rng, -2.0f, 2.0f);
  const std::vector<std::size_t> labels = {0, 3, 5};
  const float base = ce.forward(logits, labels);
  Tensor shifted = logits;
  for (std::size_t i = 0; i < shifted.numel(); ++i) shifted[i] += 7.5f;
  EXPECT_NEAR(ce.forward(shifted, labels), base, 1e-4f);
}

TEST_P(SoftmaxProperty, GradientRowsSumToZero) {
  // dCE/dlogits rows sum to 0 (softmax minus one-hot).
  Rng rng(GetParam());
  nn::SoftmaxCrossEntropy ce;
  Tensor logits = Tensor::uniform(Shape::of(4, 5), rng, -3.0f, 3.0f);
  const std::vector<std::size_t> labels = {1, 0, 4, 2};
  ce.forward(logits, labels);
  Tensor grad = ce.backward();
  for (std::size_t r = 0; r < 4; ++r) {
    double row = 0.0;
    for (std::size_t c = 0; c < 5; ++c) row += static_cast<double>(grad(r, c));
    EXPECT_NEAR(row, 0.0, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftmaxProperty, ::testing::Values(1, 9, 27, 81));

// ---------------------------------------------------- log-sum-exp prop

class LseProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LseProperty, UpperAndLowerBounds) {
  // max(x) <= LSE(x) <= max(x) + log(n).
  Rng rng(GetParam());
  const std::size_t n = 1 + rng.uniform_int(std::uint64_t{40});
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-100.0, 100.0);
  const double lse = ops::log_sum_exp(x);
  const double mx = *std::max_element(x.begin(), x.end());
  EXPECT_GE(lse, mx - 1e-9);
  EXPECT_LE(lse, mx + std::log(static_cast<double>(n)) + 1e-9);
}

TEST_P(LseProperty, SoftmaxIsGradientOfLse) {
  // d LSE / d x_i == softmax(x)_i — the identity connecting the paper's
  // global loss (Eq. 7) to its aggregation weights (Eq. 9).
  Rng rng(GetParam());
  const std::size_t n = 2 + rng.uniform_int(std::uint64_t{10});
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-3.0, 3.0);
  const auto softmax = ops::stable_softmax(x);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> up = x;
    std::vector<double> down = x;
    up[i] += eps;
    down[i] -= eps;
    const double numeric = (ops::log_sum_exp(up) - ops::log_sum_exp(down)) / (2 * eps);
    EXPECT_NEAR(numeric, softmax[i], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LseProperty, ::testing::Values(5, 10, 20, 40, 80));


// ------------------------------------------------- robust aggregation

class RobustProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RobustProperty, MedianAndTrimmedMeanStayInCoordinateRange) {
  Rng rng(GetParam());
  const std::size_t clients = 3 + rng.uniform_int(std::uint64_t{8});
  const std::size_t dim = 1 + rng.uniform_int(std::uint64_t{30});
  std::vector<fl::ClientUpdate> updates(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    updates[i].client_id = i;
    updates[i].num_samples = 10;
    updates[i].inference_loss = 1.0;
    updates[i].weights.resize(dim);
    for (auto& w : updates[i].weights) w = rng.uniform_f(-5.0f, 5.0f);
  }
  fl::CoordinateMedian median;
  fl::TrimmedMean trimmed(0.2);
  const nn::Weights m = median.aggregate(nn::Weights(dim, 0.0f), updates);
  const nn::Weights t = trimmed.aggregate(nn::Weights(dim, 0.0f), updates);
  for (std::size_t d = 0; d < dim; ++d) {
    float lo = updates[0].weights[d];
    float hi = lo;
    for (const auto& u : updates) {
      lo = std::min(lo, u.weights[d]);
      hi = std::max(hi, u.weights[d]);
    }
    EXPECT_GE(m[d], lo - 1e-5f);
    EXPECT_LE(m[d], hi + 1e-5f);
    EXPECT_GE(t[d], lo - 1e-5f);
    EXPECT_LE(t[d], hi + 1e-5f);
  }
}

TEST_P(RobustProperty, KrumAvoidsFarOutlier) {
  Rng rng(GetParam());
  const std::size_t honest = 4 + rng.uniform_int(std::uint64_t{4});
  const std::size_t dim = 4 + rng.uniform_int(std::uint64_t{16});
  std::vector<fl::ClientUpdate> updates(honest + 1);
  for (std::size_t i = 0; i < honest; ++i) {
    updates[i].client_id = i;
    updates[i].weights.resize(dim);
    for (auto& w : updates[i].weights) w = rng.uniform_f(-0.1f, 0.1f);
  }
  updates[honest].client_id = honest;
  updates[honest].weights.assign(dim, 1000.0f);
  fl::Krum krum(1);
  EXPECT_LT(krum.select(updates), honest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RobustProperty, ::testing::Values(4, 9, 25, 49, 81));

}  // namespace
}  // namespace fedcav
