// Training smoke tests for every zoo architecture, plus parameterized
// Conv2D gradient checks across geometries (kernel/stride/pad sweep).
#include <gtest/gtest.h>

#include <ostream>

#include "src/data/synthetic.hpp"
#include "src/fl/centralized.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/zoo.hpp"
#include "src/utils/logging.hpp"
#include "tests/test_helpers.hpp"

namespace fedcav {
namespace {

// ------------------------------------------- conv geometry grad sweep

struct ConvCase {
  std::size_t in_channels;
  std::size_t out_channels;
  std::size_t kernel;
  std::size_t stride;
  std::size_t pad;
  std::size_t side;
};

// Without this gtest prints the case as a byte dump, and ctest names the
// test after that print (e.g. 2to3ch_5x5_k3_s1_p1).
void PrintTo(const ConvCase& c, std::ostream* os) {
  *os << c.in_channels << "to" << c.out_channels << "ch_" << c.side << 'x' << c.side << "_k"
      << c.kernel << "_s" << c.stride << "_p" << c.pad;
}

class ConvGradSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradSweep, BackwardMatchesNumericGradient) {
  const ConvCase c = GetParam();
  Rng rng(c.kernel * 31 + c.stride * 7 + c.pad);
  nn::Conv2D layer(c.in_channels, c.out_channels, c.kernel, c.stride, c.pad, c.side,
                   c.side, rng);
  Tensor input =
      Tensor::uniform(Shape::of(2, c.in_channels, c.side, c.side), rng, -1.0f, 1.0f);
  // The check's loss is quadratic in both inputs and weights, so the
  // central difference has zero truncation error — a larger eps purely
  // reduces float32 rounding noise on the bigger geometries.
  EXPECT_LT(testing::gradient_check_layer(layer, input, /*eps=*/1e-2), 2e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGradSweep,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 4},   // pointwise
                      ConvCase{1, 2, 3, 1, 0, 5},   // valid conv
                      ConvCase{2, 3, 3, 1, 1, 5},   // same-padded
                      ConvCase{1, 2, 3, 2, 1, 7},   // strided
                      ConvCase{3, 2, 5, 1, 2, 8},   // large kernel, 3 channels
                      ConvCase{2, 4, 1, 2, 0, 6},   // 1x1 strided projection
                      ConvCase{1, 1, 7, 1, 3, 7})); // kernel == input

// ----------------------------------------------- zoo training smoke

struct ZooCase {
  const char* model;
  const char* dataset;
  double target;  // loss must shrink to target × initial within budget
  std::size_t epochs;
};

// Without this gtest prints the case as a byte dump that includes the
// addresses of the string literals, and ctest names the test after that
// print, so the test name would differ from run to run.
void PrintTo(const ZooCase& c, std::ostream* os) { *os << c.model << '_' << c.dataset; }

class ZooTraining : public ::testing::TestWithParam<ZooCase> {};

TEST_P(ZooTraining, CentralizedLossShrinksOnItsDataset) {
  set_log_level(LogLevel::kError);
  const ZooCase param = GetParam();
  const data::SynthGenerator gen(
      data::synth_config_by_name(param.dataset, 17));
  Rng data_rng(18);
  data::Dataset train = gen.generate_balanced(20, data_rng);
  Rng test_rng(19);
  data::Dataset test = gen.generate_balanced(10, test_rng);

  Rng model_rng(20);
  auto model = nn::model_builder(param.model)(model_rng);
  fl::LocalTrainConfig config;
  config.lr = 0.05f;
  config.batch_size = 10;
  fl::CentralizedTrainer trainer(std::move(model), std::move(train), std::move(test),
                                 config, Rng(21));
  const double initial = trainer.run_round(1).test_loss;
  trainer.run(param.epochs, 1);
  const double final_loss = trainer.history().back().test_loss;
  const double final_acc = trainer.history().best_accuracy();
  // Tiny corpora overfit (test loss can rise while the model learns),
  // so accept either criterion: shrinking test loss or accuracy clearly
  // above the 10% chance level.
  EXPECT_TRUE(final_loss < initial * param.target || final_acc > 0.2)
      << param.model << " on " << param.dataset << ": loss " << initial << " to "
      << final_loss << ", best acc " << final_acc;
}

INSTANTIATE_TEST_SUITE_P(Architectures, ZooTraining,
                         ::testing::Values(ZooCase{"mlp", "digits", 0.9, 5},
                                           ZooCase{"lenet5", "digits", 0.8, 5},
                                           ZooCase{"cnn9", "fashion", 0.9, 5},
                                           // ResNet spends the first epochs on
                                           // a plateau before the loss drops.
                                           ZooCase{"resnet", "cifar", 0.9, 18}));

// ----------------------------------- determinism across thread counts

TEST(ZooTraining, LeNetPredictionIsDeterministic) {
  Rng rng_a(33);
  Rng rng_b(33);
  auto a = nn::make_lenet5_lite(rng_a);
  auto b = nn::make_lenet5_lite(rng_b);
  Rng input_rng(34);
  Tensor input = Tensor::uniform(Shape::of(3, 1, 14, 14), input_rng, -1.0f, 1.0f);
  Tensor out_a = a->predict(input);
  Tensor out_b = b->predict(input);
  for (std::size_t i = 0; i < out_a.numel(); ++i) {
    EXPECT_FLOAT_EQ(out_a[i], out_b[i]);
  }
}

}  // namespace
}  // namespace fedcav
