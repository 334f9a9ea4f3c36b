// Allocation regression test: after one warm-up batch, a train step must
// perform ZERO heap allocations. This is the enforcement side of the
// workspace policy (DESIGN.md §8): every layer draws hot-path buffers
// from persistent grow-only slots, the loss caches through capacity-
// reusing assignment, GEMM packs into per-thread scratch, and the
// optimizer updates in place.
//
// Two counters watch the measured steps. Tensor's single allocation
// choke point counts tensor buffers, gated by the FEDCAV_ALLOC_STATS
// compile option (ON by default; under a build with the option off the
// tests skip). This binary's replacement global operator new counts
// every other heap allocation (a std::vector's, say) and its bytes
// while armed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/comm/compression.hpp"
#include "src/data/synthetic.hpp"
#include "src/fl/client.hpp"
#include "src/fl/simulation.hpp"
#include "src/nn/optimizer.hpp"
#include "src/nn/zoo.hpp"
#include "src/tensor/tensor.hpp"
#include "src/utils/rng.hpp"
#include "src/utils/threadpool.hpp"

namespace {

// Scalar global operator new calls while armed, on any thread. The
// default new[] forwards to it, and Tensor's aligned buffers have their
// own counter. The whole scalar family is replaced, deletes included, so
// a sanitizer runtime's own operator new never meets this free().
std::atomic<bool> g_new_armed{false};
std::atomic<std::uint64_t> g_new_calls{0};
std::atomic<std::uint64_t> g_new_bytes{0};

void* counted_malloc(std::size_t bytes) noexcept {
  if (g_new_armed.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
    g_new_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  return std::malloc(bytes == 0 ? 1 : bytes);
}

}  // namespace

void* operator new(std::size_t bytes) {
  void* p = counted_malloc(bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  return counted_malloc(bytes);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace fedcav {
namespace {

std::vector<std::size_t> cycling_labels(std::size_t batch) {
  std::vector<std::size_t> labels(batch);
  for (std::size_t i = 0; i < batch; ++i) labels[i] = i % nn::kNumClasses;
  return labels;
}

void expect_steady_state_alloc_free(const char* builder_name, const Shape& input_shape) {
  Rng rng(0x57a7);
  auto model = nn::model_builder(builder_name)(rng);
  nn::Sgd opt(nn::SgdConfig{/*lr=*/0.01f, /*momentum=*/0.9f});
  const Tensor input = Tensor::uniform(input_shape, rng, -1.0f, 1.0f);
  const std::vector<std::size_t> labels = cycling_labels(input_shape[0]);

  // Warm-up batch: grows every workspace slot, cache, packed panel and
  // optimizer velocity buffer to steady-state capacity.
  model->forward_backward(input, labels);
  opt.step(*model);

  Tensor::reset_alloc_stats();
  g_new_calls.store(0);
  g_new_armed.store(true);
  for (int step = 0; step < 3; ++step) {
    model->forward_backward(input, labels);
    opt.step(*model);
  }
  g_new_armed.store(false);
  const TensorAllocStats stats = Tensor::alloc_stats();
  EXPECT_EQ(stats.allocations, 0u)
      << builder_name << ": " << stats.allocations << " tensor allocations ("
      << stats.bytes << " bytes) in 3 steady-state train steps";
  EXPECT_EQ(g_new_calls.load(), 0u)
      << builder_name << ": " << g_new_calls.load()
      << " heap allocations in 3 steady-state train steps";
}

TEST(AllocStats, LeNetTrainStepIsAllocationFreeAfterWarmup) {
  if (!Tensor::alloc_stats_enabled()) GTEST_SKIP() << "built without FEDCAV_ALLOC_STATS";
  expect_steady_state_alloc_free(
      "lenet5", Shape::of(10, nn::kGrayChannels, nn::kGraySide, nn::kGraySide));
}

TEST(AllocStats, Cnn9TrainStepIsAllocationFreeAfterWarmup) {
  if (!Tensor::alloc_stats_enabled()) GTEST_SKIP() << "built without FEDCAV_ALLOC_STATS";
  expect_steady_state_alloc_free(
      "cnn9", Shape::of(10, nn::kGrayChannels, nn::kGraySide, nn::kGraySide));
}

TEST(AllocStats, ResNetTrainStepIsAllocationFreeAfterWarmup) {
  if (!Tensor::alloc_stats_enabled()) GTEST_SKIP() << "built without FEDCAV_ALLOC_STATS";
  expect_steady_state_alloc_free(
      "resnet", Shape::of(10, nn::kColorChannels, nn::kColorSide, nn::kColorSide));
}

TEST(AllocStats, MlpTrainStepIsAllocationFreeAfterWarmup) {
  if (!Tensor::alloc_stats_enabled()) GTEST_SKIP() << "built without FEDCAV_ALLOC_STATS";
  expect_steady_state_alloc_free("mlp",
                                 Shape::of(10, nn::kGraySide * nn::kGraySide));
}

// A steady-state int8 top-k(0.25) report allocates the code it returns
// and the codec's kept-value and candidate lists, all well under one
// dense vector: the delta lives in reused scratch, and the residual is
// corrected in place without a dense decode.
TEST(AllocStats, QuantizedEncodeAllocatesLessThanOneDenseVector) {
  Rng rng(0x51);
  const data::SynthGenerator gen(data::synth_config_by_name("digits", 3));
  fl::Client client(0, gen.generate_balanced(2, rng), Rng(4));
  constexpr std::size_t kDim = 6634;  // the mlp's parameter count
  const auto draw = [&] {
    nn::Weights w(kDim);
    for (float& v : w) v = static_cast<float>(rng.normal(0.0, 0.01));
    return w;
  };
  const nn::Weights reference = draw();
  (void)client.encode_quantized_update(draw(), reference, comm::QuantMode::kInt8, 0.25);
  const nn::Weights trained = draw();

  g_new_calls.store(0);
  g_new_bytes.store(0);
  g_new_armed.store(true);
  const comm::QuantizedDelta code =
      client.encode_quantized_update(trained, reference, comm::QuantMode::kInt8, 0.25);
  g_new_armed.store(false);
  EXPECT_EQ(code.count(), (kDim + 3) / 4);
  EXPECT_LT(g_new_bytes.load(), 4 * kDim)
      << g_new_calls.load() << " heap allocations in one steady-state encode";
}

// The counter itself: constructing a Tensor allocates once, capacity
// reuse allocates zero times.
TEST(AllocStats, CounterSeesAllocationsAndCapacityReuse) {
  if (!Tensor::alloc_stats_enabled()) GTEST_SKIP() << "built without FEDCAV_ALLOC_STATS";
  Tensor::reset_alloc_stats();
  Tensor t(Shape::of(8, 8));
  EXPECT_EQ(Tensor::alloc_stats().allocations, 1u);
  t.resize_uninitialized(Shape::of(4, 4));  // shrinking reuses the buffer
  EXPECT_EQ(Tensor::alloc_stats().allocations, 1u);
  t.resize_uninitialized(Shape::of(8, 8));  // back within capacity
  EXPECT_EQ(Tensor::alloc_stats().allocations, 1u);
  t.resize_uninitialized(Shape::of(16, 16));  // genuine growth
  EXPECT_EQ(Tensor::alloc_stats().allocations, 2u);
}

// live_bytes follows tensor lifetimes, peak_live_bytes is a high-water
// mark, and reset re-arms the peak at the current live level rather than
// zero (so long-lived buffers stay visible to the next measurement).
TEST(AllocStats, LiveAndPeakTrackTensorLifetimes) {
  if (!Tensor::alloc_stats_enabled()) GTEST_SKIP() << "built without FEDCAV_ALLOC_STATS";
  const std::uint64_t base_live = Tensor::alloc_stats().live_bytes;
  constexpr std::uint64_t kBytes = 16ull * 16ull * sizeof(float);
  {
    Tensor t(Shape::of(16, 16));
    const TensorAllocStats during = Tensor::alloc_stats();
    EXPECT_EQ(during.live_bytes, base_live + kBytes);
    EXPECT_GE(during.peak_live_bytes, during.live_bytes);
  }
  EXPECT_EQ(Tensor::alloc_stats().live_bytes, base_live);

  Tensor::reset_alloc_stats();
  const TensorAllocStats armed = Tensor::alloc_stats();
  EXPECT_EQ(armed.peak_live_bytes, armed.live_bytes)
      << "reset must re-arm the peak at the current live level";
}

// The tentpole guarantee: a round's peak live tensor bytes is bounded by
// the replica pool (K ~ thread-pool size), NOT the cohort size. 512
// clients must not peak meaningfully above 128 clients on the same pool.
TEST(AllocStats, RoundPeakLiveBytesIndependentOfCohortSize) {
  if (!Tensor::alloc_stats_enabled()) GTEST_SKIP() << "built without FEDCAV_ALLOC_STATS";

  const auto peak_for = [](std::size_t clients) -> std::uint64_t {
    fl::SimulationConfig cfg;
    cfg.dataset = "digits";
    cfg.model = "mlp";
    cfg.strategy = "fedcav";
    cfg.train_samples_per_class = 64;  // 640 samples >= 512 clients
    cfg.test_samples_per_class = 4;
    cfg.partition.scheme = data::PartitionScheme::kIidBalanced;
    cfg.partition.num_clients = clients;
    cfg.server.sample_ratio = 1.0;  // whole cohort participates
    cfg.server.local.epochs = 1;
    cfg.server.local.batch_size = 4;
    fl::Simulation sim = fl::build_simulation(cfg);
    ThreadPool pool(2);
    sim.server->set_thread_pool(&pool);
    Tensor::reset_alloc_stats();
    sim.server->run_round();
    return Tensor::alloc_stats().peak_live_bytes;
  };

  const std::uint64_t small = peak_for(128);
  const std::uint64_t large = peak_for(512);
  EXPECT_LT(large, small + small / 2)
      << "4x the cohort grew peak live bytes from " << small << " to " << large
      << " — per-client replicas leaked back in";
}

}  // namespace
}  // namespace fedcav
