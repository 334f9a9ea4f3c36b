// FEDCAV_TEST_THREADS hook, compiled into every test binary.
//
// When FEDCAV_TEST_THREADS is set to N > 0, a global gtest Environment
// attaches an N-worker kernel ThreadPool before any test runs
// (ops::set_kernel_pool, DESIGN.md §13). The determinism contract says
// every kernel must produce bit-identical results at any worker count,
// so the whole suite — goldens included — must pass unchanged under
// FEDCAV_TEST_THREADS=1 and =4; scripts/check.sh enforces both, and the
// TSan configuration reuses the same hook to race-check the parallel
// kernels.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include <gtest/gtest.h>

#include "src/tensor/parallel.hpp"
#include "src/utils/threadpool.hpp"

namespace {

class KernelPoolEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    const char* value = std::getenv("FEDCAV_TEST_THREADS");
    if (value == nullptr) return;
    const int workers = std::atoi(value);
    if (workers <= 0) return;
    pool_ = std::make_unique<fedcav::ThreadPool>(
        static_cast<std::size_t>(workers));
    fedcav::ops::set_kernel_pool(pool_.get());
    std::printf("[FEDCAV_TEST_THREADS] kernel pool attached: %d worker%s\n",
                workers, workers == 1 ? "" : "s");
  }

  void TearDown() override {
    fedcav::ops::set_kernel_pool(nullptr);
    pool_.reset();
  }

 private:
  std::unique_ptr<fedcav::ThreadPool> pool_;
};

// Registration happens at static-init time; gtest owns the Environment.
const ::testing::Environment* const kKernelPoolEnvironment =
    ::testing::AddGlobalTestEnvironment(new KernelPoolEnvironment);

}  // namespace
