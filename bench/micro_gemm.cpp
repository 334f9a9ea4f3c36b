// Op-level GEMM perf baseline: seed scalar kernels vs the packed
// register-tiled kernel (src/tensor/gemm.hpp), across the exact
// (m, n, k, op) tuples the model zoo's forward/backward passes emit.
//
// Unlike the micro_* google-benchmark binaries this is a plain
// executable, because it is the canonical producer of the repo's perf
// trajectory file: it writes machine-readable BENCH_gemm.json (one
// {shape, seed_gflops, new_gflops, speedup} entry per tuple) at the
// repo root, so later perf PRs are judged against a committed baseline.
//
// Usage: micro_gemm [--fast] [--out <path>]
//   --fast     CI-sized run (shorter timing windows, same shape coverage)
//   --out      override the JSON destination (default <repo>/BENCH_gemm.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/tensor/gemm.hpp"
#include "src/tensor/ops.hpp"
#include "src/utils/rng.hpp"

namespace {

using namespace fedcav;

// ------------------------------------------------------------------ seed
// Verbatim copies of the PR-0 scalar kernels (pre-gemm ops.cpp), kept
// here as the fixed baseline every future kernel is measured against.

void seed_matmul(const float* pa, const float* pb, float* pc, std::size_t m,
                 std::size_t n, std::size_t k) {
  std::fill(pc, pc + m * n, 0.0f);
  constexpr std::size_t kBlock = 64;
  for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
    const std::size_t i_end = std::min(m, i0 + kBlock);
    for (std::size_t kk0 = 0; kk0 < k; kk0 += kBlock) {
      const std::size_t k_end = std::min(k, kk0 + kBlock);
      for (std::size_t i = i0; i < i_end; ++i) {
        for (std::size_t kk = kk0; kk < k_end; ++kk) {
          const float aik = pa[i * k + kk];
          if (aik == 0.0f) continue;
          const float* brow = pb + kk * n;
          float* crow = pc + i * n;
          for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
}

void seed_matmul_transposed_b(const float* pa, const float* pb, float* pc,
                              std::size_t m, std::size_t n, std::size_t k) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      const float* arow = pa + i * k;
      const float* brow = pb + j * k;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(arow[kk]) * static_cast<double>(brow[kk]);
      }
      pc[i * n + j] = static_cast<float>(acc);
    }
  }
}

void seed_matmul_transposed_a(const float* pa, const float* pb, float* pc,
                              std::size_t m, std::size_t n, std::size_t k) {
  std::fill(pc, pc + m * n, 0.0f);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float aki = arow[i];
      if (aki == 0.0f) continue;
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
}

// ----------------------------------------------------------------- cases

enum class Op { kNN, kNT, kTN };  // C = A·B | A·Bᵀ | Aᵀ·B

const char* op_name(Op op) {
  switch (op) {
    case Op::kNN: return "nn";
    case Op::kNT: return "nt";
    case Op::kTN: return "tn";
  }
  return "?";
}

struct Case {
  const char* model;  // which zoo model emits this tuple
  const char* site;   // layer + pass
  Op op;
  std::size_t m, n, k;
};

// Batch size 10 matches ServerConfig.local.batch_size in the paper runs.
const Case kCases[] = {
    // LeNet5Lite on 1×14×14 inputs.
    {"lenet5", "conv1 fwd", Op::kNN, 6, 196, 25},
    {"lenet5", "conv2 fwd", Op::kNN, 16, 9, 150},
    {"lenet5", "conv1 bwd dW", Op::kNT, 6, 25, 196},
    {"lenet5", "conv2 bwd dW", Op::kNT, 16, 150, 9},
    {"lenet5", "conv1 bwd dX", Op::kTN, 25, 196, 6},
    {"lenet5", "conv2 bwd dX", Op::kTN, 150, 9, 16},
    {"lenet5", "dense1 fwd", Op::kNT, 10, 64, 144},
    {"lenet5", "dense1 bwd dW", Op::kTN, 64, 144, 10},
    {"lenet5", "dense1 bwd dX", Op::kNN, 10, 144, 64},
    {"lenet5", "dense2 fwd", Op::kNT, 10, 10, 64},
    // CNN9Lite.
    {"cnn9", "conv2 fwd", Op::kNN, 8, 196, 72},
    {"cnn9", "conv4 fwd", Op::kNN, 16, 49, 144},
    {"cnn9", "conv2 bwd dW", Op::kNT, 8, 72, 196},
    {"cnn9", "conv4 bwd dX", Op::kTN, 144, 49, 16},
    // ResNetLite on 3×16×16 inputs.
    {"resnet", "stem fwd", Op::kNN, 8, 256, 27},
    {"resnet", "block2 fwd", Op::kNN, 16, 64, 72},
    {"resnet", "block3 fwd", Op::kNN, 32, 16, 144},
    {"resnet", "block3 bwd dW", Op::kNT, 32, 144, 16},
    // Square reference points for the trajectory plot.
    {"square", "64", Op::kNN, 64, 64, 64},
    {"square", "128", Op::kNN, 128, 128, 128},
    {"square", "256", Op::kNN, 256, 256, 256},
};

void run_seed(const Case& c, const float* a, const float* b, float* out) {
  switch (c.op) {
    case Op::kNN: seed_matmul(a, b, out, c.m, c.n, c.k); break;
    case Op::kNT: seed_matmul_transposed_b(a, b, out, c.m, c.n, c.k); break;
    case Op::kTN: seed_matmul_transposed_a(a, b, out, c.m, c.n, c.k); break;
  }
}

void run_new(const Case& c, const float* a, const float* b, float* out) {
  switch (c.op) {
    case Op::kNN:
      ops::gemm(ops::Trans::kNo, ops::Trans::kNo, c.m, c.n, c.k, a, c.k, b,
                c.n, 0.0f, out, c.n);
      break;
    case Op::kNT:
      ops::gemm(ops::Trans::kNo, ops::Trans::kYes, c.m, c.n, c.k, a, c.k, b,
                c.k, 0.0f, out, c.n);
      break;
    case Op::kTN:
      ops::gemm(ops::Trans::kYes, ops::Trans::kNo, c.m, c.n, c.k, a, c.m, b,
                c.n, 0.0f, out, c.n);
      break;
  }
}

// Best-of-3 GFLOP/s over timing windows of at least `window_ms`.
template <typename F>
double measure_gflops(const Case& c, F&& body, double window_ms) {
  const double flops = 2.0 * static_cast<double>(c.m) *
                       static_cast<double>(c.n) * static_cast<double>(c.k);
  using clock = std::chrono::steady_clock;
  // Calibrate an iteration count that fills the window.
  std::size_t iters = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < iters; ++i) body();
    const double ms = std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    if (ms >= window_ms || iters >= (1u << 24)) break;
    iters *= 4;
  }
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < iters; ++i) body();
    const double sec = std::chrono::duration<double>(clock::now() - t0).count();
    best = std::max(best, flops * static_cast<double>(iters) / sec / 1e9);
  }
  return best;
}

double geomean(const std::vector<double>& xs) {
  double log_sum = 0.0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace

int main(int argc, char** argv) {
  double window_ms = 50.0;
#ifdef FEDCAV_REPO_ROOT
  std::string out_path = std::string(FEDCAV_REPO_ROOT) + "/BENCH_gemm.json";
#else
  std::string out_path = "BENCH_gemm.json";
#endif
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      window_ms = 5.0;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--fast] [--out <path>]\n", argv[0]);
      return 2;
    }
  }

  Rng rng(2021);
  std::ofstream json(out_path);
  if (!json) {
    std::fprintf(stderr, "micro_gemm: cannot open %s for writing\n", out_path.c_str());
    return 1;
  }

  std::printf("%-8s %-14s %-3s %18s %12s %12s %9s\n", "model", "site", "op",
              "m x n x k", "seed GF/s", "new GF/s", "speedup");
  json << "[\n";
  std::vector<double> lenet_speedups;
  std::vector<double> all_speedups;
  bool first = true;
  for (const Case& c : kCases) {
    std::vector<float> a(c.m * c.k);
    std::vector<float> b(c.k * c.n);
    std::vector<float> out(c.m * c.n, 0.0f);
    for (auto& v : a) v = rng.uniform_f(-1.0f, 1.0f);
    for (auto& v : b) v = rng.uniform_f(-1.0f, 1.0f);

    const double seed_gf = measure_gflops(
        c, [&] { run_seed(c, a.data(), b.data(), out.data()); }, window_ms);
    const double new_gf = measure_gflops(
        c, [&] { run_new(c, a.data(), b.data(), out.data()); }, window_ms);
    const double speedup = new_gf / seed_gf;
    all_speedups.push_back(speedup);
    if (std::strcmp(c.model, "lenet5") == 0) lenet_speedups.push_back(speedup);

    std::printf("%-8s %-14s %-3s %6zu x %4zu x %4zu %12.2f %12.2f %8.2fx\n",
                c.model, c.site, op_name(c.op), c.m, c.n, c.k, seed_gf, new_gf,
                speedup);
    if (!first) json << ",\n";
    first = false;
    json << "  {\"shape\": \"" << c.m << "x" << c.n << "x" << c.k
         << "\", \"op\": \"" << op_name(c.op) << "\", \"model\": \"" << c.model
         << "\", \"site\": \"" << c.site << "\", \"seed_gflops\": " << seed_gf
         << ", \"new_gflops\": " << new_gf << ", \"speedup\": " << speedup << "}";
  }
  json << "\n]\n";

  const double lenet_geo = geomean(lenet_speedups);
  const double all_geo = geomean(all_speedups);
  std::printf("\ngeomean speedup: lenet5 %.2fx, all shapes %.2fx\n", lenet_geo,
              all_geo);
  std::printf("wrote %s\n", out_path.c_str());
  // PR-1 acceptance bar: the packed kernel must hold >=2x over the seed
  // scalar kernels on the LeNet5Lite shapes.
  if (lenet_geo < 2.0) {
    std::fprintf(stderr, "FAIL: lenet5 geomean speedup %.2fx < 2x\n", lenet_geo);
    return 1;
  }
  return 0;
}
