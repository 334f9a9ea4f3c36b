// Model evaluation: top-1 accuracy, confusion matrix, per-class
// precision / recall / F1. The paper reports top-1 test accuracy
// (§5.2.1) but notes recall/precision/F1 matter when test sets are
// imbalanced — all are provided.
#pragma once

#include <vector>

#include "src/data/dataset.hpp"
#include "src/nn/model.hpp"
#include "src/nn/replica_pool.hpp"
#include "src/utils/threadpool.hpp"

namespace fedcav::metrics {

struct ClassMetrics {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  std::size_t support = 0;
};

struct EvalResult {
  double accuracy = 0.0;
  double mean_loss = 0.0;
  std::vector<std::vector<std::size_t>> confusion;  // [true][predicted]
  std::vector<ClassMetrics> per_class;

  double macro_f1() const;
};

/// Evaluate in mini-batches of `batch_size` to bound peak memory.
EvalResult evaluate(nn::Model& model, const data::Dataset& test,
                    std::size_t batch_size = 64);

/// Parallel evaluation over leased model replicas. The test batches are
/// fixed slots: batch i's per-example predictions and loss land in slot
/// i no matter which worker computed them, and the slots fold in
/// ascending batch order — bit-identical to evaluate() at any pool
/// size (DESIGN.md §13 fixed-slot evaluation). `weights` is loaded into
/// every leased replica before it predicts.
EvalResult evaluate(nn::ReplicaPool& replicas, const nn::Weights& weights,
                    const data::Dataset& test, ThreadPool& pool,
                    std::size_t batch_size = 64);

/// Accuracy only (cheaper; skips the confusion matrix bookkeeping).
double accuracy(nn::Model& model, const data::Dataset& test, std::size_t batch_size = 64);

/// Mean loss of the model on a dataset — the paper's inference loss
/// f_i(w) when `dataset` is a client's local data (Eq. 1, normalized by
/// sample count so clients of different sizes are comparable).
double inference_loss(nn::Model& model, const data::Dataset& dataset,
                      std::size_t batch_size = 64);

}  // namespace fedcav::metrics
