// Federated client: owns a private data shard and implements Algorithm 2
// (LocalUpdate) against a *borrowed* model replica.
//
// Per round the client (1) loads the downloaded global weights into the
// leased replica, (2) computes the inference loss f_i(w_t) of that
// untrained model on its local data, (3) runs E epochs of mini-batch SGD
// (optionally with FedProx's proximal pull toward the global weights),
// and (4) returns the trained weights, the inference loss, and its
// sample count.
//
// Clients do NOT own model replicas (PR 5): identity is the data shard,
// the batch-shuffle RNG stream, and FedCurv anchor state. Models come
// from the server's bounded nn::ReplicaPool, so simulation memory is
// O(K × model) with K ≈ thread-pool size instead of O(N_clients × model)
// (DESIGN.md §11). Any replica is equivalent: every entry point below
// starts from set_weights(global) and training state (optimizer, grads)
// never persists inside a pooled model between leases.
#pragma once

#include "src/comm/compression.hpp"
#include "src/data/dataset.hpp"
#include "src/fl/types.hpp"
#include "src/nn/model.hpp"
#include "src/tensor/serialize.hpp"
#include "src/utils/rng.hpp"

namespace fedcav::fl {

class Client {
 public:
  Client(std::size_t id, data::Dataset local_data, Rng rng);

  std::size_t id() const { return id_; }
  const data::Dataset& local_data() const { return data_; }
  std::size_t num_samples() const { return data_.size(); }

  /// Algorithm 2 in full: inference loss then E epochs of SGD, on the
  /// borrowed `model`. `config` carries E, B, η and (for FedProx) μ.
  ClientUpdate local_update(nn::Model& model, const nn::Weights& global,
                            const LocalTrainConfig& config);

  /// The inference loss alone (phase ① of the round) — loads `global`
  /// into `model` first.
  double compute_inference_loss(nn::Model& model, const nn::Weights& global);

  /// Phase ②: training only, with the inference loss already measured in
  /// phase ① passed through into the returned update. Starts from
  /// set_weights(global), so it does not matter which replica computed
  /// the loss.
  ClientUpdate train_update(nn::Model& model, const nn::Weights& global,
                            const LocalTrainConfig& config, double inference_loss);

  /// Replace this client's data (dynamic-environment experiments inject
  /// fresh-class samples between phases).
  void set_local_data(data::Dataset new_data);

  /// Reseed the batch-shuffle stream for one participation:
  /// Rng(derive_seed(root_seed, round, id, kClientTrain)).
  /// Both the in-process server and a remote worker call this right
  /// before train_update, so the shuffles a client performs in round r
  /// are a pure function of (seed, r, id) — identical no matter which
  /// process hosts the client or which earlier rounds it sat out.
  void reseed_for_round(std::uint64_t root_seed, std::size_t round) {
    rng_ = Rng(derive_seed(root_seed, static_cast<std::uint64_t>(round),
                           static_cast<std::uint64_t>(id_), RngStream::kClientTrain));
  }

  /// True once a curv_lambda run has stored a previous-optimum anchor.
  bool has_curvature_state() const { return !curv_anchor_.empty(); }

  /// Quantized-uplink codec with error feedback (Algorithm 2's report
  /// step under ServerConfig::quant): codes delta = trained − reference
  /// + residual, where the residual carries everything previous codes
  /// dropped (quantization error plus coordinates a keep_ratio < 1 left
  /// out), then stores the new round's coding error back into the
  /// residual. The residual updates at encode time — if the report is
  /// later lost in flight, that round's delta is gone (matching the
  /// dense protocol, where a lost report also folds as carried mass).
  comm::QuantizedDelta encode_quantized_update(const nn::Weights& trained,
                                               const nn::Weights& reference,
                                               comm::QuantMode mode,
                                               double keep_ratio);

  /// L2 norm of the pending error-feedback residual (0 before the first
  /// quantized participation).
  double quant_residual_norm() const;

  /// Serialize / restore the client's round-to-round mutable state: the
  /// FedCurv anchor/importance vectors and the pending error-feedback
  /// residual. Model weights are not included — every participation
  /// overwrites them with the downloaded global model — nor is the
  /// batch-shuffle stream, which reseed_for_round replaces before every
  /// server-driven participation. load_state throws fedcav::Error when a
  /// non-empty anchor or residual does not match `expected_params` (the
  /// global model's parameter count).
  void save_state(ByteBuffer& buf) const;
  void load_state(ByteReader& reader, std::size_t expected_params);

 private:
  /// Diagonal Fisher estimate of `model` on the local data (mean squared
  /// gradient over one pass).
  std::vector<float> estimate_fisher(nn::Model& model);

  std::size_t id_;
  data::Dataset data_;
  Rng rng_;
  // FedCurv-lite state: the client's previous local optimum and its
  // parameter importances, kept across participations.
  std::vector<float> curv_anchor_;
  std::vector<float> curv_importance_;
  // Error-feedback residual of the quantized uplink: what earlier codes
  // dropped, to be folded into the next delta (empty until the first
  // quantized participation).
  std::vector<float> quant_residual_;
};

}  // namespace fedcav::fl
