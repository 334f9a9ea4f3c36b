#include "src/fl/client.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/metrics/evaluation.hpp"
#include "src/nn/optimizer.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/utils/error.hpp"

namespace fedcav::fl {

Client::Client(std::size_t id, data::Dataset local_data, Rng rng)
    : id_(id), data_(std::move(local_data)), rng_(rng) {
  FEDCAV_REQUIRE(!data_.empty(), "Client: empty local dataset");
}

double Client::compute_inference_loss(nn::Model& model, const nn::Weights& global) {
  obs::Span span("inference_loss", "client");
  span.arg("client", static_cast<double>(id_));
  model.set_weights(global);
  return metrics::inference_loss(model, data_);
}

ClientUpdate Client::local_update(nn::Model& model, const nn::Weights& global,
                                  const LocalTrainConfig& config) {
  FEDCAV_REQUIRE(config.epochs > 0, "Client: zero local epochs");
  FEDCAV_REQUIRE(config.batch_size > 0, "Client: zero batch size");
  const double f_i = compute_inference_loss(model, global);
  return train_update(model, global, config, f_i);
}

ClientUpdate Client::train_update(nn::Model& model, const nn::Weights& global,
                                  const LocalTrainConfig& config, double inference_loss) {
  FEDCAV_REQUIRE(config.epochs > 0, "Client: zero local epochs");
  FEDCAV_REQUIRE(config.batch_size > 0, "Client: zero batch size");

  obs::Span train_span("local_epochs", "client");
  train_span.arg("client", static_cast<double>(id_));
  // E epochs of mini-batch SGD from the global weights. The replica may
  // have been used by another client since phase ①, so always reload.
  model.set_weights(global);
  nn::SgdConfig sgd_config;
  sgd_config.lr = config.lr;
  sgd_config.momentum = config.momentum;
  sgd_config.weight_decay = config.weight_decay;
  sgd_config.prox_mu = config.prox_mu;
  nn::Sgd optimizer(sgd_config);
  if (config.prox_mu > 0.0f) optimizer.set_prox_anchor(global);
  if (config.curv_lambda > 0.0f && has_curvature_state()) {
    optimizer.set_quadratic_penalty(curv_anchor_, curv_importance_, config.curv_lambda);
  }

  std::vector<std::size_t> order(data_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<std::size_t> labels;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng_.shuffle(order);
    for (std::size_t begin = 0; begin < order.size(); begin += config.batch_size) {
      const std::size_t end = std::min(order.size(), begin + config.batch_size);
      Tensor batch = data_.make_batch(
          std::span(order.data() + begin, end - begin), &labels);
      model.forward_backward(batch, labels);
      optimizer.step(model);
    }
  }

  ClientUpdate update;
  update.client_id = id_;
  update.weights = model.get_weights();
  update.inference_loss = inference_loss;
  update.num_samples = data_.size();

  if (config.curv_lambda > 0.0f) {
    // Remember this participation's optimum and parameter importances
    // for the EWC-style penalty next time this client is sampled.
    curv_importance_ = estimate_fisher(model);
    curv_anchor_ = update.weights;
  }
  return update;
}

std::vector<float> Client::estimate_fisher(nn::Model& model) {
  model.zero_grad();
  std::vector<float> fisher(model.num_params(), 0.0f);
  std::vector<std::size_t> labels;
  std::size_t batches = 0;
  constexpr std::size_t kFisherBatch = 16;
  std::vector<std::size_t> indices;
  for (std::size_t begin = 0; begin < data_.size(); begin += kFisherBatch) {
    const std::size_t end = std::min(data_.size(), begin + kFisherBatch);
    indices.resize(end - begin);
    for (std::size_t i = begin; i < end; ++i) indices[i - begin] = i;
    Tensor batch = data_.make_batch(indices, &labels);
    model.forward_backward(batch, labels);
    const nn::Weights grads = model.get_gradients();
    for (std::size_t i = 0; i < grads.size(); ++i) fisher[i] += grads[i] * grads[i];
    model.zero_grad();
    ++batches;
  }
  const float inv = 1.0f / static_cast<float>(std::max<std::size_t>(1, batches));
  for (float& f : fisher) f *= inv;
  return fisher;
}

comm::QuantizedDelta Client::encode_quantized_update(const nn::Weights& trained,
                                                     const nn::Weights& reference,
                                                     comm::QuantMode mode,
                                                     double keep_ratio) {
  FEDCAV_REQUIRE(trained.size() == reference.size(),
                 "Client::encode_quantized_update: weight size mismatch");
  FEDCAV_REQUIRE(quant_residual_.empty() || quant_residual_.size() == trained.size(),
                 "Client::encode_quantized_update: residual size mismatch");
  if (quant_residual_.size() != trained.size()) {
    quant_residual_.assign(trained.size(), 0.0f);
  }
  std::vector<float> delta(trained.size());
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i] = trained[i] - reference[i] + quant_residual_[i];
  }
  comm::QuantizedDelta coded = comm::quantize(delta, mode, keep_ratio);
  // residual ← delta − decode(coded): the quantization error on kept
  // coordinates plus the untouched value on dropped ones.
  const std::vector<float> decoded = comm::dequantize(coded);
  for (std::size_t i = 0; i < delta.size(); ++i) {
    quant_residual_[i] = delta[i] - decoded[i];
  }
  if (obs::enabled()) {
    static obs::Histogram& norm_hist =
        obs::registry().histogram("quant.residual_norm");
    norm_hist.observe(quant_residual_norm());
  }
  return coded;
}

double Client::quant_residual_norm() const {
  double sq = 0.0;
  for (float r : quant_residual_) {
    sq += static_cast<double>(r) * static_cast<double>(r);
  }
  return std::sqrt(sq);
}

void Client::save_state(ByteBuffer& buf) const {
  write_f32_span(buf, curv_anchor_);
  write_f32_span(buf, curv_importance_);
  write_f32_span(buf, quant_residual_);
}

void Client::load_state(ByteReader& reader, std::size_t expected_params) {
  std::vector<float> anchor = reader.read_f32_vector();
  std::vector<float> importance = reader.read_f32_vector();
  std::vector<float> residual = reader.read_f32_vector();
  FEDCAV_REQUIRE(anchor.empty() || anchor.size() == expected_params,
                 "Client::load_state: curvature anchor size mismatch");
  FEDCAV_REQUIRE(importance.size() == anchor.size(),
                 "Client::load_state: curvature importance size mismatch");
  FEDCAV_REQUIRE(residual.empty() || residual.size() == expected_params,
                 "Client::load_state: quant residual size mismatch");
  curv_anchor_ = std::move(anchor);
  curv_importance_ = std::move(importance);
  quant_residual_ = std::move(residual);
}

void Client::set_local_data(data::Dataset new_data) {
  FEDCAV_REQUIRE(!new_data.empty(), "Client::set_local_data: empty dataset");
  data_ = std::move(new_data);
}

}  // namespace fedcav::fl
