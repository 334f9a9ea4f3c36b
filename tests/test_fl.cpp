// Unit tests for src/fl: strategies, client local updates, the server
// round loop, centralized baseline, and the simulation builder.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "src/comm/compression.hpp"
#include "src/fl/centralized.hpp"
#include "src/fl/client.hpp"
#include "src/fl/fedavg.hpp"
#include "src/fl/fedprox.hpp"
#include "src/data/stats.hpp"
#include "src/fl/simulation.hpp"
#include "src/metrics/evaluation.hpp"
#include "src/tensor/serialize.hpp"
#include "src/utils/error.hpp"

namespace fedcav::fl {
namespace {

ClientUpdate make_update(std::size_t id, std::vector<float> weights,
                         std::size_t samples, double loss = 1.0) {
  ClientUpdate u;
  u.client_id = id;
  u.weights = std::move(weights);
  u.num_samples = samples;
  u.inference_loss = loss;
  return u;
}

data::Dataset small_corpus(std::size_t per_class = 8, const char* name = "digits") {
  const data::SynthGenerator gen(data::synth_config_by_name(name, 99));
  Rng rng(4);
  return gen.generate_balanced(per_class, rng);
}

SimulationConfig tiny_config() {
  SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.strategy = "fedcav";
  config.train_samples_per_class = 12;
  config.test_samples_per_class = 6;
  config.partition.num_clients = 6;
  config.partition.scheme = data::PartitionScheme::kNonIidImbalanced;
  config.server.sample_ratio = 0.5;
  config.server.local.epochs = 2;
  config.server.local.batch_size = 8;
  config.server.local.lr = 0.05f;
  config.seed = 77;
  return config;
}

// -------------------------------------------------------------- FedAvg

TEST(FedAvg, WeightsProportionalToSampleCounts) {
  FedAvg strategy;
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {1.0f}, 30));
  updates.push_back(make_update(1, {1.0f}, 10));
  const auto gamma = strategy.aggregation_weights(updates);
  EXPECT_NEAR(gamma[0], 0.75, 1e-12);
  EXPECT_NEAR(gamma[1], 0.25, 1e-12);
}

TEST(FedAvg, AggregateIsSampleWeightedMean) {
  FedAvg strategy;
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {4.0f, 0.0f}, 30));
  updates.push_back(make_update(1, {0.0f, 4.0f}, 10));
  const nn::Weights out = strategy.aggregate({0.0f, 0.0f}, updates);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
  EXPECT_FLOAT_EQ(out[1], 1.0f);
}

TEST(FedAvg, IgnoresInferenceLoss) {
  FedAvg strategy;
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {1.0f}, 10, /*loss=*/100.0));
  updates.push_back(make_update(1, {1.0f}, 10, /*loss=*/0.01));
  const auto gamma = strategy.aggregation_weights(updates);
  EXPECT_NEAR(gamma[0], gamma[1], 1e-12);
}

TEST(FedAvg, RejectsDegenerateInput) {
  FedAvg strategy;
  EXPECT_THROW(strategy.aggregation_weights({}), Error);
  std::vector<ClientUpdate> zero_samples;
  zero_samples.push_back(make_update(0, {1.0f}, 0));
  EXPECT_THROW(strategy.aggregation_weights(zero_samples), Error);
}

TEST(WeightedAverage, ValidatesDimensions) {
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {1.0f, 2.0f}, 1));
  updates.push_back(make_update(1, {1.0f}, 1));
  EXPECT_THROW(weighted_average(updates, {0.5, 0.5}), Error);
  updates.pop_back();
  EXPECT_THROW(weighted_average(updates, {0.5, 0.5}), Error);  // weight count
}

TEST(WeightedAverage, UsesDoubleAccumulation) {
  // Many tiny contributions must not be lost to float rounding.
  std::vector<ClientUpdate> updates;
  std::vector<double> weights;
  for (std::size_t i = 0; i < 1000; ++i) {
    updates.push_back(make_update(i, {1.0f}, 1));
    weights.push_back(1.0 / 1000.0);
  }
  const nn::Weights out = weighted_average(updates, weights);
  EXPECT_NEAR(out[0], 1.0f, 1e-6f);
}

// -------------------------------------------- incremental aggregation

std::vector<ClientUpdate> random_cohort(std::size_t n, std::size_t dim,
                                        Rng& rng) {
  std::vector<ClientUpdate> updates;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> w(dim);
    for (auto& v : w) v = rng.uniform_f(-2.0f, 2.0f);
    updates.push_back(make_update(i, std::move(w), 5 + i * 3,
                                  0.1 + 0.4 * static_cast<double>(i)));
  }
  return updates;
}

std::vector<ClientUpdate> scalars_only(const std::vector<ClientUpdate>& updates) {
  std::vector<ClientUpdate> meta = updates;
  for (auto& m : meta) m.weights.clear();
  return meta;
}

// The acceptance bar for the streaming path: folding updates one at a
// time must reproduce the one-shot weighted_average BIT-exactly — same
// doubles, same float casts, same order — or golden runs would shift.
void expect_incremental_matches_one_shot(AggregationStrategy& one_shot,
                                         AggregationStrategy& incremental,
                                         bool expect_streaming) {
  Rng rng(0xabc);
  const std::size_t dim = 257;
  std::vector<float> global(dim);
  for (auto& v : global) v = rng.uniform_f(-1.0f, 1.0f);
  const std::vector<ClientUpdate> updates = random_cohort(7, dim, rng);

  const nn::Weights direct = one_shot.aggregate(global, updates);

  EXPECT_EQ(incremental.streaming_aggregation(), expect_streaming);
  incremental.begin_aggregation(global, scalars_only(updates));
  for (const auto& u : updates) incremental.accumulate(u);
  const nn::Weights streamed = incremental.finish_aggregation();

  ASSERT_EQ(streamed.size(), direct.size());
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_EQ(streamed[i], direct[i]) << "component " << i << " diverged";
  }
}

TEST(Streaming, FedAvgIncrementalIsBitIdenticalToOneShot) {
  FedAvg a;
  FedAvg b;
  expect_incremental_matches_one_shot(a, b, /*expect_streaming=*/true);
}

TEST(Streaming, FedCavIncrementalIsBitIdenticalToOneShot) {
  auto a = make_strategy("fedcav");
  auto b = make_strategy("fedcav");
  expect_incremental_matches_one_shot(*a, *b, /*expect_streaming=*/true);
}

TEST(Streaming, BufferedDefaultMatchesAggregateForNonStreamingStrategies) {
  // Robust rules can't stream (order statistics need every update); the
  // base-class incremental path must buffer and reproduce aggregate().
  auto a = make_strategy("median");
  auto b = make_strategy("median");
  expect_incremental_matches_one_shot(*a, *b, /*expect_streaming=*/false);
}

TEST(Streaming, AccumulateValidatesProtocol) {
  FedAvg strategy;
  // finish before begin / fold-count mismatch must throw, not UB.
  EXPECT_THROW(strategy.finish_aggregation(), Error);
  std::vector<ClientUpdate> meta;
  meta.push_back(make_update(0, {}, 10));
  meta.push_back(make_update(1, {}, 10));
  strategy.begin_aggregation({1.0f, 2.0f}, meta);
  strategy.accumulate(make_update(0, {1.0f, 1.0f}, 10));
  EXPECT_THROW(strategy.finish_aggregation(), Error);  // one fold missing
}

// ------------------------------------------------------------- FedProx

TEST(FedProx, InjectsProximalTermIntoLocalConfig) {
  FedProx strategy(0.05f);
  LocalTrainConfig config;
  EXPECT_FLOAT_EQ(config.prox_mu, 0.0f);
  strategy.apply_local_overrides(config);
  EXPECT_FLOAT_EQ(config.prox_mu, 0.05f);
}

TEST(FedProx, AggregationMatchesFedAvg) {
  FedProx prox(0.01f);
  FedAvg avg;
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {2.0f}, 5));
  updates.push_back(make_update(1, {6.0f}, 15));
  const nn::Weights a = prox.aggregate({0.0f}, updates);
  const nn::Weights b = avg.aggregate({0.0f}, updates);
  EXPECT_FLOAT_EQ(a[0], b[0]);
}

TEST(FedProx, RejectsNonPositiveMu) { EXPECT_THROW(FedProx(0.0f), Error); }

// ------------------------------------------------------------ factory

TEST(StrategyFactory, BuildsAllKnownStrategies) {
  EXPECT_EQ(make_strategy("fedavg")->name(), "FedAvg");
  EXPECT_NE(make_strategy("fedprox")->name().find("FedProx"), std::string::npos);
  EXPECT_NE(make_strategy("fedcav")->name().find("clip=mean"), std::string::npos);
  EXPECT_NE(make_strategy("fedcav-noclip")->name().find("clip=none"), std::string::npos);
  EXPECT_THROW(make_strategy("fedsgd"), Error);
}

// -------------------------------------------------------------- Client

TEST(Client, LocalUpdateReportsPretrainingLoss) {
  Rng rng(5);
  data::Dataset corpus = small_corpus();
  auto model = nn::model_builder("mlp")(rng);
  const nn::Weights global = model->get_weights();
  Client client(0, corpus, Rng(6));

  LocalTrainConfig config;
  config.epochs = 1;
  config.batch_size = 16;
  config.lr = 0.05f;
  const ClientUpdate update = client.local_update(*model, global, config);

  // The reported loss is f_i(w_t) — of the *downloaded* model, before
  // training. Recompute it independently.
  Rng rng2(5);
  auto probe = nn::model_builder("mlp")(rng2);
  probe->set_weights(global);
  EXPECT_NEAR(update.inference_loss, metrics::inference_loss(*probe, corpus), 1e-6);
  EXPECT_EQ(update.num_samples, corpus.size());
  EXPECT_EQ(update.client_id, 0u);
}

TEST(Client, TrainingChangesWeightsAndReducesLoss) {
  Rng rng(7);
  data::Dataset corpus = small_corpus();
  auto model = nn::model_builder("mlp")(rng);
  const nn::Weights global = model->get_weights();
  Client client(1, corpus, Rng(8));

  LocalTrainConfig config;
  config.epochs = 5;
  config.batch_size = 10;
  config.lr = 0.05f;
  const ClientUpdate update = client.local_update(*model, global, config);

  EXPECT_NE(update.weights, global);
  // Post-training loss on local data must beat the pre-training loss.
  Rng rng2(7);
  auto probe = nn::model_builder("mlp")(rng2);
  probe->set_weights(update.weights);
  EXPECT_LT(metrics::inference_loss(*probe, corpus), update.inference_loss);
}

TEST(Client, DeterministicGivenIdenticalRngState) {
  data::Dataset corpus = small_corpus();
  Rng rng_a(9);
  Rng rng_b(9);
  // Replicas are interchangeable: two different model instances (even
  // differently initialized) must produce bit-identical updates, because
  // local work always starts from set_weights(global).
  auto model_a = nn::model_builder("mlp")(rng_a);
  auto model_b = nn::model_builder("mlp")(rng_b);
  const nn::Weights global = model_a->get_weights();
  Client a(0, corpus, Rng(10));
  Client b(0, corpus, Rng(10));
  LocalTrainConfig config;
  config.epochs = 2;
  const ClientUpdate ua = a.local_update(*model_a, global, config);
  const ClientUpdate ub = b.local_update(*model_b, global, config);
  EXPECT_EQ(ua.weights, ub.weights);
  EXPECT_DOUBLE_EQ(ua.inference_loss, ub.inference_loss);
}

TEST(Client, ProximalTermKeepsUpdateCloserToGlobal) {
  data::Dataset corpus = small_corpus();
  Rng rng_a(11);
  Rng rng_b(11);
  auto model_a = nn::model_builder("mlp")(rng_a);
  auto model_b = nn::model_builder("mlp")(rng_b);
  const nn::Weights global = model_a->get_weights();
  Client plain(0, corpus, Rng(12));
  Client prox(0, corpus, Rng(12));

  LocalTrainConfig config;
  config.epochs = 5;
  config.lr = 0.05f;
  const ClientUpdate u_plain = plain.local_update(*model_a, global, config);
  config.prox_mu = 0.5f;
  const ClientUpdate u_prox = prox.local_update(*model_b, global, config);

  auto distance = [&](const nn::Weights& w) {
    double acc = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double d = static_cast<double>(w[i]) - static_cast<double>(global[i]);
      acc += d * d;
    }
    return std::sqrt(acc);
  };
  EXPECT_LT(distance(u_prox.weights), distance(u_plain.weights));
}

TEST(Client, RejectsEmptyDataAndBadConfig) {
  Rng rng(13);
  data::Dataset corpus = small_corpus();
  EXPECT_THROW(Client(0, data::Dataset(corpus.sample_shape(), 10), Rng(1)), Error);
  auto model = nn::model_builder("mlp")(rng);
  const nn::Weights global = model->get_weights();
  Client client(0, corpus, Rng(1));
  LocalTrainConfig config;
  config.epochs = 0;
  EXPECT_THROW(client.local_update(*model, global, config), Error);
}

TEST(Client, SetLocalDataSwapsShard) {
  data::Dataset corpus = small_corpus();
  Client client(0, corpus, Rng(1));
  data::Dataset bigger = small_corpus(12);
  client.set_local_data(bigger);
  EXPECT_EQ(client.num_samples(), bigger.size());
  EXPECT_THROW(client.set_local_data(data::Dataset(corpus.sample_shape(), 10)), Error);
}

// The client's pending error-feedback residual, read back through the
// checkpoint layout (anchor, importance, residual).
std::vector<float> saved_residual(const Client& client) {
  ByteBuffer buf;
  client.save_state(buf);
  ByteReader reader(buf);
  (void)reader.read_f32_vector();
  (void)reader.read_f32_vector();
  return reader.read_f32_vector();
}

// Loads `residual` as the client's pending error-feedback state.
void load_residual(Client& client, const std::vector<float>& residual) {
  ByteBuffer buf;
  write_f32_span(buf, std::vector<float>{});
  write_f32_span(buf, std::vector<float>{});
  write_f32_span(buf, residual);
  ByteReader reader(buf);
  client.load_state(reader, residual.size());
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Client, QuantizedResidualIsDeltaMinusDecodedCodeBitForBit) {
  // Three blocks at keep 1. Every fifth coordinate trains to −0 from a
  // +0 reference with a −0 pending residual, so its delta is −0: a kept
  // −0 decodes through dequantize's 0 + v, and the residual must keep
  // exactly that form.
  constexpr std::size_t kDim = 700;
  const data::Dataset corpus = small_corpus();
  const struct {
    comm::QuantMode mode;
    double keep;
  } configs[] = {{comm::QuantMode::kFp16, 1.0},
                 {comm::QuantMode::kFp16, 0.25},
                 {comm::QuantMode::kInt8, 1.0},
                 {comm::QuantMode::kInt8, 0.25}};
  for (const auto& c : configs) {
    SCOPED_TRACE(comm::to_string(c.mode) + " keep " + std::to_string(c.keep));
    Client client(0, corpus, Rng(1));
    std::vector<float> residual(kDim);
    for (std::size_t i = 0; i < kDim; ++i) residual[i] = i % 5 == 0 ? -0.0f : 0.001f * static_cast<float>(i % 7);
    load_residual(client, residual);
    Rng rng(3);
    for (int round = 0; round < 3; ++round) {
      nn::Weights trained(kDim);
      nn::Weights reference(kDim);
      for (std::size_t i = 0; i < kDim; ++i) {
        trained[i] = i % 5 == 0 ? -0.0f : rng.uniform_f(-0.1f, 0.1f);
        reference[i] = i % 5 == 0 ? 0.0f : rng.uniform_f(-0.1f, 0.1f);
      }
      std::vector<float> delta(kDim);
      for (std::size_t i = 0; i < kDim; ++i) delta[i] = trained[i] - reference[i] + residual[i];
      const comm::QuantizedDelta code =
          client.encode_quantized_update(trained, reference, c.mode, c.keep);
      EXPECT_EQ(code.encode(), comm::quantize(delta, c.mode, c.keep).encode());
      const std::vector<float> decoded = comm::dequantize(code);
      for (std::size_t i = 0; i < kDim; ++i) residual[i] = delta[i] - decoded[i];
      EXPECT_TRUE(same_bits(saved_residual(client), residual)) << "round " << round;
    }
    if (c.mode == comm::QuantMode::kFp16 && c.keep == 1.0) {
      // fp16 codes the kept −0 as −0, and −0 − (0 + −0) is −0 where
      // −0 − −0 would be +0.
      EXPECT_TRUE(std::signbit(residual[0]));
    }
  }
}

TEST(Client, OverflowingDeltaThrowsAndLeavesResidualAndNextCodeUnchanged) {
  constexpr std::size_t kDim = 300;
  const data::Dataset corpus = small_corpus();
  Client client(0, corpus, Rng(1));
  Client twin(0, corpus, Rng(1));
  Rng rng(9);
  const auto draw = [&] {
    nn::Weights w(kDim);
    for (float& v : w) v = rng.uniform_f(-1.0f, 1.0f);
    return w;
  };
  const nn::Weights trained = draw();
  const nn::Weights reference = draw();
  for (Client* c : {&client, &twin}) {
    (void)c->encode_quantized_update(trained, reference, comm::QuantMode::kInt8, 0.25);
  }
  const std::vector<float> before = saved_residual(client);

  // FLT_MAX − (−FLT_MAX) overflows to +inf, which quantize rejects.
  nn::Weights bad_trained = draw();
  nn::Weights bad_reference = draw();
  bad_trained[17] = FLT_MAX;
  bad_reference[17] = -FLT_MAX;
  EXPECT_THROW(client.encode_quantized_update(bad_trained, bad_reference,
                                              comm::QuantMode::kInt8, 0.25),
               Error);
  EXPECT_TRUE(same_bits(saved_residual(client), before));

  const nn::Weights next_trained = draw();
  const nn::Weights next_reference = draw();
  EXPECT_EQ(client.encode_quantized_update(next_trained, next_reference,
                                           comm::QuantMode::kInt8, 0.25)
                .encode(),
            twin.encode_quantized_update(next_trained, next_reference,
                                         comm::QuantMode::kInt8, 0.25)
                .encode());
  EXPECT_TRUE(same_bits(saved_residual(client), saved_residual(twin)));
}

// -------------------------------------------------------------- Server

TEST(Server, RoundProducesHistoryRecord) {
  Simulation sim = build_simulation(tiny_config());
  const metrics::RoundRecord rec = sim.server->run_round();
  EXPECT_EQ(rec.round, 1u);
  EXPECT_EQ(rec.participants, 3u);  // 6 clients × q=0.5
  EXPECT_GT(rec.test_accuracy, 0.0);
  EXPECT_GT(rec.mean_inference_loss, 0.0);
  EXPECT_GE(rec.max_inference_loss, rec.mean_inference_loss);
  EXPECT_EQ(sim.server->history().rounds(), 1u);
}

TEST(Server, RunExecutesRequestedRounds) {
  Simulation sim = build_simulation(tiny_config());
  sim.server->run(3);
  EXPECT_EQ(sim.server->history().rounds(), 3u);
  EXPECT_EQ(sim.server->current_round(), 3u);
}

TEST(Server, DeterministicGivenSeed) {
  Simulation a = build_simulation(tiny_config());
  Simulation b = build_simulation(tiny_config());
  a.server->run(2);
  b.server->run(2);
  EXPECT_EQ(a.server->global_weights(), b.server->global_weights());
  EXPECT_DOUBLE_EQ(a.server->history()[1].test_accuracy,
                   b.server->history()[1].test_accuracy);
}

TEST(Server, NetworkMetersWeightTraffic) {
  SimulationConfig config = tiny_config();
  Simulation sim = build_simulation(config);
  const metrics::RoundRecord rec = sim.server->run_round();
  const std::size_t weight_bytes = sim.server->global_weights().size() * sizeof(float);
  // Downlink: one global model per participant (plus framing).
  EXPECT_GT(rec.bytes_down, rec.participants * weight_bytes);
  // Uplink: one report per participant; at least the weights payload.
  EXPECT_GT(rec.bytes_up, rec.participants * weight_bytes);
  // Framing overhead is tiny compared to the weights.
  EXPECT_LT(rec.bytes_down, rec.participants * (weight_bytes + 256));
}

TEST(Server, DisablingNetworkIsRejected) {
  // Every round runs over the metered fabric. The retired switch would
  // otherwise silently turn off the fault plan, retries, the uplink
  // deadline and every byte count.
  SimulationConfig config = tiny_config();
  config.server.use_network = false;
  EXPECT_THROW(build_simulation(config), Error);
}

TEST(Server, SetGlobalWeightsValidatesSize) {
  Simulation sim = build_simulation(tiny_config());
  nn::Weights wrong(sim.server->global_weights().size() + 1, 0.0f);
  EXPECT_THROW(sim.server->set_global_weights(wrong), Error);
}

TEST(Server, RedistributeDataValidatesCount) {
  Simulation sim = build_simulation(tiny_config());
  std::vector<data::Dataset> wrong(2);
  EXPECT_THROW(sim.server->redistribute_data(std::move(wrong)), Error);
}

TEST(Server, SampleRatioValidation) {
  SimulationConfig config = tiny_config();
  config.server.sample_ratio = 0.0;
  EXPECT_THROW(build_simulation(config), Error);
  config.server.sample_ratio = 1.5;
  EXPECT_THROW(build_simulation(config), Error);
}

TEST(Server, QuantKeepBelowOneNeedsACodec) {
  // quant_keep sparsifies only through the quant codec; without one, a
  // run that asked for top-k would silently ship dense uplinks.
  SimulationConfig config = tiny_config();
  config.server.quant_keep = 0.25;
  EXPECT_THROW(build_simulation(config), Error);
  for (const comm::QuantMode mode : {comm::QuantMode::kFp16, comm::QuantMode::kInt8}) {
    config.server.quant = mode;
    EXPECT_NO_THROW(build_simulation(config)) << comm::to_string(mode);
  }
}

TEST(Server, RemoteRecvTimeoutMustBeFiniteAndPositive) {
  // A negative or zero timeout gives up on every worker at once; NaN and
  // inf never time out, so a silent worker would stall the daemon.
  for (const double timeout : {-1.0, 0.0, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    SimulationConfig config = tiny_config();
    config.server.remote_recv_timeout_s = timeout;
    EXPECT_THROW(build_simulation(config), Error) << "timeout " << timeout;
  }
  SimulationConfig config = tiny_config();
  config.server.remote_recv_timeout_s = 0.5;
  EXPECT_NO_THROW(build_simulation(config));
}

// --------------------------------------------------------- centralized

TEST(Centralized, LossDecreasesOverRounds) {
  SimulationConfig config = tiny_config();
  auto trainer = build_centralized(config);
  trainer->run(4);
  const auto& history = trainer->history();
  EXPECT_EQ(history.rounds(), 4u);
  EXPECT_LT(history[3].test_loss, history[0].test_loss);
  EXPECT_GT(history[3].test_accuracy, history[0].test_accuracy);
}

TEST(Centralized, BeatsUntrainedBaseline) {
  SimulationConfig config = tiny_config();
  auto trainer = build_centralized(config);
  trainer->run(5);
  EXPECT_GT(trainer->history().best_accuracy(), 0.5);
}

// ---------------------------------------------------------- simulation

TEST(Simulation, BuilderHonorsPartitionScheme) {
  SimulationConfig config = tiny_config();
  config.partition.scheme = data::PartitionScheme::kIidBalanced;
  Simulation sim = build_simulation(config);
  EXPECT_EQ(sim.partition.size(), config.partition.num_clients);
  // IID: every client sees most classes.
  const auto counts = data::classes_per_client(sim.train, sim.partition);
  for (std::size_t c : counts) EXPECT_GE(c, 5u);
}

TEST(Simulation, BuilderValidatesConfig) {
  SimulationConfig config = tiny_config();
  config.train_samples_per_class = 0;
  EXPECT_THROW(build_simulation(config), Error);
  config = tiny_config();
  config.attack = "replacement";  // attack_rounds missing
  EXPECT_THROW(build_simulation(config), Error);
  config = tiny_config();
  config.attack = "martian";
  config.attack_rounds = {2};
  EXPECT_THROW(build_simulation(config), Error);
  config = tiny_config();
  config.strategy = "unknown";
  EXPECT_THROW(build_simulation(config), Error);
}

TEST(Simulation, TrainAndTestAreDisjointStreams) {
  Simulation sim = build_simulation(tiny_config());
  // Same generator, different RNG streams: no bitwise-identical images.
  bool any_equal = false;
  for (std::size_t i = 0; i < std::min<std::size_t>(sim.train.size(), 20); ++i) {
    for (std::size_t j = 0; j < std::min<std::size_t>(sim.test.size(), 20); ++j) {
      if (sim.train.pixels(i)[0] == sim.test.pixels(j)[0]) any_equal = true;
    }
  }
  EXPECT_FALSE(any_equal);
}

}  // namespace
}  // namespace fedcav::fl
