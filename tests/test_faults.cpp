// Chaos suite for the fault-injecting fabric + quorum-tolerant round
// loop. Properties pinned here:
//   * every run over a seeded fault-plan grid terminates (no deadlock,
//     no livelock in the retry protocol) — the suite finishing is the
//     assertion;
//   * message conservation: every transmitted message is accounted for
//     as delivered, dropped, crash-dropped, or still pending;
//   * determinism: identical seed + plan produce bit-identical history
//     and final weights with 1 and 4 pool workers;
//   * a zeroed FaultPlan is provably inert (byte-identical traffic and
//     history vs the default fabric);
//   * quorum: when no update survives, the round is skipped and the
//     global model carried forward unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "src/fl/simulation.hpp"
#include "src/utils/error.hpp"
#include "src/utils/logging.hpp"
#include "src/utils/threadpool.hpp"

namespace fedcav {
namespace {

fl::SimulationConfig chaos_config() {
  fl::SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.train_samples_per_class = 12;
  config.test_samples_per_class = 8;
  config.partition.num_clients = 6;
  config.server.sample_ratio = 0.5;
  config.server.local.epochs = 2;
  config.server.local.batch_size = 8;
  config.server.min_aggregate_clients = 1;
  config.server.max_retries = 3;
  config.server.retry_backoff_s = 0.05;
  return config;
}

void expect_conservation(const fl::Server& server) {
  const comm::InMemoryNetwork* net = server.network();
  ASSERT_NE(net, nullptr);
  const comm::FaultStats f = net->fault_stats();
  EXPECT_EQ(net->total_stats().messages_sent + f.duplicated,
            f.delivered + f.dropped + f.crash_dropped + net->pending_messages())
      << "a message leaked from the fabric's accounting";
}

std::string deterministic_csv(const fl::Server& server) {
  std::ostringstream out;
  server.history().write_csv(out, /*include_timings=*/false);
  return out.str();
}

TEST(Chaos, GridOfFaultPlansTerminatesAndConservesMessages) {
  set_log_level(LogLevel::kError);
  // Fault-free reference for the accuracy band.
  fl::SimulationConfig clean = chaos_config();
  fl::Simulation reference = fl::build_simulation(clean);
  reference.server->run(3);
  const double clean_best = reference.server->history().best_accuracy();

  const double drop_grid[] = {0.0, 0.1, 0.3};
  const double corrupt_grid[] = {0.0, 0.05};
  const std::vector<std::vector<comm::CrashWindow>> crash_grid = {
      {},
      {comm::CrashWindow{/*rank=*/2, /*first_round=*/2, /*last_round=*/2}},
      {comm::CrashWindow{1, 1, 1}, comm::CrashWindow{4, 2, 3}},
  };

  for (double drop : drop_grid) {
    for (double corrupt : corrupt_grid) {
      for (std::size_t c = 0; c < crash_grid.size(); ++c) {
        fl::SimulationConfig config = chaos_config();
        comm::FaultPlan& faults = config.server.network.faults;
        faults.seed = 1000 + static_cast<std::uint64_t>(100 * drop) + c;
        faults.drop_prob = drop;
        faults.corrupt_prob = corrupt;
        faults.duplicate_prob = 0.1;
        faults.reorder_prob = 0.1;
        faults.jitter_s = 0.02;
        faults.crashes = crash_grid[c];

        SCOPED_TRACE("drop=" + std::to_string(drop) +
                     " corrupt=" + std::to_string(corrupt) +
                     " crashes=" + std::to_string(c));
        fl::Simulation sim = fl::build_simulation(config);
        sim.server->run(3);  // terminating at all is the liveness assertion
        ASSERT_EQ(sim.server->history().rounds(), 3u);
        expect_conservation(*sim.server);

        // Retries keep most exchanges alive, so accuracy stays within a
        // (deliberately loose) band of the fault-free run at this scale.
        std::size_t aggregated_rounds = 0;
        for (const auto& rec : sim.server->history().records()) {
          if (!rec.skipped) ++aggregated_rounds;
        }
        if (aggregated_rounds == 3) {
          EXPECT_GT(sim.server->history().best_accuracy(), clean_best - 0.35);
        }
        // Fault work must be visible in the observability columns when
        // the plan actually bites.
        if (drop >= 0.3) {
          std::uint64_t retries = 0;
          for (const auto& rec : sim.server->history().records()) {
            retries += rec.retries;
          }
          EXPECT_GT(retries, 0u);
        }
      }
    }
  }
}

TEST(Chaos, SameSeedIsBitIdenticalAcrossPoolSizes) {
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config = chaos_config();
  comm::FaultPlan& faults = config.server.network.faults;
  faults.seed = 77;
  faults.drop_prob = 0.3;
  faults.duplicate_prob = 0.15;
  faults.reorder_prob = 0.15;
  faults.corrupt_prob = 0.1;
  faults.truncate_prob = 0.05;
  faults.jitter_s = 0.05;
  faults.crashes = {comm::CrashWindow{3, 2, 2}};
  config.server.min_aggregate_clients = 1;

  auto run_with_pool = [&config](std::size_t workers, std::string* csv,
                                 nn::Weights* weights) {
    ThreadPool pool(workers);
    fl::Simulation sim = fl::build_simulation(config);
    sim.server->set_thread_pool(&pool);
    sim.server->run(4);
    *csv = deterministic_csv(*sim.server);
    *weights = sim.server->global_weights();
    expect_conservation(*sim.server);
  };

  std::string csv1;
  std::string csv4;
  nn::Weights w1;
  nn::Weights w4;
  run_with_pool(1, &csv1, &w1);
  run_with_pool(4, &csv4, &w4);
  EXPECT_EQ(csv1, csv4) << "per-link fault streams leaked thread-order dependence";
  EXPECT_EQ(w1, w4);
}

/// Pass-through comm::Transport that forwards every call to the wrapped
/// backend while counting them — installed over the server's own
/// in-memory fabric to prove the round loop goes through the Transport
/// seam for ALL protocol traffic (any call that bypassed the seam would
/// show up as a byte diff under faults, since the wrapped fabric is the
/// same object either way and only the dispatch path changes).
class ForwardingTransport final : public comm::Transport {
 public:
  explicit ForwardingTransport(comm::Transport* inner) : inner_(inner) {}

  std::size_t num_endpoints() const override { return inner_->num_endpoints(); }
  void begin_round(std::size_t round) override { inner_->begin_round(round); }
  void send(std::size_t src, std::size_t dst,
            const comm::Envelope& env) override {
    forwarded_ += 1;
    inner_->send(src, dst, env);
  }
  std::optional<ByteBuffer> try_recv_wire(std::size_t dst,
                                          std::size_t src) override {
    forwarded_ += 1;
    return inner_->try_recv_wire(dst, src);
  }
  std::optional<ByteBuffer> try_recv_any_wire(std::size_t dst,
                                              std::size_t* src_out) override {
    return inner_->try_recv_any_wire(dst, src_out);
  }
  void add_link_delay(std::size_t src, std::size_t dst,
                      double seconds) override {
    inner_->add_link_delay(src, dst, seconds);
  }
  comm::TrafficStats stats(std::size_t endpoint) const override {
    return inner_->stats(endpoint);
  }
  comm::TrafficStats total_stats() const override {
    return inner_->total_stats();
  }
  comm::FaultStats fault_stats() const override {
    return inner_->fault_stats();
  }
  double model_transfer_seconds(std::size_t bytes) const override {
    return inner_->model_transfer_seconds(bytes);
  }
  std::size_t pending_messages() const override {
    return inner_->pending_messages();
  }
  void publish_metrics() const override { inner_->publish_metrics(); }
  bool peer_closed(std::size_t rank) const override {
    return inner_->peer_closed(rank);
  }
  void poll(double timeout_s) override { inner_->poll(timeout_s); }

  std::uint64_t forwarded() const { return forwarded_.load(); }

 private:
  comm::Transport* inner_;
  // Atomic: the simulated exchange calls the transport from pool threads.
  std::atomic<std::uint64_t> forwarded_{0};
};

TEST(Chaos, TransportShimIsBitIdenticalToDirectFabric) {
  set_log_level(LogLevel::kError);
  // The heaviest plan from the grid above: every fault axis active, so
  // any protocol call that skipped the seam would desynchronize the
  // fault RNG stream and change the history bytes.
  fl::SimulationConfig config = chaos_config();
  comm::FaultPlan& faults = config.server.network.faults;
  faults.seed = 77;
  faults.drop_prob = 0.3;
  faults.duplicate_prob = 0.15;
  faults.reorder_prob = 0.15;
  faults.corrupt_prob = 0.1;
  faults.truncate_prob = 0.05;
  faults.jitter_s = 0.05;
  faults.crashes = {comm::CrashWindow{3, 2, 2}};

  fl::Simulation direct = fl::build_simulation(config);
  direct.server->run(4);

  fl::Simulation shimmed = fl::build_simulation(config);
  ForwardingTransport shim(shimmed.server->network());
  shimmed.server->set_transport(&shim, /*remote=*/false);
  shimmed.server->run(4);
  expect_conservation(*shimmed.server);

  EXPECT_GT(shim.forwarded(), 0u) << "the shim never saw protocol traffic";
  EXPECT_EQ(deterministic_csv(*direct.server),
            deterministic_csv(*shimmed.server));
  EXPECT_EQ(direct.server->global_weights(), shimmed.server->global_weights());

  // Restoring the owned fabric mid-life keeps the server usable.
  shimmed.server->set_transport(nullptr, false);
  shimmed.server->run(1);
  EXPECT_EQ(shimmed.server->history().rounds(), 5u);
}

TEST(Chaos, QuantizedRunIsBitIdenticalAcrossPoolSizes) {
  set_log_level(LogLevel::kError);
  // The quantized wire composes with both determinism contracts: the
  // fixed-slot streaming reduction (uplink deltas land in sampled-order
  // slots regardless of arrival order) and the fixed tile ownership of
  // the parallel kernels. 1 worker and 4 workers must agree bit-for-bit
  // even with the int8 + top-k codec and error feedback in the loop.
  fl::SimulationConfig config = chaos_config();
  config.server.quant = comm::QuantMode::kInt8;
  config.server.quant_keep = 0.5;
  comm::FaultPlan& faults = config.server.network.faults;
  faults.seed = 91;
  faults.drop_prob = 0.2;
  faults.reorder_prob = 0.2;
  config.server.min_aggregate_clients = 1;

  auto run_with_pool = [&config](std::size_t workers, std::string* csv,
                                 nn::Weights* weights) {
    ThreadPool pool(workers);
    fl::Simulation sim = fl::build_simulation(config);
    sim.server->set_thread_pool(&pool);
    sim.server->run(4);
    *csv = deterministic_csv(*sim.server);
    *weights = sim.server->global_weights();
    expect_conservation(*sim.server);
  };

  std::string csv1;
  std::string csv4;
  nn::Weights w1;
  nn::Weights w4;
  run_with_pool(1, &csv1, &w1);
  run_with_pool(4, &csv4, &w4);
  EXPECT_EQ(csv1, csv4) << "quantized uplink leaked thread-order dependence";
  EXPECT_EQ(w1, w4);
}

TEST(Chaos, ZeroedFaultPlanIsInert) {
  set_log_level(LogLevel::kError);
  // Acceptance gate: a FaultPlan with every knob at zero (seed set or
  // not) reproduces the default fabric's run byte-for-byte — history,
  // weights, and traffic stats.
  fl::SimulationConfig plain = chaos_config();
  fl::SimulationConfig zeroed = chaos_config();
  zeroed.server.network.faults.seed = 424242;  // armed seed, zero probabilities

  fl::Simulation a = fl::build_simulation(plain);
  fl::Simulation b = fl::build_simulation(zeroed);
  a.server->run(3);
  b.server->run(3);

  EXPECT_EQ(deterministic_csv(*a.server), deterministic_csv(*b.server));
  EXPECT_EQ(a.server->global_weights(), b.server->global_weights());
  for (std::size_t e = 0; e < a.server->num_clients() + 1; ++e) {
    EXPECT_EQ(a.server->network()->stats(e).messages_sent,
              b.server->network()->stats(e).messages_sent);
    EXPECT_EQ(a.server->network()->stats(e).bytes_sent,
              b.server->network()->stats(e).bytes_sent);
    EXPECT_DOUBLE_EQ(a.server->network()->stats(e).simulated_seconds,
                     b.server->network()->stats(e).simulated_seconds);
  }
  const comm::FaultStats f = b.server->network()->fault_stats();
  EXPECT_EQ(f.dropped + f.crash_dropped + f.duplicated + f.reordered + f.corrupted +
                f.truncated,
            0u);
}

TEST(Chaos, QuorumSkipsRoundAndCarriesModelForward) {
  set_log_level(LogLevel::kError);
  // drop_prob = 1 starves every exchange past the retry budget; with a
  // quorum of 2 every round must be skipped, counted, and side-effect
  // free on the global model.
  fl::SimulationConfig config = chaos_config();
  config.server.network.faults.seed = 5;
  config.server.network.faults.drop_prob = 1.0;
  config.server.min_aggregate_clients = 2;
  config.server.max_retries = 1;

  fl::Simulation sim = fl::build_simulation(config);
  const nn::Weights before = sim.server->global_weights();
  sim.server->run(2);
  for (const auto& rec : sim.server->history().records()) {
    EXPECT_TRUE(rec.skipped);
    EXPECT_EQ(rec.participants, 0u);
    EXPECT_GT(rec.dropouts, 0u);
    EXPECT_GT(rec.retries, 0u);
    EXPECT_EQ(rec.mean_inference_loss, 0.0);
  }
  EXPECT_EQ(sim.server->global_weights(), before);
  expect_conservation(*sim.server);
}

TEST(Chaos, UplinkDeadlineTurnsSlowReportsIntoDropouts) {
  set_log_level(LogLevel::kError);
  // A deadline tighter than one transfer time converts every report
  // into a deadline miss — with quorum 2 the rounds all skip. The
  // misses must surface in the round record, not just vanish into the
  // dropout count.
  fl::SimulationConfig config = chaos_config();
  config.server.network.faults.seed = 6;
  config.server.network.faults.jitter_s = 1e-9;  // arm the fault layer only
  config.server.uplink_deadline_s = 1e-6;        // < latency_s of one send
  config.server.min_aggregate_clients = 2;

  fl::Simulation sim = fl::build_simulation(config);
  const nn::Weights before = sim.server->global_weights();
  sim.server->run(2);
  for (const auto& rec : sim.server->history().records()) {
    EXPECT_TRUE(rec.skipped);
    EXPECT_GT(rec.dropouts, 0u);
    EXPECT_GT(rec.deadline_misses, 0u);
    EXPECT_LE(rec.deadline_misses, rec.dropouts);
  }
  EXPECT_EQ(sim.server->global_weights(), before);
  expect_conservation(*sim.server);
}

TEST(Chaos, DeadlineChargesFullExchangeNotJustLastUplink) {
  set_log_level(LogLevel::kError);
  // Budget sized so phase ① (downlink + metadata, ~2 transfers) fits
  // but the phase-② report (3rd model-sized transfer) overruns. The old
  // accounting — which only charged the final uplink — would have let
  // every report through. The overruns must land as upload failures
  // (carried γ mass), not dropouts: metadata already reached the server.
  fl::SimulationConfig config = chaos_config();
  config.server.network.latency_s = 1.0;
  config.server.uplink_deadline_s = 2.5;
  config.server.min_aggregate_clients = 1;

  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(2);
  for (const auto& rec : sim.server->history().records()) {
    EXPECT_FALSE(rec.skipped);
    EXPECT_GT(rec.participants, 0u);
    EXPECT_EQ(rec.dropouts, 0u);
    EXPECT_EQ(rec.upload_failures, rec.participants);
    EXPECT_EQ(rec.deadline_misses, rec.participants);
  }
  expect_conservation(*sim.server);
}

TEST(Chaos, RoundAccountingInvariantHoldsUnderFaultsAndStragglers) {
  set_log_level(LogLevel::kError);
  // sampled must equal participants + dropouts + straggler_drops in
  // every round (the seed code overwrote `participants` three times and
  // never recorded the sampled cohort or the straggler losses).
  fl::SimulationConfig config = chaos_config();
  config.server.network.faults.seed = 31;
  // Aggressive drops with a single retry so retry exhaustion (and hence
  // real dropouts) actually happens; 0.2 with 3 retries would lose a
  // message only once per ~600 exchanges.
  config.server.network.faults.drop_prob = 0.5;
  config.server.max_retries = 1;
  config.server.straggler_drop_prob = 0.5;
  config.server.min_aggregate_clients = 1;

  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(6);
  std::size_t total_straggler_drops = 0;
  std::size_t total_dropouts = 0;
  for (const auto& rec : sim.server->history().records()) {
    EXPECT_GT(rec.sampled, 0u);
    EXPECT_EQ(rec.sampled, rec.participants + rec.dropouts + rec.straggler_drops);
    total_straggler_drops += rec.straggler_drops;
    total_dropouts += rec.dropouts;
  }
  // With these rates both loss mechanisms must actually fire, so the
  // invariant above was exercised with every term nonzero somewhere.
  EXPECT_GT(total_straggler_drops, 0u);
  EXPECT_GT(total_dropouts, 0u);
  expect_conservation(*sim.server);
}

TEST(Chaos, StaleDiscardsSurfaceInHistory) {
  set_log_level(LogLevel::kError);
  // Duplicated messages left in a link are drained (and counted) by the
  // next round's protocol as wrong-round leftovers. The seed code
  // counted them per participant and then dropped them on the floor at
  // the collect loop.
  fl::SimulationConfig config = chaos_config();
  config.server.network.faults.seed = 91;
  config.server.network.faults.duplicate_prob = 0.5;
  config.server.min_aggregate_clients = 1;

  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(4);
  std::uint64_t total_stale = 0;
  for (const auto& rec : sim.server->history().records()) {
    total_stale += rec.stale_discards;
  }
  EXPECT_GT(total_stale, 0u);

  // And the deterministic CSV must carry the new accounting columns.
  const std::string csv = deterministic_csv(*sim.server);
  EXPECT_NE(csv.find("stale_discards"), std::string::npos);
  EXPECT_NE(csv.find("deadline_misses"), std::string::npos);
  EXPECT_NE(csv.find("sampled"), std::string::npos);
  EXPECT_NE(csv.find("straggler_drops"), std::string::npos);
  EXPECT_NE(csv.find("upload_failures"), std::string::npos);
  expect_conservation(*sim.server);
}

TEST(Chaos, CrashedClientsRejoinAndTrainingRecovers) {
  set_log_level(LogLevel::kError);
  // Crash every client for round 1: the round skips outright; after the
  // windows close training proceeds normally.
  fl::SimulationConfig config = chaos_config();
  auto& faults = config.server.network.faults;
  faults.seed = 8;
  for (std::size_t rank = 1; rank <= 6; ++rank) {
    faults.crashes.push_back(comm::CrashWindow{rank, 1, 1});
  }
  config.server.min_aggregate_clients = 2;
  config.server.max_retries = 0;

  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(3);
  const auto& records = sim.server->history().records();
  EXPECT_TRUE(records[0].skipped);
  EXPECT_FALSE(records[1].skipped);
  EXPECT_FALSE(records[2].skipped);
  EXPECT_GT(sim.server->network()->fault_stats().crash_dropped, 0u);
  expect_conservation(*sim.server);
}

// ------------------------------------------------- FaultPlan edge values
// Each fault axis at exactly 0.0 and exactly 1.0, straight against the
// fabric (no server loop), so the per-axis semantics are pinned at the
// boundaries the chaos sampler's grid touches.

void expect_fabric_conservation(const comm::InMemoryNetwork& net) {
  const comm::FaultStats f = net.fault_stats();
  EXPECT_EQ(net.total_stats().messages_sent + f.duplicated,
            f.delivered + f.dropped + f.crash_dropped + net.pending_messages());
}

std::unique_ptr<comm::InMemoryNetwork> edge_fabric(const comm::FaultPlan& faults,
                                                   std::size_t endpoints = 2) {
  comm::NetworkConfig config;
  config.num_endpoints = endpoints;
  config.faults = faults;
  auto net = std::make_unique<comm::InMemoryNetwork>(config);
  net->begin_round(1);
  return net;
}

comm::Envelope edge_envelope(std::uint8_t fill = 0x5a) {
  comm::Envelope env;
  env.type = comm::MessageType::kMetadataReport;
  env.payload.assign(24, fill);
  return env;
}

TEST(FaultEdges, DropProbOneLosesEveryMessage) {
  comm::FaultPlan plan;
  plan.seed = 7;
  plan.drop_prob = 1.0;
  const auto net = edge_fabric(plan);
  for (int i = 0; i < 10; ++i) net->send(0, 1, edge_envelope());
  EXPECT_FALSE(net->try_recv_wire(1, 0).has_value());
  EXPECT_EQ(net->fault_stats().dropped, 10u);
  EXPECT_EQ(net->pending_messages(), 0u);
  expect_fabric_conservation(*net);
}

TEST(FaultEdges, DropProbZeroWithOtherAxesActiveLosesNothing) {
  comm::FaultPlan plan;
  plan.seed = 7;
  plan.drop_prob = 0.0;
  plan.duplicate_prob = 1.0;  // keeps the fault path armed
  const auto net = edge_fabric(plan);
  for (int i = 0; i < 10; ++i) net->send(0, 1, edge_envelope());
  EXPECT_EQ(net->fault_stats().dropped, 0u);
  EXPECT_EQ(net->fault_stats().duplicated, 10u);
  EXPECT_EQ(net->pending_messages(), 20u);
  expect_fabric_conservation(*net);
}

TEST(FaultEdges, DuplicateProbOneDeliversEveryMessageTwice) {
  comm::FaultPlan plan;
  plan.seed = 3;
  plan.duplicate_prob = 1.0;
  const auto net = edge_fabric(plan);
  const comm::Envelope env = edge_envelope();
  net->send(0, 1, env);
  const auto first = net->try_recv_wire(1, 0);
  const auto second = net->try_recv_wire(1, 0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);  // the duplicate is a byte-exact stale copy
  EXPECT_EQ(*first, env.encode());
  EXPECT_FALSE(net->try_recv_wire(1, 0).has_value());
  expect_fabric_conservation(*net);
}

TEST(FaultEdges, CorruptProbOneDamagesEveryFrameDetectably) {
  comm::FaultPlan plan;
  plan.seed = 11;
  plan.corrupt_prob = 1.0;
  const auto net = edge_fabric(plan);
  const ByteBuffer clean = edge_envelope().encode();
  for (int i = 0; i < 10; ++i) {
    net->send(0, 1, edge_envelope());
    const auto wire = net->try_recv_wire(1, 0);
    ASSERT_TRUE(wire.has_value());
    EXPECT_NE(*wire, clean);
    // One flipped bit is a burst shorter than the CRC width: always caught.
    EXPECT_FALSE(comm::Envelope::try_decode(*wire).has_value());
  }
  EXPECT_EQ(net->fault_stats().corrupted, 10u);
}

TEST(FaultEdges, TruncateProbOneCutsEveryFrameToAStrictPrefix) {
  comm::FaultPlan plan;
  plan.seed = 13;
  plan.truncate_prob = 1.0;
  const auto net = edge_fabric(plan);
  const ByteBuffer clean = edge_envelope().encode();
  for (int i = 0; i < 10; ++i) {
    net->send(0, 1, edge_envelope());
    const auto wire = net->try_recv_wire(1, 0);
    ASSERT_TRUE(wire.has_value());
    ASSERT_LT(wire->size(), clean.size());
    EXPECT_TRUE(std::equal(wire->begin(), wire->end(), clean.begin()));
    EXPECT_FALSE(comm::Envelope::try_decode(*wire).has_value());
  }
  EXPECT_EQ(net->fault_stats().truncated, 10u);
}

TEST(FaultEdges, ReorderProbOneLetsEachMessageOvertakeItsPredecessor) {
  comm::FaultPlan plan;
  plan.seed = 17;
  plan.reorder_prob = 1.0;
  const auto net = edge_fabric(plan);
  net->send(0, 1, edge_envelope(0x01));
  net->send(0, 1, edge_envelope(0x02));
  const auto first = net->try_recv_wire(1, 0);
  const auto second = net->try_recv_wire(1, 0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, edge_envelope(0x02).encode());
  EXPECT_EQ(*second, edge_envelope(0x01).encode());
  EXPECT_EQ(net->fault_stats().reordered, 1u);
}

TEST(FaultEdges, ZeroJitterAddsNoSimulatedTime) {
  comm::FaultPlan plan;
  plan.seed = 19;
  plan.jitter_s = 0.0;
  plan.duplicate_prob = 1.0;  // arm the fault path without jitter
  comm::NetworkConfig config;
  config.num_endpoints = 2;
  config.faults = plan;
  comm::InMemoryNetwork net(config);
  net.begin_round(1);
  const comm::Envelope env = edge_envelope();
  net.send(0, 1, env);
  EXPECT_EQ(net.fault_stats().jitter_seconds, 0.0);
  // Exactly the latency + bytes/bandwidth model, nothing extra.
  const double expected =
      config.latency_s + static_cast<double>(env.encode().size()) /
                             config.bandwidth_bytes_per_s;
  EXPECT_DOUBLE_EQ(net.stats(0).simulated_seconds, expected);
}

TEST(FaultEdges, EmptyCrashSpecAndWindowsAreInert) {
  EXPECT_TRUE(comm::parse_crash_spec("").empty());
  EXPECT_TRUE(comm::parse_crash_spec("   ").empty());
  comm::FaultPlan plan;
  plan.seed = 23;
  plan.crashes = {};
  EXPECT_FALSE(plan.enabled());  // no crashes, all probs zero: inert
  for (std::size_t rank = 0; rank < 4; ++rank) {
    EXPECT_FALSE(plan.offline(rank, 1));
  }
}

TEST(FaultEdges, ParseCrashSpecAcceptsWellFormedSchedules) {
  const auto windows = comm::parse_crash_spec("3:2-5, 7:1-1");
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].rank, 3u);
  EXPECT_EQ(windows[0].first_round, 2u);
  EXPECT_EQ(windows[0].last_round, 5u);
  EXPECT_EQ(windows[1].rank, 7u);
  EXPECT_EQ(windows[1].first_round, 1u);
  EXPECT_EQ(windows[1].last_round, 1u);
}

TEST(FaultEdges, ParseCrashSpecRejectsMalformedInput) {
  const char* malformed[] = {
      "1",           // no rounds at all
      "1:2",         // no last round
      "1:2-",        // empty last round
      ":2-3",        // empty rank
      "x:2-3",       // non-numeric rank
      "1:2-3x",      // trailing junk after a number
      "1:2-3-4",     // too many round separators
      "1:2:3-4",     // too many rank separators
      "1:3-2",       // first > last
      "1:0-2",       // rounds are 1-based
      "-1:1-2",      // negative rank
      "1:2-3,,4:5-6" // empty entry in a list
  };
  for (const char* spec : malformed) {
    EXPECT_THROW((void)comm::parse_crash_spec(spec), Error) << "spec: " << spec;
  }
}

TEST(FaultEdges, ValidateRejectsOutOfRangePlans) {
  const auto expect_invalid = [](auto&& mutate) {
    comm::FaultPlan plan;
    plan.seed = 1;
    mutate(plan);
    EXPECT_THROW(plan.validate(4), Error);
  };
  expect_invalid([](comm::FaultPlan& p) { p.drop_prob = -0.1; });
  expect_invalid([](comm::FaultPlan& p) { p.drop_prob = 1.1; });
  expect_invalid([](comm::FaultPlan& p) { p.duplicate_prob = 2.0; });
  expect_invalid([](comm::FaultPlan& p) { p.jitter_s = -1.0; });
  expect_invalid([](comm::FaultPlan& p) {
    p.crashes = {comm::CrashWindow{/*rank=*/4, 1, 1}};  // rank out of range
  });
  expect_invalid([](comm::FaultPlan& p) {
    p.crashes = {comm::CrashWindow{1, /*first=*/3, /*last=*/2}};
  });

  // The boundaries themselves are legal.
  comm::FaultPlan boundary;
  boundary.seed = 1;
  boundary.drop_prob = 1.0;
  boundary.duplicate_prob = 0.0;
  boundary.corrupt_prob = 1.0;
  boundary.truncate_prob = 0.0;
  boundary.reorder_prob = 1.0;
  boundary.jitter_s = 0.0;
  EXPECT_NO_THROW(boundary.validate(2));
}

}  // namespace
}  // namespace fedcav
