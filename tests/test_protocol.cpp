// The server side of the remote participant exchange (DESIGN.md §14),
// driven in-process: a scripted Transport over an InMemoryNetwork plays
// every worker rank inside poll(), so each test fixes exactly which
// frames a worker sends and when, and pins the RoundRecord counters the
// daemon books for them (retries, crc_failures, stale_discards).
//
// One poll() is one worker tick. An honest scripted worker answers a
// downlink with its metadata on that tick and sends its report on its
// next tick (training takes time); it answers a NACK by resending the
// uplink the NACK names.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/comm/network.hpp"
#include "src/fl/simulation.hpp"
#include "src/utils/logging.hpp"

namespace fedcav {
namespace {

constexpr std::size_t kClients = 4;

fl::SimulationConfig protocol_config() {
  fl::SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.train_samples_per_class = 8;
  config.test_samples_per_class = 4;
  config.partition.num_clients = kClients;
  config.server.sample_ratio = 1.0;
  config.server.local.epochs = 1;
  config.server.remote_recv_timeout_s = 0.2;
  return config;
}

class ScriptedWorkers;

/// A worker's reaction to one tick: `inbox` holds the CRC-clean frames
/// the server sent this rank since its last tick.
using Script = std::function<void(ScriptedWorkers& net, std::size_t rank,
                                  const std::vector<comm::Envelope>& inbox)>;

class ScriptedWorkers final : public comm::Transport {
 public:
  explicit ScriptedWorkers(Script script)
      : inner_(comm::NetworkConfig{kClients + 1, 0.01, 1.25e6, {}}),
        script_(std::move(script)),
        pending_report_(kClients + 1) {}

  // --- worker side (called from scripts) -----------------------------
  void uplink(std::size_t rank, comm::MessageType type, ByteBuffer payload) {
    inner_.send(rank, fl::kServerRank, comm::Envelope{type, std::move(payload)});
  }
  /// Flip one payload byte of the next frame the server pops from `rank`.
  void corrupt_next(std::size_t rank) { corrupt_.insert(rank); }
  /// The latest downlink any rank received.
  const comm::GlobalModelMsg& last_downlink() const { return last_down_; }

  void send_metadata(std::size_t rank, std::size_t round, std::size_t client_id,
                     double loss = 1.0) {
    comm::MetadataMsg meta;
    meta.round = round;
    meta.client_id = client_id;
    meta.num_samples = 10;
    meta.inference_loss = loss;
    uplink(rank, comm::MessageType::kMetadataReport, meta.encode());
  }
  void send_report(std::size_t rank, std::size_t round, std::size_t client_id,
                   std::vector<float> weights) {
    comm::ClientReportMsg up;
    up.round = round;
    up.client_id = client_id;
    up.num_samples = 10;
    up.inference_loss = 1.0;
    up.weights = std::move(weights);
    uplink(rank, comm::MessageType::kClientReport, up.encode());
  }
  /// The honest worker: metadata on the downlink's tick, the report (the
  /// downlink weights echoed back) on the next, NACKs answered.
  void honest(std::size_t rank, const std::vector<comm::Envelope>& inbox) {
    const std::size_t client_id = rank - 1;
    std::optional<comm::GlobalModelMsg> report = std::move(pending_report_[rank]);
    pending_report_[rank].reset();
    for (const comm::Envelope& env : inbox) {
      ByteReader reader(env.payload);
      if (env.type == comm::MessageType::kGlobalModel) {
        comm::GlobalModelMsg down = comm::GlobalModelMsg::decode(reader);
        send_metadata(rank, down.round, client_id);
        last_down_ = down;
        pending_report_[rank] = std::move(down);
      } else if (env.type == comm::MessageType::kNack) {
        const comm::NackMsg nack = comm::NackMsg::decode(reader);
        if (nack.expected == comm::MessageType::kMetadataReport) {
          send_metadata(rank, nack.round, client_id);
        } else {
          send_report(rank, nack.round, client_id, last_down_.weights);
        }
      }
    }
    if (report) send_report(rank, report->round, client_id, std::move(report->weights));
  }

  // --- comm::Transport ------------------------------------------------
  std::size_t num_endpoints() const override { return inner_.num_endpoints(); }
  void begin_round(std::size_t round) override { inner_.begin_round(round); }
  void send(std::size_t src, std::size_t dst, const comm::Envelope& env) override {
    inner_.send(src, dst, env);
  }
  std::optional<ByteBuffer> try_recv_wire(std::size_t dst, std::size_t src) override {
    std::optional<ByteBuffer> wire = inner_.try_recv_wire(dst, src);
    if (wire && dst == fl::kServerRank && corrupt_.erase(src) > 0) {
      (*wire)[wire->size() / 2] ^= 0x40;
    }
    return wire;
  }
  std::optional<ByteBuffer> try_recv_any_wire(std::size_t dst,
                                              std::size_t* src_out) override {
    return inner_.try_recv_any_wire(dst, src_out);
  }
  void add_link_delay(std::size_t src, std::size_t dst, double seconds) override {
    inner_.add_link_delay(src, dst, seconds);
  }
  comm::TrafficStats stats(std::size_t endpoint) const override {
    return inner_.stats(endpoint);
  }
  comm::TrafficStats total_stats() const override { return inner_.total_stats(); }
  double model_transfer_seconds(std::size_t bytes) const override {
    return inner_.model_transfer_seconds(bytes);
  }
  std::size_t pending_messages() const override { return inner_.pending_messages(); }
  /// One tick of every worker rank.
  void poll(double /*timeout_s*/) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (std::size_t rank = 1; rank <= kClients; ++rank) {
      std::vector<comm::Envelope> inbox;
      while (std::optional<ByteBuffer> wire = inner_.try_recv_wire(rank, fl::kServerRank)) {
        if (auto env = comm::Envelope::try_decode(*wire)) inbox.push_back(std::move(*env));
      }
      script_(*this, rank, inbox);
    }
  }

 private:
  comm::InMemoryNetwork inner_;
  Script script_;
  std::set<std::size_t> corrupt_;
  std::vector<std::optional<comm::GlobalModelMsg>> pending_report_;
  comm::GlobalModelMsg last_down_;
};

/// Run one round of a fresh server against `script`.
metrics::RoundRecord run_scripted(const Script& script,
                                  fl::SimulationConfig config = protocol_config()) {
  set_log_level(LogLevel::kError);
  fl::Simulation sim = fl::build_simulation(config);
  ScriptedWorkers net(script);
  sim.server->set_transport(&net, /*remote=*/true);
  return sim.server->run_round();
}

/// Every rank is honest, but rank 1 first runs `extra` on its `tick`-th
/// tick, counting from the tick its downlink arrives (1 = the metadata
/// tick, 2 = the report tick).
Script rank1_extra_on_tick(int tick, std::function<void(ScriptedWorkers&)> extra) {
  auto ticks = std::make_shared<int>(0);
  return [=](ScriptedWorkers& net, std::size_t rank,
             const std::vector<comm::Envelope>& inbox) {
    if (rank == 1 && (*ticks > 0 || !inbox.empty()) && ++*ticks == tick) extra(net);
    net.honest(rank, inbox);
  };
}

TEST(ServerProtocol, CrcDamagedMetadataIsNackedResentAndAccepted) {
  // Rank 1's first metadata frame fails its CRC: the server NACKs it
  // (one retry), the worker resends on its next tick, and the resend is
  // accepted — no dropout, and the report still arrives in phase ②.
  const metrics::RoundRecord rec =
      run_scripted(rank1_extra_on_tick(1, [](ScriptedWorkers& net) { net.corrupt_next(1); }));
  EXPECT_EQ(rec.crc_failures, 1u);
  EXPECT_EQ(rec.retries, 1u);
  EXPECT_EQ(rec.stale_discards, 0u);
  EXPECT_EQ(rec.participants, kClients);
  EXPECT_EQ(rec.dropouts, 0u);
  EXPECT_EQ(rec.upload_failures, 0u);
}

TEST(ServerProtocol, ReportOvertakingANackedMetadataFrameIsKeptForPhaseTwo) {
  // Rank 1 uplinks its metadata (damaged in flight) and its report on the
  // downlink's tick, then answers the NACK with metadata only. Phase ①
  // drains the report while it still awaits the metadata resend; the
  // report is held for phase ②, not discarded as stale — so no upload
  // failure, and phase ② does not wait out the receive timeout.
  const metrics::RoundRecord rec = run_scripted(
      [](ScriptedWorkers& net, std::size_t rank, const std::vector<comm::Envelope>& inbox) {
        if (rank != 1) return net.honest(rank, inbox);
        for (const comm::Envelope& env : inbox) {
          ByteReader reader(env.payload);
          if (env.type == comm::MessageType::kGlobalModel) {
            comm::GlobalModelMsg down = comm::GlobalModelMsg::decode(reader);
            net.corrupt_next(1);
            net.send_metadata(1, down.round, /*client_id=*/0);
            net.send_report(1, down.round, /*client_id=*/0, std::move(down.weights));
          } else if (env.type == comm::MessageType::kNack) {
            net.send_metadata(1, comm::NackMsg::decode(reader).round, /*client_id=*/0);
          }
        }
      });
  EXPECT_EQ(rec.crc_failures, 1u);
  EXPECT_EQ(rec.retries, 1u);
  EXPECT_EQ(rec.stale_discards, 0u);
  EXPECT_EQ(rec.participants, kClients);
  EXPECT_EQ(rec.upload_failures, 0u);
  EXPECT_LT(rec.phases.local_update, protocol_config().server.remote_recv_timeout_s);
}

TEST(ServerProtocol, WorkerNacksGetDownlinkRetransmitsUpToMaxRetries) {
  // Rank 1 NACKs every downlink it receives and never uplinks: the server
  // answers each NACK with a retransmit until max_retries, then stops;
  // the rank ends as a phase-① dropout once the receive timeout passes.
  fl::SimulationConfig config = protocol_config();
  config.server.max_retries = 2;
  const metrics::RoundRecord rec = run_scripted(
      [](ScriptedWorkers& net, std::size_t rank, const std::vector<comm::Envelope>& inbox) {
        if (rank != 1) return net.honest(rank, inbox);
        for (const comm::Envelope& env : inbox) {
          if (env.type != comm::MessageType::kGlobalModel) continue;
          comm::NackMsg nack;
          nack.round = 1;
          nack.expected = comm::MessageType::kGlobalModel;
          net.uplink(1, comm::MessageType::kNack, nack.encode());
        }
      },
      config);
  EXPECT_EQ(rec.retries, 2u);
  EXPECT_EQ(rec.crc_failures, 0u);
  EXPECT_EQ(rec.stale_discards, 0u);
  EXPECT_EQ(rec.dropouts, 1u);
  EXPECT_EQ(rec.participants, kClients - 1);
}

TEST(ServerProtocol, MalformedPayloadWithValidCrcIsAStaleDiscard) {
  // A CRC-clean metadata envelope whose payload does not decode is
  // discarded as stale; the valid metadata behind it is accepted.
  const metrics::RoundRecord rec = run_scripted(rank1_extra_on_tick(1, [](ScriptedWorkers& net) {
    net.uplink(1, comm::MessageType::kMetadataReport, ByteBuffer{1, 2, 3});
  }));
  EXPECT_EQ(rec.stale_discards, 1u);
  EXPECT_EQ(rec.crc_failures, 0u);
  EXPECT_EQ(rec.retries, 0u);
  EXPECT_EQ(rec.participants, kClients);
  EXPECT_EQ(rec.upload_failures, 0u);
}

TEST(ServerProtocol, SilentWorkersCostOneDeadlinePerPhaseNotPerRank) {
  // Four connected ranks that never answer: the metadata phase gives up
  // on all of them within one remote_recv_timeout_s (0.2 s), instead of
  // waiting 0.2 s per rank.
  const metrics::RoundRecord rec =
      run_scripted([](ScriptedWorkers&, std::size_t, const std::vector<comm::Envelope>&) {});
  EXPECT_EQ(rec.dropouts, kClients);
  EXPECT_TRUE(rec.skipped);
  EXPECT_LT(rec.phases.metadata, 2 * protocol_config().server.remote_recv_timeout_s);
}

// Uplink identity: a rank speaks only for its own client, with reports
// the size of the model. Anything else is a stale discard.

TEST(ServerProtocol, MetadataClaimingAnotherClientIsAStaleDiscard) {
  // Rank 1 first uplinks metadata under client 2's id, with a loss no
  // honest client reports, then its own: the impostor frame never
  // reaches detection or γ.
  const metrics::RoundRecord rec = run_scripted(rank1_extra_on_tick(1, [](ScriptedWorkers& net) {
    net.send_metadata(1, 1, /*client_id=*/2, /*loss=*/123.0);
  }));
  EXPECT_EQ(rec.stale_discards, 1u);
  EXPECT_EQ(rec.participants, kClients);
  EXPECT_LT(rec.max_inference_loss, 100.0);
}

TEST(ServerProtocol, ReportClaimingAnotherClientIsAStaleDiscard) {
  const metrics::RoundRecord rec = run_scripted(rank1_extra_on_tick(2, [](ScriptedWorkers& net) {
    net.send_report(1, 1, /*client_id=*/2, net.last_downlink().weights);
  }));
  EXPECT_EQ(rec.stale_discards, 1u);
  EXPECT_EQ(rec.participants, kClients);
  EXPECT_EQ(rec.upload_failures, 0u);
}

TEST(ServerProtocol, DenseReportOfTheWrongSizeIsAStaleDiscard) {
  const metrics::RoundRecord rec = run_scripted(rank1_extra_on_tick(2, [](ScriptedWorkers& net) {
    std::vector<float> weights = net.last_downlink().weights;
    weights.push_back(0.0f);
    net.send_report(1, 1, /*client_id=*/0, std::move(weights));
  }));
  EXPECT_EQ(rec.stale_discards, 1u);
  EXPECT_EQ(rec.participants, kClients);
  EXPECT_EQ(rec.upload_failures, 0u);
}

}  // namespace
}  // namespace fedcav
