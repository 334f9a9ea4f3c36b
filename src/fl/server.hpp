// Federated server: Algorithm 1's outer loop with the Fig. 3 workflow —
// participant sampling, global-model broadcast, parallel local training,
// anomaly detection with model reverse, contribution-aware aggregation,
// and per-round evaluation/accounting.
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "src/attack/adversary.hpp"
#include "src/comm/compression.hpp"
#include "src/comm/network.hpp"
#include "src/core/detector.hpp"
#include "src/data/dataset.hpp"
#include "src/fl/client.hpp"
#include "src/fl/protocol.hpp"
#include "src/fl/sampler.hpp"
#include "src/fl/strategy.hpp"
#include "src/nn/replica_pool.hpp"
#include "src/nn/schedule.hpp"
#include "src/metrics/history.hpp"
#include "src/utils/error.hpp"
#include "src/utils/threadpool.hpp"

namespace fedcav::fl {

struct ServerConfig {
  /// Fraction q of clients sampled each round (paper: 0.3).
  double sample_ratio = 0.3;
  /// How the round's cohort is chosen (paper: uniform).
  SamplerPolicy sampler = SamplerPolicy::kUniform;
  LocalTrainConfig local;
  /// Probability a sampled participant fails to report (straggler /
  /// connection loss), decided by the pure coin
  /// derived_bernoulli(seed, round, client_id, kStraggler, p) that a
  /// remote worker evaluates for itself. A round whose every report
  /// drops falls below min_aggregate_clients and skips. The paper's
  /// dynamic view ("clients dynamically participating ... at any time",
  /// §3.1) motivates exercising aggregation under partial cohorts.
  double straggler_drop_prob = 0.0;
  /// Minimum surviving updates required to aggregate. Below this the
  /// round is skipped: the global model is carried forward unchanged
  /// and the record is marked `skipped`.
  std::size_t min_aggregate_clients = 1;
  /// Bounded NACK-and-retry for lost/corrupt messages on a faulty
  /// fabric: per message, up to max_retries retransmissions, each
  /// preceded by retry_backoff_s * 2^attempt seconds of simulated
  /// backoff charged to the retransmitting link.
  std::size_t max_retries = 3;
  double retry_backoff_s = 0.05;
  /// Simulated-time budget for a client's FULL exchange: downlink
  /// attempts, NACK wire time, backoffs, metadata uplink, and the phase-②
  /// report are all charged against it. A participant exceeding it during
  /// phase ① becomes a dropout; during phase ② its report is discarded
  /// as an upload failure (γ mass carried by the unchanged global
  /// weights). 0 disables.
  double uplink_deadline_s = 0.0;
  /// Enable the §4.4 detector + model reverse.
  bool detection_enabled = false;
  core::DetectorConfig detector;
  std::size_t eval_batch_size = 64;
  /// Root of every per-round RNG stream: the sampler's cohort, each
  /// participant's batch shuffles and the straggler coins are all
  /// derive_seed(seed, round, id, tag) (DESIGN.md §16).
  std::uint64_t seed = 11;
  /// Route weights through the comm fabric (exact byte metering). Off
  /// saves two serialization passes per participant per round.
  bool use_network = true;
  comm::NetworkConfig network;
  /// Remote mode only (set_transport with remote = true): wall-clock
  /// budget of each collect phase (phase ①'s metadata, phase ②'s
  /// reports). A worker not heard from by then is given up on (dropout
  /// in phase ①, upload failure in phase ②), so k silent workers cost at
  /// most one timeout per phase, not k. A worker whose connection dies
  /// is detected immediately via peer_closed(); this timeout only catches
  /// workers that hang without disconnecting.
  double remote_recv_timeout_s = 30.0;
  /// Lossy wire codec for model traffic (DESIGN.md §13). kNone keeps the
  /// dense f32 protocol. fp16/int8 quantize the broadcast once per round
  /// — the server adopts its own dequantized broadcast as the round's
  /// reference w̃_t, so both endpoints train and diff against the
  /// identical float image — and carry the uplink as a quantized weight
  /// *delta* with per-client error feedback (the residual each code drops
  /// is added into the client's next delta). Applied identically with
  /// use_network = false, so accuracy effects are measurable without the
  /// fabric; only the byte metering needs the network.
  comm::QuantMode quant = comm::QuantMode::kNone;
  /// Uplink top-k composition: quantize only this fraction of the
  /// delta's largest-|v| coordinates (bitmap-coded presence, see
  /// compression.hpp). 1 keeps every coordinate. Ignored when quant is
  /// kNone; the downlink is always dense (a sparse broadcast would
  /// silently zero most of the model).
  double quant_keep = 1.0;
  /// Turn on the obs subsystem (span tracing + metrics registry) for
  /// this process. Off leaves every probe behind a single relaxed
  /// atomic load — see DESIGN.md §9 for the overhead policy.
  bool telemetry = false;
  /// Aggregation shards for the sharded round engine (DESIGN.md §15):
  /// the sampled cohort is split into this many contiguous slices, each
  /// streaming its wave of participants, chained into one fixed-order
  /// reduction — results are bit-identical at every shard count. 0 =
  /// auto (process default, normally 1; the FEDCAV_TEST_SHARDS hook
  /// overrides it for whole-suite replays).
  std::size_t shards = 0;
  /// The only RNG mode, per-round derived seeds (see `seed`). Assignable
  /// so configs that name it keep compiling; nothing reads it.
  RngMode rng_mode = RngMode::kDerived;

  void validate(std::size_t num_clients) const;
};

class Server {
 public:
  Server(std::unique_ptr<nn::Model> global_model,
         std::unique_ptr<AggregationStrategy> strategy,
         std::vector<std::unique_ptr<Client>> clients, data::Dataset test_set,
         ServerConfig config);
  Server(const Server&) = delete;  // endpoint_ refers to config_
  Server& operator=(const Server&) = delete;

  /// Attach an adversary that hijacks one sampled participant's update
  /// in each round listed in `attack_rounds` (1-based round numbers).
  void set_adversary(std::shared_ptr<attack::Adversary> adversary,
                     std::set<std::size_t> attack_rounds);

  /// Execute one communication round; returns its record (also appended
  /// to history()).
  metrics::RoundRecord run_round();

  /// Run `rounds` rounds.
  void run(std::size_t rounds);

  const metrics::TrainingHistory& history() const { return history_; }
  std::size_t current_round() const { return round_; }
  std::size_t num_clients() const { return clients_.size(); }
  const ServerConfig& config() const { return config_; }

  const nn::Weights& global_weights() const { return global_weights_; }
  void set_global_weights(nn::Weights weights);

  /// Accuracy of the current global model on the held-out test set.
  double evaluate_accuracy();

  /// Replace every client's dataset (fresh-class experiment phase 2).
  void redistribute_data(std::vector<data::Dataset> per_client);

  /// Attach a learning-rate schedule: before each round the local lr is
  /// set to schedule->lr(round). nullptr restores the fixed configured η.
  void set_lr_schedule(std::unique_ptr<nn::LrSchedule> schedule);

  /// Run rounds on `pool` instead of the process-wide pool (non-owning;
  /// nullptr restores the global pool). The chaos determinism suite uses
  /// this to prove 1-worker and N-worker runs are bit-identical. Resets
  /// the replica pool: its size is derived from the thread pool's.
  void set_thread_pool(ThreadPool* pool) {
    pool_ = pool;
    replica_pool_.reset();
  }

  /// The bounded model-replica pool backing client training (created on
  /// the first round; null before that). Exposed for memory tests and
  /// the cohort-scale bench; the mutable overload lets the bench lease
  /// and warm every replica so peak-memory rows all measure the same
  /// steady-state K-replica regime regardless of scheduling.
  const nn::ReplicaPool* replica_pool() const { return replica_pool_.get(); }
  nn::ReplicaPool* replica_pool() { return replica_pool_.get(); }

  /// Serialize the resumable server state to `path` (binary): round
  /// counter, global + cached (reverse-target) weights, detector
  /// reference, sampler rotation cursor and per-client loss memory,
  /// per-client FedCurv anchors and quantization error-feedback
  /// residuals, and the comm fabric's fault-RNG streams, in-flight
  /// messages and traffic/fault accounting. RNG streams that are
  /// reseeded before every use (sampler, client shuffles, straggler
  /// coins) are not stored. A run resumed from the file is bit-identical
  /// to one that never stopped.
  void save_checkpoint(const std::string& path) const;
  /// Restore state from save_checkpoint output. Files of the retired
  /// layouts throw "unsupported checkpoint version"; malformed files and
  /// size/client-count mismatches throw fedcav::Error too. The server
  /// state is unspecified after a throw partway through a payload.
  void load_checkpoint(const std::string& path);

  /// Flush collected telemetry: a chrome://tracing JSON to `trace_path`
  /// and the metrics-registry summary JSON to `metrics_path` (either may
  /// be empty to skip that file). Bridges the comm fabric's traffic
  /// totals into gauges first. No-op when telemetry is disabled.
  void write_telemetry(const std::string& trace_path,
                       const std::string& metrics_path) const;

  /// Replace the aggregation strategy (non-null) and re-derive its
  /// local-training overrides. The chaos oracle uses this to wrap the
  /// configured strategy in a forced-buffered delegate and prove the
  /// streaming path bit-identical; call it before the first round.
  void set_strategy(std::unique_ptr<AggregationStrategy> strategy);

  AggregationStrategy& strategy() { return *strategy_; }
  const core::AnomalyDetector& detector() const { return detector_; }
  const comm::InMemoryNetwork* network() const { return network_.get(); }
  comm::InMemoryNetwork* network() { return network_.get(); }

  /// Run the round protocol over `transport` instead of the owned
  /// in-memory fabric. With `remote = false` the transport is a drop-in
  /// fabric (both endpoints of every link still played in-process — the
  /// shim the chaos suite uses to prove Transport-neutrality); with
  /// `remote = true` the server is rank 0 of a real federation: phase ①
  /// broadcasts to every participant up front, then both phases collect
  /// uplinks from worker processes in fixed participant order, turning a
  /// closed peer into a dropout / upload failure (the two waiting
  /// policies of src/fl/protocol.hpp). Remote mode requires one worker
  /// rank per client (num_endpoints == num_clients + 1). nullptr restores
  /// the owned fabric. Non-owning; call before run().
  void set_transport(comm::Transport* transport, bool remote);

  /// The daemon/worker tools address clients by worker rank - 1.
  Client& client_at(std::size_t index) {
    FEDCAV_REQUIRE(index < clients_.size(), "Server::client_at: bad index");
    return *clients_[index];
  }
  /// Local-training config with strategy overrides applied — what a
  /// worker process must train with to match the in-process run.
  const LocalTrainConfig& effective_local() const { return effective_local_; }

 private:
  /// (Re)build the replica pool sized to the active thread pool.
  void ensure_replica_pool();
  ThreadPool& pool() const;

  std::unique_ptr<nn::Model> global_model_;
  std::unique_ptr<AggregationStrategy> strategy_;
  std::vector<std::unique_ptr<Client>> clients_;
  data::Dataset test_set_;
  ServerConfig config_;
  LocalTrainConfig effective_local_;  // config_.local + strategy overrides

  nn::Weights global_weights_;
  nn::Weights cached_weights_;  // w_{t-1}: the reverse target
  core::AnomalyDetector detector_;
  metrics::TrainingHistory history_;
  std::unique_ptr<comm::InMemoryNetwork> network_;
  /// The server's end of the participant exchange, over network_.get() by
  /// default or whatever set_transport installed (non-owning).
  /// Checkpoints always serialize the owned network_ — a remote
  /// transport has no savable state.
  ServerEndpoint endpoint_{config_};
  ParticipantSampler sampler_;
  std::size_t round_ = 0;

  std::shared_ptr<attack::Adversary> adversary_;
  std::set<std::size_t> attack_rounds_;
  std::unique_ptr<nn::LrSchedule> lr_schedule_;
  ThreadPool* pool_ = nullptr;  // non-owning override, see set_thread_pool
  /// Bounded pool of model replicas leased to participants; sized to the
  /// thread pool (+1 for the inline caller), so a round's model memory
  /// is O(K × model) independent of cohort size (DESIGN.md §11).
  std::unique_ptr<nn::ReplicaPool> replica_pool_;
};

}  // namespace fedcav::fl
