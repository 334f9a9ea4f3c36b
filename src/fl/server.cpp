#include "src/fl/server.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>

#include "src/fl/round_engine.hpp"
#include "src/metrics/evaluation.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/utils/error.hpp"
#include "src/utils/logging.hpp"
#include "src/utils/timer.hpp"

namespace fedcav::fl {

namespace {

// Checkpoint format: one layout, holding exactly the state a resumed
// run reads (DESIGN.md §9). Every RNG stream a round consumes is derived
// from (seed, round, id) when it is used, so no client, sampler or
// straggler stream is stored; the comm fabric's fault streams, queues and
// accounting are. Files of the retired layouts (magics ...17 to ...1c)
// are rejected by name.
constexpr std::uint64_t kCheckpointMagic = 0xfedca5c4ec901dULL;
constexpr std::uint64_t kFirstCheckpointMagic = 0xfedca5c4ec9017ULL;

/// Attributes a scope's wall time to one RoundPhases field and mirrors
/// it as a "round.phase" trace span. The Stopwatch is unconditional
/// (two steady-clock reads); the span is inert unless telemetry is on.
class PhaseTimer {
 public:
  PhaseTimer(const char* name, std::size_t round, double& out)
      : span_(name, "round.phase"), out_(out) {
    span_.arg("round", static_cast<double>(round));
  }
  ~PhaseTimer() { out_ += watch_.seconds(); }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  obs::Span span_;
  Stopwatch watch_;
  double& out_;
};

/// Analytic peak of aggregation-owned tensor bytes for `n` updates of
/// `dim` floats: a streaming strategy holds one f64 accumulator plus at
/// most `wave` materialized f32 updates; a buffering one holds them all.
double aggregation_peak_bytes(const AggregationStrategy& strategy, std::size_t dim,
                              std::size_t n, std::size_t wave) {
  const std::size_t held = strategy.streaming_aggregation() ? std::min(wave, n) : n;
  const std::size_t accumulator = strategy.streaming_aggregation() ? sizeof(double) : 0;
  return static_cast<double>(dim) *
         static_cast<double>(accumulator + held * sizeof(float));
}

/// Fold one exchange's protocol counters into the round record.
void tally(metrics::RoundRecord& record, const ParticipantOutcome& outcome) {
  record.retries += outcome.retries;
  record.crc_failures += outcome.crc_failures;
  record.stale_discards += outcome.stale_discards;
  if (outcome.deadline_missed) record.deadline_misses += 1;
}

}  // namespace

void ServerConfig::validate(std::size_t num_clients) const {
  FEDCAV_REQUIRE(sample_ratio > 0.0 && sample_ratio <= 1.0,
                 "ServerConfig: sample_ratio must be in (0, 1]");
  FEDCAV_REQUIRE(num_clients >= 1, "ServerConfig: need at least one client");
  FEDCAV_REQUIRE(eval_batch_size > 0, "ServerConfig: zero eval batch size");
  FEDCAV_REQUIRE(straggler_drop_prob >= 0.0 && straggler_drop_prob < 1.0,
                 "ServerConfig: straggler_drop_prob must be in [0, 1)");
  FEDCAV_REQUIRE(min_aggregate_clients >= 1,
                 "ServerConfig: min_aggregate_clients must be >= 1");
  FEDCAV_REQUIRE(min_aggregate_clients <= num_clients,
                 "ServerConfig: min_aggregate_clients exceeds the client count");
  FEDCAV_REQUIRE(max_retries <= 16,
                 "ServerConfig: max_retries > 16 (exponential backoff overflows)");
  FEDCAV_REQUIRE(retry_backoff_s >= 0.0, "ServerConfig: negative retry_backoff_s");
  FEDCAV_REQUIRE(uplink_deadline_s >= 0.0, "ServerConfig: negative uplink_deadline_s");
  FEDCAV_REQUIRE(quant_keep > 0.0 && quant_keep <= 1.0,
                 "ServerConfig: quant_keep must be in (0, 1]");
}

Server::Server(std::unique_ptr<nn::Model> global_model,
               std::unique_ptr<AggregationStrategy> strategy,
               std::vector<std::unique_ptr<Client>> clients, data::Dataset test_set,
               ServerConfig config)
    : global_model_(std::move(global_model)),
      strategy_(std::move(strategy)),
      clients_(std::move(clients)),
      test_set_(std::move(test_set)),
      config_(config),
      effective_local_(config.local),
      detector_(config.detector),
      sampler_(config.sampler, clients_.size(), config.sample_ratio, config.seed) {
  FEDCAV_REQUIRE(global_model_ != nullptr, "Server: null global model");
  FEDCAV_REQUIRE(strategy_ != nullptr, "Server: null strategy");
  FEDCAV_REQUIRE(!clients_.empty(), "Server: no clients");
  FEDCAV_REQUIRE(!test_set_.empty(), "Server: empty test set");
  config_.validate(clients_.size());
  strategy_->apply_local_overrides(effective_local_);
  if (config_.telemetry) obs::set_enabled(true);

  global_weights_ = global_model_->get_weights();
  cached_weights_ = global_weights_;
  if (config_.use_network) {
    comm::NetworkConfig net = config_.network;
    net.num_endpoints = clients_.size() + 1;
    network_ = std::make_unique<comm::InMemoryNetwork>(net);
    endpoint_.attach(network_.get(), /*remote=*/false);
  }
}

void Server::set_transport(comm::Transport* transport, bool remote) {
  if (transport == nullptr) {
    endpoint_.attach(network_.get(), /*remote=*/false);
    return;
  }
  FEDCAV_REQUIRE(transport->num_endpoints() == clients_.size() + 1,
                 "Server::set_transport: transport endpoint count must be "
                 "num_clients + 1");
  endpoint_.attach(transport, remote);
}

void Server::set_adversary(std::shared_ptr<attack::Adversary> adversary,
                           std::set<std::size_t> attack_rounds) {
  adversary_ = std::move(adversary);
  attack_rounds_ = std::move(attack_rounds);
}

void Server::set_strategy(std::unique_ptr<AggregationStrategy> strategy) {
  FEDCAV_REQUIRE(strategy != nullptr, "Server::set_strategy: null strategy");
  strategy_ = std::move(strategy);
  effective_local_ = config_.local;
  strategy_->apply_local_overrides(effective_local_);
}

void Server::set_global_weights(nn::Weights weights) {
  FEDCAV_REQUIRE(weights.size() == global_weights_.size(),
                 "Server::set_global_weights: size mismatch");
  global_weights_ = std::move(weights);
  global_model_->set_weights(global_weights_);
}

double Server::evaluate_accuracy() {
  global_model_->set_weights(global_weights_);
  return metrics::accuracy(*global_model_, test_set_, config_.eval_batch_size);
}

void Server::redistribute_data(std::vector<data::Dataset> per_client) {
  FEDCAV_REQUIRE(per_client.size() == clients_.size(),
                 "Server::redistribute_data: dataset count mismatch");
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    clients_[i]->set_local_data(std::move(per_client[i]));
  }
}

ThreadPool& Server::pool() const {
  return pool_ != nullptr ? *pool_ : global_thread_pool();
}

void Server::ensure_replica_pool() {
  // Workers plus the caller (parallel_for may run a chunk inline), so
  // acquire() can never starve a thread that holds no lease yet.
  const std::size_t max_replicas = pool().size() + 1;
  if (replica_pool_ == nullptr || replica_pool_->max_replicas() != max_replicas) {
    replica_pool_ = std::make_unique<nn::ReplicaPool>(*global_model_, max_replicas);
  }
}

void Server::set_lr_schedule(std::unique_ptr<nn::LrSchedule> schedule) {
  lr_schedule_ = std::move(schedule);
}

void Server::save_checkpoint(const std::string& path) const {
  ByteBuffer buf;
  write_u64(buf, kCheckpointMagic);
  write_u64(buf, round_);
  write_f32_span(buf, global_weights_);
  // The reverse target w_{t-1}: without it a resumed run that trips the
  // detector would "reverse" to whatever the loader improvised.
  write_f32_span(buf, cached_weights_);
  const std::optional<double> reference = detector_.reference_max();
  write_u8(buf, reference.has_value() ? 1 : 0);
  write_f64(buf, reference.value_or(0.0));
  sampler_.save_state(buf);
  write_u64(buf, clients_.size());
  for (const auto& client : clients_) client->save_state(buf);
  // Fabric state: fault-RNG streams, in-flight wire images and the
  // traffic/fault accounting, so a resumed chaos run replays the exact
  // same fault sequence with its conservation invariant intact.
  write_u8(buf, network_ != nullptr ? 1 : 0);
  if (network_ != nullptr) network_->save_state(buf);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  FEDCAV_REQUIRE(out.good(), "save_checkpoint: cannot open " + path);
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  FEDCAV_REQUIRE(out.good(), "save_checkpoint: write failed for " + path);
}

void Server::load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FEDCAV_REQUIRE(in.good(), "load_checkpoint: cannot open " + path);
  ByteBuffer buf((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ByteReader reader(buf);
  const std::uint64_t magic = reader.read_u64();
  FEDCAV_REQUIRE(magic < kFirstCheckpointMagic || magic >= kCheckpointMagic,
                 "load_checkpoint: unsupported checkpoint version in " + path);
  FEDCAV_REQUIRE(magic == kCheckpointMagic, "load_checkpoint: bad magic in " + path);
  const std::uint64_t saved_round = reader.read_u64();
  std::vector<float> weights = reader.read_f32_vector();
  FEDCAV_REQUIRE(weights.size() == global_weights_.size(),
                 "load_checkpoint: weight count mismatch in " + path);
  std::vector<float> cached = reader.read_f32_vector();
  FEDCAV_REQUIRE(cached.size() == global_weights_.size(),
                 "load_checkpoint: cached weight count mismatch in " + path);
  const bool has_reference = reader.read_u8() != 0;
  const double reference = reader.read_f64();
  sampler_.load_state(reader);
  const std::uint64_t num_clients = reader.read_u64();
  FEDCAV_REQUIRE(num_clients == clients_.size(),
                 "load_checkpoint: client count mismatch in " + path);
  for (auto& client : clients_) client->load_state(reader, global_weights_.size());
  const bool has_network = reader.read_u8() != 0;
  FEDCAV_REQUIRE(has_network == (network_ != nullptr),
                 "load_checkpoint: network presence mismatch in " + path);
  if (has_network) network_->load_state(reader);
  FEDCAV_REQUIRE(reader.exhausted(), "load_checkpoint: trailing bytes in " + path);

  round_ = saved_round;
  set_global_weights(std::move(weights));
  cached_weights_ = std::move(cached);
  detector_.restore_reference(has_reference ? std::optional<double>(reference)
                                            : std::nullopt);
}

void Server::write_telemetry(const std::string& trace_path,
                             const std::string& metrics_path) const {
  if (!obs::enabled()) return;
  if (endpoint_.transport() != nullptr) endpoint_.transport()->publish_metrics();
  if (!trace_path.empty()) obs::Tracer::instance().write_chrome_trace_file(trace_path);
  if (!metrics_path.empty()) obs::registry().write_summary_file(metrics_path);
}

metrics::RoundRecord Server::run_round() {
  ++round_;
  if (lr_schedule_ != nullptr) effective_local_.lr = lr_schedule_->lr(round_);
  comm::Transport* const transport = endpoint_.transport();
  if (transport != nullptr) transport->begin_round(round_);
  ensure_replica_pool();
  Stopwatch watch;
  metrics::RoundRecord record;
  record.round = round_;
  obs::Span round_span("round", "round");
  round_span.arg("round", static_cast<double>(round_));

  // Downlink bytes are rank 0's sends; uplink bytes everyone else's.
  const auto bytes_down = [&] { return transport->stats(kServerRank).bytes_sent; };
  const auto bytes_up = [&] { return transport->total_stats().bytes_sent - bytes_down(); };
  const std::uint64_t bytes_down_before = transport ? bytes_down() : 0;
  const std::uint64_t bytes_up_before = transport ? bytes_up() : 0;

  std::vector<std::size_t> participants;
  {
    PhaseTimer phase("sample", round_, record.phases.sample);
    // The cohort is a pure function of (seed, round): the sampler's
    // stream does not depend on how many rounds ran before or where
    // (DESIGN.md §16).
    sampler_.reseed(derive_seed(config_.seed, round_, 0, RngStream::kSampler));
    participants = sampler_.sample();
  }
  record.sampled = participants.size();

  // Sharded round engine (DESIGN.md §15): the cohort is split into
  // contiguous shards that stream independently, chained into one
  // fixed-order reduction — bit-identical at every shard count. 0 =
  // auto: the process default (normally 1; FEDCAV_TEST_SHARDS raises it
  // for whole-suite replays).
  const std::size_t shard_request =
      config_.shards != 0 ? config_.shards : default_round_shards();
  ShardedRoundEngine engine(pool(), participants.size(), shard_request);

  // Downlink: the global model is encoded once per round. Quantized runs
  // ADOPT THE DECODED IMAGE as the round's reference w̃_t: every later use
  // of global_weights_ (the clients' training start, the synthetic
  // carried-mass update, the strategy's base, the uplink-delta
  // reconstruction) then agrees bit-exactly with what a client decodes
  // from the wire. fp16 makes the round trip a no-op from round 2 on
  // (requantizing an fp16 image is exact); int8's per-round coding error
  // is absorbed by the clients' error-feedback residuals.
  {
    PhaseTimer phase("broadcast", round_, record.phases.broadcast);
    endpoint_.begin_round(round_, global_weights_);
  }

  // Phase ①: metadata exchange (downlink + inference loss + scalar
  // report), parallel in-process and serial in participant order over a
  // remote transport. Results land in fixed slots so every later loop is
  // deterministic (HPC-guide reduction idiom). No model-sized state per
  // participant survives this phase.
  std::vector<ParticipantOutcome> outcomes(participants.size());
  {
    PhaseTimer phase("metadata", round_, record.phases.metadata);
    endpoint_.begin_phase(participants);
    engine.run_metadata(
        [&](std::size_t i) {
          Client& client = *clients_[participants[i]];
          outcomes[i] = endpoint_.exchange_metadata(
              participants[i] + 1, client, [&](const nn::Weights& w) {
                nn::ReplicaPool::Lease replica = replica_pool_->acquire();
                return client.compute_inference_loss(replica.model(), w);
              });
        },
        endpoint_.remote());
  }

  // Collect, in fixed participant order: sampled clients whose exchange
  // failed (crash, retry exhaustion, deadline) become dropouts — the
  // fault-fabric analogue of a straggler.
  std::vector<ClientUpdate> metadata;    // scalars only; weights stay empty
  std::vector<std::size_t> survivor_slots;  // original sampled slot (shard owner)
  std::vector<double> survivor_elapsed;  // phase-① simulated time, carried into ②
  metadata.reserve(outcomes.size());
  survivor_slots.reserve(outcomes.size());
  survivor_elapsed.reserve(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    tally(record, outcomes[i]);
    if (outcomes[i].metadata.has_value()) {
      metadata.push_back(std::move(*outcomes[i].metadata));
      survivor_slots.push_back(i);
      survivor_elapsed.push_back(outcomes[i].elapsed_s);
    } else {
      record.dropouts += 1;
      engine.note_dropout(i);
    }
  }
  outcomes.clear();

  // Stragglers: each received report is additionally lost with the
  // configured probability, by one pure coin per (round, client). Any
  // process that knows the seed reaches the same verdict, so a remote
  // worker decides its own fate locally (skips training and the report)
  // and this filter agrees without coordination. A round whose every
  // report drops falls below the quorum and skips.
  if (config_.straggler_drop_prob > 0.0 && !metadata.empty()) {
    PhaseTimer phase("straggler_filter", round_, record.phases.straggler_filter);
    std::vector<char> keep(metadata.size(), 1);
    for (std::size_t i = 0; i < metadata.size(); ++i) {
      keep[i] = !derived_bernoulli(config_.seed, round_, metadata[i].client_id,
                                   RngStream::kStraggler, config_.straggler_drop_prob);
    }
    // Compact the survivor columns in place; each drop books to its shard.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < metadata.size(); ++i) {
      if (!keep[i]) {
        engine.note_straggler(survivor_slots[i]);
        continue;
      }
      if (kept != i) {
        metadata[kept] = std::move(metadata[i]);
        survivor_slots[kept] = survivor_slots[i];
        survivor_elapsed[kept] = survivor_elapsed[i];
      }
      ++kept;
    }
    record.straggler_drops = metadata.size() - kept;
    metadata.resize(kept);
    survivor_slots.resize(kept);
    survivor_elapsed.resize(kept);
  }
  record.participants = metadata.size();
  FEDCAV_REQUIRE(record.sampled ==
                     record.participants + record.dropouts + record.straggler_drops,
                 "Server: round accounting invariant violated");
  // Same invariant at shard granularity: every sampled slot's fate must
  // have been booked against its owning shard (DESIGN.md §15).
  engine.check_accounting(record.participants, record.dropouts,
                          record.straggler_drops);

  // Quorum: with fewer survivors than min_aggregate_clients the round is
  // skipped outright — no training, no attack, no detection, no
  // aggregation; the global model carries forward unchanged.
  record.skipped = metadata.size() < config_.min_aggregate_clients;
  if (record.skipped) {
    FEDCAV_LOG_INFO << "round " << round_ << ": quorum not met (" << metadata.size()
                    << " < " << config_.min_aggregate_clients << "), skipping round";
  }

  const bool attack_now = !record.skipped && adversary_ != nullptr &&
                          attack_rounds_.count(round_) > 0 && !metadata.empty();
  // Pipeline window: how many participants may train (and thus how many
  // full updates may be materialized) ahead of the fold cursor in
  // phase ② — the same O(workers × model) bound the old wave barrier
  // enforced, without the barrier.
  const std::size_t wave = std::max<std::size_t>(std::size_t{1}, pool().size());

  // A phase-② upload failure after a successful metadata phase: the
  // client's γ mass was already committed, so fold the unchanged global
  // weights in its place — the weighted average then carries γ_j of w_t
  // forward instead of silently renormalizing over the survivors.
  auto make_synthetic = [&](std::size_t slot) {
    ClientUpdate synthetic = metadata[slot];  // the committed scalars
    synthetic.weights = global_weights_;
    record.upload_failures += 1;
    engine.note_upload_failure(survivor_slots[slot]);
    return synthetic;
  };

  // Phase ② exchange of survivor `i`, training in-process on a pooled
  // replica. nullopt = upload failure.
  auto exchange_report = [&](std::size_t i, ParticipantOutcome& counters) {
    const std::size_t client_index = participants[survivor_slots[i]];
    Client& client = *clients_[client_index];
    return endpoint_.exchange_report(client_index + 1, client, [&] {
      // The batch-shuffle stream for this participation is
      // Rng(derive_seed(seed, round, id, kClientTrain)) — the same stream
      // a remote worker hosting this client derives for itself (§16).
      client.reseed_for_round(config_.seed, round_);
      nn::ReplicaPool::Lease replica = replica_pool_->acquire();
      return client.train_update(replica.model(), global_weights_, effective_local_,
                                 metadata[i].inference_loss);
    }, counters);
  };

  // Phase ② driver: stream survivors [first_slot, end) through the
  // sharded engine into the strategy — training overlaps the serial
  // ascending-order accumulate() calls instead of phase-barriering each
  // wave, so the fold is independent of the worker count. Updates live
  // in a ring of `wave` cells: the scheduler guarantees train(s + wave)
  // cannot start before fold(s) freed its cell. Fresh per-slot counters
  // avoid double-counting the phase-① tallies already in the record.
  struct StreamSlot {
    std::optional<ClientUpdate> update;
    ParticipantOutcome counters;
  };
  auto run_stream = [&](std::size_t first_slot) {
    const std::size_t n = metadata.size();
    if (first_slot >= n) return;
    // The span keeps the historical "local_update" name: training
    // dominates the stream, and the serial folds it overlaps get their
    // own agg.shard spans from the engine.
    obs::Span span("local_update", "round.phase");
    span.arg("round", static_cast<double>(round_));
    std::vector<StreamSlot> ring(std::min(wave, n - first_slot));
    auto train = [&](std::size_t i) {
      StreamSlot& slot = ring[i % ring.size()];
      slot.counters = ParticipantOutcome{};
      slot.counters.elapsed_s = survivor_elapsed[i];
      slot.update = exchange_report(i, slot.counters);
    };
    auto fold = [&](std::size_t i) {
      StreamSlot& slot = ring[i % ring.size()];
      tally(record, slot.counters);
      strategy_->accumulate(slot.update.has_value() ? std::move(*slot.update)
                                                    : make_synthetic(i));
      slot.update.reset();
    };
    engine.run_streaming(
        first_slot, n, wave, train, fold,
        [&](std::size_t i) { return survivor_slots[i]; }, endpoint_.remote());
  };

  if (!record.skipped) {
    // Phase ②, one path for every strategy. γ is a pure function of the
    // metadata scalars, so detection and aggregation weights are decided
    // before any full update exists. A streaming strategy folds each
    // report into its accumulator and frees it — peak model memory stays
    // O(wave × model); the others buffer the reports and aggregate them
    // at finish_aggregation() (AggregationStrategy's defaults).
    endpoint_.begin_phase();

    // Attack rounds: train the victim (first survivor) up front so the
    // adversary has a real update to corrupt. The corrupted report is
    // what the server "received": its loss drives detection and its
    // scalars drive γ.
    std::optional<ClientUpdate> victim_update;
    if (attack_now) {
      ParticipantOutcome victim_counters;
      {
        PhaseTimer phase("local_update", round_, record.phases.local_update);
        victim_counters.elapsed_s = survivor_elapsed[0];
        victim_update = exchange_report(0, victim_counters);
      }
      tally(record, victim_counters);
      if (victim_update.has_value()) {
        PhaseTimer phase("attack", round_, record.phases.attack);
        attack::AttackContext ctx;
        ctx.global = &global_weights_;
        ctx.round = round_;
        // The cohort the adversary scales against is the one that
        // reaches aggregation; the honest γ estimate comes from the
        // metadata scalars.
        ctx.participants = metadata.size();
        ctx.estimated_gamma = strategy_->aggregation_weights(metadata).front();
        *victim_update = adversary_->corrupt(std::move(*victim_update), ctx);
        metadata[0].inference_loss = victim_update->inference_loss;
        metadata[0].num_samples = victim_update->num_samples;
        record.attacked = true;
      }
      // Victim upload failure: nothing reached the server to corrupt;
      // the round proceeds un-attacked and slot 0 folds as carried mass.
    }

    std::vector<double> losses(metadata.size());
    std::vector<std::size_t> surviving(metadata.size());  // client indices
    for (std::size_t i = 0; i < metadata.size(); ++i) {
      losses[i] = metadata[i].inference_loss;
      surviving[i] = participants[survivor_slots[i]];
    }
    {
      PhaseTimer phase("detect", round_, record.phases.detect);
      sampler_.observe_losses(surviving, losses);
      record.mean_inference_loss = 0.0;
      for (double f : losses) record.mean_inference_loss += f;
      record.mean_inference_loss /= static_cast<double>(losses.size());
      record.max_inference_loss = *std::max_element(losses.begin(), losses.end());
      if (config_.detection_enabled) {
        const core::DetectionResult detection = detector_.check(losses);
        record.detection_fired = detection.abnormal;
        if (detection.abnormal) {
          FEDCAV_LOG_INFO << "round " << round_ << ": detector fired ("
                          << detection.votes << "/" << detection.voters
                          << " votes), reversing global model";
          global_weights_ = cached_weights_;
          record.reversed = true;
        }
      }
    }

    // Reversed rounds skip phase ② for the remaining survivors entirely:
    // their full updates would be discarded anyway (DESIGN.md §11).
    if (!record.reversed) {
      {
        PhaseTimer phase("aggregate", round_, record.phases.aggregate);
        cached_weights_ = global_weights_;
        if (config_.detection_enabled) detector_.commit(losses);
        strategy_->begin_aggregation(global_weights_, metadata);
        if (attack_now) {
          strategy_->accumulate(victim_update.has_value() ? std::move(*victim_update)
                                                          : make_synthetic(0));
          victim_update.reset();
        }
      }
      run_stream(attack_now ? 1 : 0);
      PhaseTimer phase("aggregate", round_, record.phases.aggregate);
      global_weights_ = strategy_->finish_aggregation();
    }
  }

  // Phase attribution for the overlapped stream: the serial fold side is
  // aggregation time; everything the pipeline ran concurrently with it
  // (training + uplink protocol) is local-update time. The two no longer
  // nest — overlapping them was the point — so the split is wall time
  // inside the fold callbacks vs. the remainder of the stream.
  record.phases.aggregate += engine.fold_seconds();
  record.phases.local_update +=
      std::max(0.0, engine.stream_seconds() - engine.fold_seconds());

  if (!record.skipped && obs::enabled()) {
    engine.publish_metrics();
    static obs::Gauge& peak_gauge = obs::registry().gauge("agg.peak_bytes");
    peak_gauge.set(aggregation_peak_bytes(*strategy_, global_weights_.size(),
                                          metadata.size(), wave));
  }

  {
    PhaseTimer phase("eval", round_, record.phases.eval);
    global_model_->set_weights(global_weights_);
    // Sharded over the round's thread pool + replica leases; the t_eval
    // CSV column reflects the fan-out. Per-batch fixed slots keep the
    // result bit-identical to the serial path at any pool size.
    const metrics::EvalResult eval =
        metrics::evaluate(*replica_pool_, global_weights_, test_set_, pool(),
                          config_.eval_batch_size);
    record.test_accuracy = eval.accuracy;
    record.test_loss = eval.mean_loss;
  }

  record.wall_seconds = watch.seconds();
  if (transport != nullptr) {
    record.bytes_down = bytes_down() - bytes_down_before;
    record.bytes_up = bytes_up() - bytes_up_before;
    if (obs::enabled()) transport->publish_metrics();
  }
  if (obs::enabled()) {
    auto& reg = obs::registry();
    reg.counter("server.rounds").add(1);
    reg.histogram("server.round_seconds").observe(record.wall_seconds);
    if (record.skipped) reg.counter("server.rounds_skipped").add(1);
    if (record.dropouts > 0) {
      reg.counter("server.dropouts").add(static_cast<std::uint64_t>(record.dropouts));
    }
    if (record.retries > 0) reg.counter("comm.retries").add(record.retries);
    if (record.crc_failures > 0) {
      reg.counter("comm.crc_failures").add(record.crc_failures);
    }
    if (record.stale_discards > 0) {
      reg.counter("comm.stale_discards").add(record.stale_discards);
    }
    if (record.deadline_misses > 0) {
      reg.counter("comm.deadline_misses")
          .add(static_cast<std::uint64_t>(record.deadline_misses));
    }
    if (record.upload_failures > 0) {
      reg.counter("server.upload_failures")
          .add(static_cast<std::uint64_t>(record.upload_failures));
    }
  }

  history_.add(record);
  return record;
}

void Server::run(std::size_t rounds) {
  for (std::size_t r = 0; r < rounds; ++r) run_round();
}

}  // namespace fedcav::fl
