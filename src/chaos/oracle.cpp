#include "src/chaos/oracle.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "src/fl/round_engine.hpp"
#include "src/fl/simulation.hpp"
#include "src/utils/error.hpp"

namespace fedcav::chaos {
namespace {

/// Tiny, fast federated run shape shared by every oracle sub-run. Only
/// the plan's knobs vary across trials; dataset/model/seed are pinned so
/// a trial's behavior is a function of the plan alone.
fl::SimulationConfig config_for(const ChaosPlan& plan) {
  fl::SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.strategy = "fedcav";
  config.train_samples_per_class = 8;
  config.test_samples_per_class = 4;
  config.partition.num_clients = plan.num_clients;
  config.seed = 2021;
  config.server.sample_ratio = plan.sample_ratio;
  config.server.local.epochs = 1;
  config.server.local.batch_size = 8;
  config.server.min_aggregate_clients = plan.min_aggregate_clients;
  config.server.max_retries = plan.max_retries;
  config.server.retry_backoff_s = plan.retry_backoff_s;
  config.server.uplink_deadline_s = plan.uplink_deadline_s;
  config.server.straggler_drop_prob = plan.straggler_drop_prob;
  config.server.network.faults = plan.faults;
  config.server.shards = plan.shards;  // 0 = auto (process default)
  return config;
}

/// Forces the buffered aggregation path while delegating the actual
/// math: inherits the base class's buffering begin/accumulate/finish
/// (which call our aggregate(), which calls the wrapped strategy's) and
/// reports streaming_aggregation() == false.
class BufferedWrapper final : public fl::AggregationStrategy {
 public:
  explicit BufferedWrapper(std::unique_ptr<fl::AggregationStrategy> inner)
      : inner_(std::move(inner)) {}

  nn::Weights aggregate(const nn::Weights& global,
                        const std::vector<fl::ClientUpdate>& updates) override {
    return inner_->aggregate(global, updates);
  }
  std::vector<double> aggregation_weights(
      const std::vector<fl::ClientUpdate>& updates) const override {
    return inner_->aggregation_weights(updates);
  }
  void apply_local_overrides(fl::LocalTrainConfig& config) const override {
    inner_->apply_local_overrides(config);
  }
  std::string name() const override { return inner_->name() + "-buffered"; }

 private:
  std::unique_ptr<fl::AggregationStrategy> inner_;
};

bool bits_equal(const nn::Weights& a, const nn::Weights& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool conserved(const comm::InMemoryNetwork& net) {
  const comm::FaultStats f = net.fault_stats();
  return net.total_stats().messages_sent + f.duplicated ==
         f.delivered + f.dropped + f.crash_dropped + net.pending_messages();
}

std::string conservation_detail(const comm::InMemoryNetwork& net) {
  const comm::FaultStats f = net.fault_stats();
  std::ostringstream out;
  out << "sent=" << net.total_stats().messages_sent << " dup=" << f.duplicated
      << " delivered=" << f.delivered << " dropped=" << f.dropped
      << " crash=" << f.crash_dropped << " pending=" << net.pending_messages();
  return out.str();
}

bool record_triggered(const metrics::RoundRecord& rec) {
  return rec.dropouts > 0 || rec.straggler_drops > 0 || rec.upload_failures > 0 ||
         rec.retries > 0 || rec.crc_failures > 0 || rec.stale_discards > 0 ||
         rec.deadline_misses > 0 || rec.skipped;
}

bool stats_triggered(const comm::InMemoryNetwork* net) {
  if (net == nullptr) return false;
  const comm::FaultStats f = net->fault_stats();
  return f.dropped + f.crash_dropped + f.duplicated + f.reordered + f.corrupted +
                 f.truncated >
             0 ||
         f.jitter_seconds > 0.0;
}

/// The deterministic per-round fields the resume check compares
/// (everything in the timing-free CSV that belongs to one round).
std::string record_summary(const metrics::RoundRecord& rec) {
  std::ostringstream out;
  out << rec.round << '|' << rec.sampled << '|' << rec.participants << '|'
      << rec.dropouts << '|' << rec.straggler_drops << '|' << rec.upload_failures
      << '|' << rec.retries << '|' << rec.crc_failures << '|'
      << rec.stale_discards << '|' << rec.deadline_misses << '|' << rec.skipped
      << '|' << rec.bytes_up << '|' << rec.bytes_down << '|';
  // Hex-exact floats: the comparison is bit-identity, not closeness.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a|%a|%a|%a", rec.test_accuracy, rec.test_loss,
                rec.mean_inference_loss, rec.max_inference_loss);
  out << buf;
  return out.str();
}

std::string deterministic_csv(const fl::Server& server) {
  std::ostringstream out;
  server.history().write_csv(out, /*include_timings=*/false);
  return out.str();
}

std::string checkpoint_scratch_path() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id = counter.fetch_add(1);
  std::ostringstream name;
  name << "fedcav_chaos_" << ::getpid() << '_' << id << ".ckpt";
  return (std::filesystem::temp_directory_path() / name.str()).string();
}

struct RunOutcome {
  fl::Simulation sim;  // owns the server (and its history/network)
  bool failed = false;
  std::string invariant;
  std::string detail;
  bool triggered = false;
};

/// Base run: round-by-round with accounting, conservation, and
/// skip-carry-forward checked after every round.
RunOutcome run_checked(const ChaosPlan& plan, ThreadPool* pool) {
  RunOutcome out;
  out.sim = fl::build_simulation(config_for(plan));
  fl::Server& server = *out.sim.server;
  if (pool != nullptr) server.set_thread_pool(pool);
  for (std::size_t r = 1; r <= plan.rounds; ++r) {
    const nn::Weights before = server.global_weights();
    metrics::RoundRecord rec;
    try {
      rec = server.run_round();
    } catch (const Error& e) {
      out.failed = true;
      out.invariant = "exception";
      out.detail = std::string("round ") + std::to_string(r) + ": " + e.what();
      return out;
    }
    out.triggered = out.triggered || record_triggered(rec);
    if (rec.sampled != rec.participants + rec.dropouts + rec.straggler_drops) {
      out.failed = true;
      out.invariant = "accounting";
      out.detail = record_summary(rec);
      return out;
    }
    if (server.network() != nullptr && !conserved(*server.network())) {
      out.failed = true;
      out.invariant = "conservation";
      out.detail =
          "round " + std::to_string(r) + ": " + conservation_detail(*server.network());
      return out;
    }
    if (rec.skipped && !bits_equal(before, server.global_weights())) {
      out.failed = true;
      out.invariant = "skip_carry_forward";
      out.detail = "round " + std::to_string(r) + ": skipped round changed weights";
      return out;
    }
  }
  out.triggered = out.triggered || stats_triggered(server.network());
  return out;
}

}  // namespace

OracleResult run_oracle(const ChaosPlan& plan, const OracleOptions& options) {
  plan.validate();
  OracleResult result;

  RunOutcome base = run_checked(plan, options.pool);
  result.triggered = base.triggered;
  if (base.failed) {
    result.passed = false;
    result.invariant = base.invariant;
    result.detail = base.detail;
    result.triggered = true;  // a violated invariant is the strongest signal
    return result;
  }
  const fl::Server& base_server = *base.sim.server;

  if (options.check_streaming_parity) {
    fl::Simulation buffered = fl::build_simulation(config_for(plan));
    buffered.server->set_strategy(std::make_unique<BufferedWrapper>(
        fl::make_strategy(config_for(plan).strategy)));
    if (options.pool != nullptr) buffered.server->set_thread_pool(options.pool);
    try {
      buffered.server->run(plan.rounds);
    } catch (const Error& e) {
      result.passed = false;
      result.invariant = "exception";
      result.detail = std::string("buffered run: ") + e.what();
      result.triggered = true;
      return result;
    }
    if (deterministic_csv(*buffered.server) != deterministic_csv(base_server) ||
        !bits_equal(buffered.server->global_weights(),
                    base_server.global_weights())) {
      result.passed = false;
      result.invariant = "streaming_parity";
      result.detail = "buffered aggregation diverged from streaming run";
      result.triggered = true;
      return result;
    }
  }

  // Shard parity (DESIGN.md §15): the shard count must be invisible to
  // results. A forced single-shard replay of the same plan has to match
  // the base run bit-for-bit — fold order is the chained ascending-slot
  // reduction either way, so any divergence is an engine bug.
  const std::size_t effective_shards =
      plan.shards != 0 ? plan.shards : fl::default_round_shards();
  if (options.check_shard_parity && effective_shards != 1) {
    fl::SimulationConfig single = config_for(plan);
    single.server.shards = 1;
    fl::Simulation flat = fl::build_simulation(single);
    if (options.pool != nullptr) flat.server->set_thread_pool(options.pool);
    try {
      flat.server->run(plan.rounds);
    } catch (const Error& e) {
      result.passed = false;
      result.invariant = "exception";
      result.detail = std::string("single-shard run: ") + e.what();
      result.triggered = true;
      return result;
    }
    if (deterministic_csv(*flat.server) != deterministic_csv(base_server) ||
        !bits_equal(flat.server->global_weights(),
                    base_server.global_weights())) {
      result.passed = false;
      result.invariant = "shard_parity";
      result.detail = "shards=" + std::to_string(effective_shards) +
                      " diverged from the single-shard run";
      result.triggered = true;
      return result;
    }
  }

  // Derived-seed schedule independence (DESIGN.md §16): every RNG
  // consumer reseeds per round from (seed, round, id, stream), so the
  // *history* of a client's stream must be invisible. Replay the plan
  // with every client's stream deliberately scrambled before round 1 and
  // require bit-identity with the base run. Any divergence means some
  // consumer still reads a long-lived stream (the cross-process
  // divergence bug, in miniature).
  {
    fl::Simulation dirty = fl::build_simulation(config_for(plan));
    if (options.pool != nullptr) dirty.server->set_thread_pool(options.pool);
    for (std::size_t c = 0; c < dirty.server->num_clients(); ++c) {
      dirty.server->client_at(c).reseed_for_round(0x5eedc0deULL + c, 9999);
    }
    try {
      dirty.server->run(plan.rounds);
    } catch (const Error& e) {
      result.passed = false;
      result.invariant = "exception";
      result.detail = std::string("scrambled-stream run: ") + e.what();
      result.triggered = true;
      return result;
    }
    if (deterministic_csv(*dirty.server) != deterministic_csv(base_server) ||
        !bits_equal(dirty.server->global_weights(), base_server.global_weights())) {
      result.passed = false;
      result.invariant = "derived_schedule_independence";
      result.detail = "run depends on pre-run client RNG stream state";
      result.triggered = true;
      return result;
    }
  }

  const bool resume_applicable =
      plan.checkpoint_round >= 1 && plan.checkpoint_round < plan.rounds;
  if (options.check_resume && resume_applicable) {
    const std::string path = checkpoint_scratch_path();
    try {
      fl::Simulation first = fl::build_simulation(config_for(plan));
      if (options.pool != nullptr) first.server->set_thread_pool(options.pool);
      first.server->run(plan.checkpoint_round);
      first.server->save_checkpoint(path);

      fl::Simulation resumed = fl::build_simulation(config_for(plan));
      if (options.pool != nullptr) resumed.server->set_thread_pool(options.pool);
      resumed.server->load_checkpoint(path);
      resumed.server->run(plan.rounds - plan.checkpoint_round);
      std::filesystem::remove(path);

      if (!bits_equal(resumed.server->global_weights(),
                      base_server.global_weights())) {
        result.passed = false;
        result.invariant = "resume_identity";
        result.detail = "final weights diverged after checkpoint resume";
        result.triggered = true;
        return result;
      }
      const auto& base_records = base_server.history().records();
      const auto& resumed_records = resumed.server->history().records();
      for (std::size_t i = 0; i < resumed_records.size(); ++i) {
        const std::string got = record_summary(resumed_records[i]);
        const std::string want = record_summary(base_records[plan.checkpoint_round + i]);
        if (got != want) {
          result.passed = false;
          result.invariant = "resume_identity";
          result.detail = "post-resume record diverged: got [" + got +
                          "] want [" + want + "]";
          result.triggered = true;
          return result;
        }
      }
      if (resumed.server->network() != nullptr &&
          !conserved(*resumed.server->network())) {
        result.passed = false;
        result.invariant = "resume_conservation";
        result.detail = conservation_detail(*resumed.server->network());
        result.triggered = true;
        return result;
      }
    } catch (const Error& e) {
      std::filesystem::remove(path);
      result.passed = false;
      result.invariant = "exception";
      result.detail = std::string("resume run: ") + e.what();
      result.triggered = true;
      return result;
    }
  }

  return result;
}

}  // namespace fedcav::chaos
