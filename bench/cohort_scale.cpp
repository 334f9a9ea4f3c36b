// Cohort-scaling benchmark: proves a round's peak memory is bounded by
// the replica pool (O(K × model), K ≈ thread-pool size) and NOT by the
// cohort size — the PR-5 streaming guarantee (DESIGN.md §11), now
// carried by the streaming round pipeline (DESIGN.md §15) up to a
// simulated 102400-client round.
//
// For each cohort size it builds a full-participation simulation on a
// tiny model (the per-class sample count grows with the cohort so every
// client owns at least one sample), runs one warm-up round plus one
// measured round over the metered in-memory fabric, and records:
//   * peak live tensor bytes over the measured round (FEDCAV_ALLOC_STATS
//     high-water mark, reset at round start),
//   * wall time for the round and per-participant time, and the round's
//     phase split (metadata, local_update, aggregate, eval),
//   * the uplink and downlink bytes the fabric metered,
//   * replicas actually materialized by the pool,
//   * the obs gauges the round exports (pool.occupancy, agg.peak_bytes),
//   * a digest of the run's deterministic outputs (timing-free round
//     CSV + final weight bytes) — the reproducibility comparison key.
//
// Canonical producer of BENCH_cohort.json at the repo root. Gates:
//   memory — every cohort's peak live bytes must stay within 1.5x of
//            the smallest row, and the 102400-client row within 1.5x of
//            the 1024-client row (per-client replicas would blow both
//            up by the cohort ratio);
//   time   — per-participant round time of the largest cohort must stay
//            within 4x of the smallest (rounds scale ~linearly);
//   quant  — the int8 + top-k codec must stay streaming: its peak bytes
//            within 1.5x of the dense round at the same cohort size;
//   bytes  — every dense row meters the same nonzero bytes per
//            participant, each way, and the int8 top-k(0.25) uplink
//            stays under a quarter of the dense one per participant;
//   repro  — in --smoke, the first cohort runs twice with the same seed
//            and the deterministic fields must match exactly (this is
//            what pins the --seed flag: results are a function of it).
//
// Usage: cohort_scale [--smoke] [--seed <n>] [--out <path>]
//   --smoke   CI-sized cohorts 64/256/4096 instead of
//             64/256/1024/4096/16384/102400
//   --seed    simulation seed for every run (default 2021)
//   --out     override the JSON destination (default <repo>/BENCH_cohort.json)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/fl/simulation.hpp"
#include "src/obs/metrics.hpp"
#include "src/tensor/tensor.hpp"
#include "src/utils/threadpool.hpp"

namespace {

using namespace fedcav;

struct CohortResult {
  std::size_t clients = 0;
  std::size_t participants = 0;
  std::uint64_t peak_live_bytes = 0;
  double round_ms = 0.0;
  double per_client_ms = 0.0;
  metrics::RoundPhases phases;  // seconds
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  std::size_t pool_replicas = 0;
  std::size_t pool_max = 0;
  double gauge_pool_occupancy = 0.0;
  double gauge_agg_peak_bytes = 0.0;
  std::string csv;      // timing-free round history (deterministic)
  nn::Weights weights;  // final global weights (deterministic)
  std::uint64_t digest = 0;
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

CohortResult run_cohort(std::size_t clients, std::size_t workers,
                        std::uint64_t seed, bool quant_uplink = false) {
  fl::SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.strategy = "fedcav";
  // Grow the dataset with the cohort: 10 classes x max(128, ceil(n/10))
  // keeps at least one sample per client at every size up to 102400
  // while leaving the small cohorts on the historical 1280-sample set.
  // Dataset pixels are plain client state, not round-scoped tensors, so
  // this does not distort the peak-live-bytes gate.
  config.train_samples_per_class = std::max<std::size_t>(128, (clients + 9) / 10);
  config.test_samples_per_class = 4;
  config.partition.scheme = data::PartitionScheme::kIidBalanced;
  config.partition.num_clients = clients;
  config.seed = seed;
  config.server.sample_ratio = 1.0;  // whole cohort participates
  config.server.local.epochs = 1;
  config.server.local.batch_size = 4;
  config.server.telemetry = true;  // export pool.occupancy / agg.peak_bytes
  if (quant_uplink) {
    // Quantized uplink (DESIGN.md §13): the int8 + top-k codec and its
    // per-client error-feedback residual must not break the O(K × model)
    // bound — residuals are client state, not round-scoped tensors.
    config.server.quant = comm::QuantMode::kInt8;
    config.server.quant_keep = 0.25;
  }

  fl::Simulation sim = fl::build_simulation(config);
  ThreadPool pool(workers);
  sim.server->set_thread_pool(&pool);

  // Warm-up round: clones replicas and grows workspaces, so the measured
  // round sees steady state (the regime a long run lives in).
  sim.server->run_round();

  // Saturate the pool: a small cohort can finish its warm-up before every
  // worker materializes a replica, which would make the memory baseline a
  // function of scheduling luck instead of the O(K × model) bound. Lease
  // every replica and run one training-shaped pass on each so all rows
  // measure the same K-replica regime (weights + grown workspaces).
  if (nn::ReplicaPool* rp = sim.server->replica_pool()) {
    std::vector<std::size_t> idx;
    std::vector<std::size_t> labels;
    for (std::size_t i = 0; i < 4 && i < sim.train.size(); ++i) idx.push_back(i);
    const Tensor batch = sim.train.make_batch(idx, &labels);
    std::vector<nn::ReplicaPool::Lease> leases;
    for (std::size_t i = 0; i < rp->max_replicas(); ++i) {
      leases.push_back(rp->acquire());
      leases.back()->forward_backward(batch, labels);
      leases.back()->zero_grad();
    }
  }

  obs::registry().reset();
  Tensor::reset_alloc_stats();
  const auto t0 = std::chrono::steady_clock::now();
  const metrics::RoundRecord rec = sim.server->run_round();
  const double round_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();

  CohortResult r;
  r.clients = clients;
  r.participants = rec.participants;
  r.peak_live_bytes = Tensor::alloc_stats().peak_live_bytes;
  r.round_ms = round_ms;
  r.per_client_ms = round_ms / static_cast<double>(clients);
  r.phases = rec.phases;
  r.bytes_up = rec.bytes_up;
  r.bytes_down = rec.bytes_down;
  if (const nn::ReplicaPool* rp = sim.server->replica_pool()) {
    r.pool_replicas = rp->created();
    r.pool_max = rp->max_replicas();
  }
  r.gauge_pool_occupancy = obs::registry().gauge("pool.occupancy").value();
  r.gauge_agg_peak_bytes = obs::registry().gauge("agg.peak_bytes").value();
  std::ostringstream csv;
  sim.server->history().write_csv(csv, /*include_timings=*/false);
  r.csv = csv.str();
  r.weights = sim.server->global_weights();
  r.digest = fnv1a(fnv1a(0xcbf29ce484222325ULL, r.csv.data(), r.csv.size()),
                   r.weights.data(), r.weights.size() * sizeof(float));
  return r;
}

bool bits_equal(const nn::Weights& a, const nn::Weights& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

double ms(double seconds) { return seconds * 1000.0; }

void print_row(const CohortResult& r, const char* quant) {
  std::printf("%8zu %13zu %9.3f %10.1f %9.3f %6zu/%zu %5s %12llu %12llu %9.1f %9.1f %9.1f %7.1f\n",
              r.clients, r.participants,
              static_cast<double>(r.peak_live_bytes) / (1024.0 * 1024.0), r.round_ms,
              r.per_client_ms, r.pool_replicas, r.pool_max, quant,
              static_cast<unsigned long long>(r.bytes_up),
              static_cast<unsigned long long>(r.bytes_down), ms(r.phases.metadata),
              ms(r.phases.local_update), ms(r.phases.aggregate), ms(r.phases.eval));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::uint64_t seed = 2021;
#ifdef FEDCAV_REPO_ROOT
  std::string out_path = std::string(FEDCAV_REPO_ROOT) + "/BENCH_cohort.json";
#else
  std::string out_path = "BENCH_cohort.json";
#endif
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--seed <n>] [--out <path>]\n",
                   argv[0]);
      return 2;
    }
  }
  // The smoke's 4096-client cohort keeps the flat-memory and int8
  // gates at a scale where the pipeline streams many windows.
  const std::vector<std::size_t> cohorts =
      smoke ? std::vector<std::size_t>{64, 256, 4096}
            : std::vector<std::size_t>{64, 256, 1024, 4096, 16384, 102400};
  const std::size_t workers = 4;
  // Error-feedback residuals are per-client state (~one model each), so
  // the quantized row is capped where that stays comfortably in RAM.
  const std::size_t quant_cap = 16384;
  std::size_t quant_clients = cohorts.front();
  for (std::size_t c : cohorts) {
    if (c <= quant_cap) quant_clients = c;
  }

  std::printf("cohort_scale: seed=%llu%s\n", static_cast<unsigned long long>(seed),
              smoke ? " (smoke)" : "");
  std::printf("%8s %13s %9s %10s %9s %9s %5s %12s %12s %9s %9s %9s %7s\n", "clients",
              "participants", "peak MiB", "round ms", "client ms", "replicas", "quant",
              "bytes up", "bytes down", "meta ms", "local ms", "agg ms", "eval ms");
  std::vector<CohortResult> results;
  for (std::size_t clients : cohorts) {
    CohortResult r = run_cohort(clients, workers, seed);
    print_row(r, "no");
    results.push_back(std::move(r));
  }
  // One quantized-uplink cohort at the largest capped size: same
  // bounded-memory guarantee with the int8 + top-k codec in the loop.
  CohortResult quant_r = run_cohort(quant_clients, workers, seed, /*quant_uplink=*/true);
  print_row(quant_r, "int8");

  std::ofstream json(out_path);
  if (!json) {
    std::fprintf(stderr, "cohort_scale: cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  json << "[\n";
  std::vector<const CohortResult*> all;
  for (const CohortResult& r : results) all.push_back(&r);
  all.push_back(&quant_r);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const CohortResult& r = *all[i];
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(r.digest));
    json << "  {\"clients\": " << r.clients << ", \"participants\": " << r.participants
         << ", \"seed\": " << seed
         << ", \"peak_live_bytes\": " << r.peak_live_bytes
         << ", \"round_ms\": " << r.round_ms << ", \"per_client_ms\": " << r.per_client_ms
         << ", \"metadata_ms\": " << ms(r.phases.metadata)
         << ", \"local_update_ms\": " << ms(r.phases.local_update)
         << ", \"aggregate_ms\": " << ms(r.phases.aggregate)
         << ", \"eval_ms\": " << ms(r.phases.eval) << ", \"bytes_up\": " << r.bytes_up
         << ", \"bytes_down\": " << r.bytes_down
         << ", \"pool_replicas\": " << r.pool_replicas << ", \"pool_max\": " << r.pool_max
         << ", \"pool_occupancy\": " << r.gauge_pool_occupancy
         << ", \"agg_peak_bytes\": " << r.gauge_agg_peak_bytes
         << ", \"digest\": \"" << digest << "\""
         << ", \"quant_uplink\": " << (i + 1 == all.size() ? "true" : "false") << "}"
         << (i + 1 < all.size() ? "," : "") << "\n";
  }
  json << "]\n";
  std::printf("wrote %s\n", out_path.c_str());

  const CohortResult& small = results.front();
  const CohortResult& large = results.back();

  bool ok = true;
  // Replica gate: the pool must never materialize more than workers + 1
  // models regardless of cohort size (quantized uplink included).
  for (const CohortResult* r : all) {
    if (r->pool_replicas > workers + 1) {
      std::fprintf(stderr, "FAIL: %zu-client round materialized %zu replicas (> %zu)\n",
                   r->clients, r->pool_replicas, workers + 1);
      ok = false;
    }
  }
  // Quantized-memory gate: the codec must stay streaming — folding int8
  // reports may not inflate the round's peak tensor bytes beyond 1.5x of
  // the dense run at the same cohort size.
  if (Tensor::alloc_stats_enabled()) {
    const CohortResult* dense_peer = nullptr;
    for (const CohortResult& r : results) {
      if (r.clients == quant_r.clients) dense_peer = &r;
    }
    if (dense_peer != nullptr) {
      const double quant_ratio = static_cast<double>(quant_r.peak_live_bytes) /
                                 static_cast<double>(dense_peer->peak_live_bytes);
      std::printf("quantized/dense peak-bytes ratio at %zu clients: %.2fx (gate <= 1.5x)\n",
                  quant_r.clients, quant_ratio);
      if (quant_ratio > 1.5) {
        std::fprintf(stderr,
                     "FAIL: quantized uplink grew peak live bytes %.2fx over the "
                     "dense round\n",
                     quant_ratio);
        ok = false;
      }
    }
  }
  // Memory gate: every cohort within 1.5x of the smallest row, and (when
  // both run) the 102400-client round within 1.5x of the 1024-client one
  // — flatness, not merely sub-linear growth. Only meaningful when the
  // alloc-stats choke point is compiled in; without it the peak reads 0.
  if (Tensor::alloc_stats_enabled()) {
    const CohortResult* row_1024 = nullptr;
    for (const CohortResult& r : results) {
      const double mem_ratio = static_cast<double>(r.peak_live_bytes) /
                               static_cast<double>(small.peak_live_bytes);
      if (&r != &small) {
        std::printf("peak-bytes ratio %zu/%zu clients: %.2fx (gate <= 1.5x)\n",
                    r.clients, small.clients, mem_ratio);
      }
      if (mem_ratio > 1.5) {
        std::fprintf(stderr,
                     "FAIL: peak live bytes grew %.2fx from %zu to %zu clients — "
                     "memory is scaling with the cohort\n",
                     mem_ratio, small.clients, r.clients);
        ok = false;
      }
      if (r.clients == 1024) row_1024 = &r;
    }
    if (row_1024 != nullptr && results.back().clients == 102400) {
      const double top_ratio = static_cast<double>(results.back().peak_live_bytes) /
                               static_cast<double>(row_1024->peak_live_bytes);
      std::printf("peak-bytes ratio 102400/1024 clients: %.2fx (gate <= 1.5x)\n",
                  top_ratio);
      if (top_ratio > 1.5) {
        std::fprintf(stderr,
                     "FAIL: 102400-client round peak grew %.2fx over the "
                     "1024-client round\n",
                     top_ratio);
        ok = false;
      }
    }
  } else {
    std::printf("built without FEDCAV_ALLOC_STATS: memory gates skipped\n");
  }
  // Metering gate: the round runs over the fabric, so it meters every
  // byte. Each dense participant moves the same model each way, so every
  // dense row meters the same nonzero bytes per participant; the int8
  // top-k(0.25) uplink must stay under a quarter of the dense one.
  const std::uint64_t dense_up = small.bytes_up / small.participants;
  const std::uint64_t dense_down = small.bytes_down / small.participants;
  std::printf("dense bytes per participant: %llu up, %llu down\n",
              static_cast<unsigned long long>(dense_up),
              static_cast<unsigned long long>(dense_down));
  for (const CohortResult& r : results) {
    if (dense_up == 0 || dense_down == 0 || r.bytes_up != dense_up * r.participants ||
        r.bytes_down != dense_down * r.participants) {
      std::fprintf(stderr,
                   "FAIL: %zu-client round metered %llu up / %llu down for %zu "
                   "participants, not %llu / %llu each\n",
                   r.clients, static_cast<unsigned long long>(r.bytes_up),
                   static_cast<unsigned long long>(r.bytes_down), r.participants,
                   static_cast<unsigned long long>(dense_up),
                   static_cast<unsigned long long>(dense_down));
      ok = false;
    }
  }
  const double quant_up = static_cast<double>(quant_r.bytes_up) /
                          static_cast<double>(quant_r.participants);
  std::printf("int8 uplink per participant: %.0f bytes (gate < %.0f)\n", quant_up,
              static_cast<double>(dense_up) / 4.0);
  if (!(quant_up > 0.0 && quant_up < static_cast<double>(dense_up) / 4.0)) {
    std::fprintf(stderr, "FAIL: int8 top-k uplink metered %.0f bytes per participant, "
                 "not under a quarter of the dense %llu\n",
                 quant_up, static_cast<unsigned long long>(dense_up));
    ok = false;
  }
  // Time gate: per-participant cost must not degrade super-linearly.
  const double time_ratio = large.per_client_ms / small.per_client_ms;
  std::printf("per-client time ratio %zu/%zu clients: %.2fx (gate <= 4x)\n",
              large.clients, small.clients, time_ratio);
  if (time_ratio > 4.0) {
    std::fprintf(stderr, "FAIL: per-client round time grew %.2fx — rounds are not "
                 "scaling linearly in cohort size\n", time_ratio);
    ok = false;
  }
  // Reproducibility gate (smoke): the same --seed must reproduce every
  // deterministic field of the first row exactly — participants, round
  // CSV, and final weights (via the digest). Timing fields are excluded
  // by construction.
  if (smoke) {
    const CohortResult again = run_cohort(small.clients, workers, seed);
    const bool same = again.participants == small.participants &&
                      again.digest == small.digest && again.csv == small.csv &&
                      bits_equal(again.weights, small.weights);
    std::printf("seed determinism at %zu clients: %s\n", small.clients,
                same ? "identical" : "DIVERGED");
    if (!same) {
      std::fprintf(stderr,
                   "FAIL: two runs with --seed %llu disagreed on deterministic "
                   "outputs\n",
                   static_cast<unsigned long long>(seed));
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
