// fedbench — the repository benchmark (see fedbench/README.md).
//
// One invocation runs one workload. It sets the workload up kSetupReps
// times (reporting the median set-up time), then runs a fixed number of
// timed FedCav rounds — a closed loop with one round in flight, driven
// by the server, so the concurrency is the sampled cohort — checks the
// outputs, and prints one JSON object as the last line of stdout.
//
//   fedbench --workload <name> --seed <n> --seconds <s> [--trace] [--out-dir <dir>]
//
// The timed round count is --seconds × the workload's nominal round rate,
// so every deterministic output (round CSV, final weights, bytes,
// accuracy) is a pure function of (seed, seconds) while a run lasts about
// --seconds on the reference host.
//
// Untraced runs report the end-to-end metrics and install nothing: the
// program runs exactly as a user would call it. --trace installs the
// decorators below through Server::set_transport / Server::set_strategy,
// enables telemetry in every other timed round, and reports the
// per-layer metrics from the spans (the program's own and the
// decorators'), RoundRecord phases, and the obs registry's counters; the
// untraced rounds in between give the tracing overhead.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/comm/compression.hpp"
#include "src/comm/message.hpp"
#include "src/comm/tcp_transport.hpp"
#include "src/fl/simulation.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/tensor/tensor.hpp"
#include "src/utils/cli.hpp"
#include "src/utils/logging.hpp"
#include "src/utils/threadpool.hpp"
#include "src/utils/timer.hpp"
#include "tools/federation_common.hpp"

namespace {

using namespace fedcav;

constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kWarmupRounds = 2;
/// At least 100 timed rounds, so ten samples lie beyond round_ms_p90.
constexpr std::size_t kMinTimedRounds = 100;
/// 3 pool workers + the calling thread = the 4 cores of the reference host.
constexpr std::size_t kPoolWorkers = 3;
constexpr std::size_t kFederationWorkers = 3;

struct Workload {
  const char* name;
  /// Timed rounds per second of --seconds: the nominal round rate of the
  /// workload on the reference host.
  double rounds_per_second;
  /// Test accuracy every seed reaches within the run (a correctness
  /// check); the round that first reaches it is reported as quality.
  double target_accuracy;
  bool federation;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    {"paper_cnn9", 4.0, 0.90, false},
    {"cohort_mlp_1k", 5.5, 0.40, false},
    {"cohort_mlp_1k_int8", 7.0, 0.20, false},
    {"federation_tcp", 50.0, 0.25, true},
};

// ---------------------------------------------------------------- helpers

double median(std::vector<double> v) {
  FEDCAV_REQUIRE(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolation percentile (q in [0, 1]) of the samples.
double percentile(std::vector<double> v, double q) {
  FEDCAV_REQUIRE(!v.empty(), "percentile of no samples");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  FEDCAV_REQUIRE(std::isfinite(v), "fedbench: non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double peak_rss_mib_self() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------- workload configs

std::vector<std::string> federation_flags(std::uint64_t seed) {
  return {"--clients", std::to_string(kFederationWorkers), "--dataset", "digits",
          "--model", "lenet5", "--strategy", "fedcav", "--seed", std::to_string(seed),
          "--sample-ratio", "1", "--local-epochs", "1", "--batch-size", "10",
          "--lr", "0.05", "--train-per-class", "60", "--test-per-class", "20",
          "--derived-seeds"};
}

/// The federation config exactly as fedcav_worker derives it from the
/// same flags (tools/federation_common.hpp), so both ends agree.
fl::SimulationConfig federation_config(std::uint64_t seed) {
  CliParser cli("fedbench", "federation_tcp rank 0");
  tools::add_federation_flags(cli);
  const std::vector<std::string> flags = federation_flags(seed);
  std::vector<const char*> argv = {"fedbench"};
  for (const std::string& f : flags) argv.push_back(f.c_str());
  FEDCAV_REQUIRE(cli.parse(static_cast<int>(argv.size()), argv.data()),
                 "fedbench: bad federation flags");
  return tools::federation_config(cli);
}

fl::SimulationConfig workload_config(const Workload& w, std::uint64_t seed) {
  if (w.federation) return federation_config(seed);
  const std::string name = w.name;
  fl::SimulationConfig c;
  c.seed = seed;
  c.strategy = "fedcav";
  c.server.seed = seed;
  c.server.rng_mode = RngMode::kDerived;
  if (name == "paper_cnn9") {
    // The paper's FMNIST protocol (§5.1): 100 clients, two classes each
    // with σ = 600 imbalance, q = 0.3, E = 5, B = 10, η = 0.05.
    c.dataset = "fashion";
    c.model = "cnn9";
    c.train_samples_per_class = 600;
    c.test_samples_per_class = 50;
    c.partition.scheme = data::PartitionScheme::kNonIidImbalanced;
    c.partition.num_clients = 100;
    c.partition.sigma = 600.0;
    c.server.sample_ratio = 0.3;
    c.server.local.epochs = 5;
    c.server.local.batch_size = 10;
    c.server.local.lr = 0.05f;
  } else {
    // cohort_mlp_1k[_int8]: a 1024-client full-participation round on a
    // tiny model, so per-participant protocol overhead dominates.
    c.dataset = "digits";
    c.model = "mlp";
    c.train_samples_per_class = 128;
    c.test_samples_per_class = 100;
    c.partition.scheme = data::PartitionScheme::kIidBalanced;
    c.partition.num_clients = 1024;
    c.server.sample_ratio = 1.0;
    c.server.local.epochs = 1;
    c.server.local.batch_size = 4;
    c.server.local.lr = 0.05f;
    c.server.shards = 4;
    if (name == "cohort_mlp_1k_int8") {
      c.server.quant = comm::QuantMode::kInt8;
      c.server.quant_keep = 0.25;
    }
  }
  return c;
}

const char* rng_mode_name(const fl::SimulationConfig& c) {
  return c.server.rng_mode == RngMode::kDerived ? "derived" : "legacy";
}

/// Canonical text of everything that shapes a workload's outputs; its
/// hash is the manifest's config_hash.
std::string describe(const fl::SimulationConfig& c, const Workload& w) {
  std::ostringstream s;
  s << "workload=" << w.name << " dataset=" << c.dataset << " model=" << c.model
    << " strategy=" << c.strategy << " train_per_class=" << c.train_samples_per_class
    << " test_per_class=" << c.test_samples_per_class
    << " partition=" << data::to_string(c.partition.scheme)
    << " clients=" << c.partition.num_clients << " sigma=" << c.partition.sigma
    << " q=" << c.server.sample_ratio << " E=" << c.server.local.epochs
    << " B=" << c.server.local.batch_size << " lr=" << c.server.local.lr
    << " use_network=" << c.server.use_network
    << " quant=" << comm::to_string(c.server.quant) << " keep=" << c.server.quant_keep
    << " shards=" << c.server.shards
    << " rng_mode=" << rng_mode_name(c)
    << " seed=" << c.seed << " transport=" << (w.federation ? "tcp" : "in-memory");
  return s.str();
}

// ------------------------------------------------------- traced decorators

/// Round number the decorators tag their spans with (set by the loop).
std::atomic<std::size_t> g_round{0};

constexpr std::uint64_t kNoSpan = ~std::uint64_t{0};

/// Start time of a decorator span, or kNoSpan while telemetry is off.
std::uint64_t span_start() {
  return obs::enabled() ? obs::Tracer::instance().now_ns() : kNoSpan;
}

/// Record the span begun at `start_ns`, tagged with the round. The name is
/// chosen at the end, so a call's outcome can pick it.
void span_end(const char* name, const char* cat, std::uint64_t start_ns) {
  if (start_ns == kNoSpan) return;
  obs::Tracer& tracer = obs::Tracer::instance();
  obs::TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = start_ns;
  ev.dur_ns = tracer.now_ns() - start_ns;
  ev.arg_key = "round";
  ev.arg_value = static_cast<double>(g_round.load(std::memory_order_relaxed));
  tracer.record(std::move(ev));
}

/// Spans around every Transport call the round protocol makes. A recv
/// that returns nothing is recorded as comm.recv_empty, so the hit ratio
/// falls out of the span counts.
class TracedTransport final : public comm::Transport {
 public:
  explicit TracedTransport(comm::Transport& inner) : inner_(inner) {}

  std::size_t num_endpoints() const override { return inner_.num_endpoints(); }
  void begin_round(std::size_t round) override { inner_.begin_round(round); }
  void send(std::size_t src, std::size_t dst, const comm::Envelope& env) override {
    const std::uint64_t t0 = span_start();
    inner_.send(src, dst, env);
    span_end("comm.send", "bench.comm", t0);
  }
  std::optional<ByteBuffer> try_recv_wire(std::size_t dst, std::size_t src) override {
    const std::uint64_t t0 = span_start();
    std::optional<ByteBuffer> wire = inner_.try_recv_wire(dst, src);
    span_end(wire ? "comm.recv" : "comm.recv_empty", "bench.comm", t0);
    return wire;
  }
  std::optional<ByteBuffer> try_recv_any_wire(std::size_t dst,
                                              std::size_t* src_out) override {
    const std::uint64_t t0 = span_start();
    std::optional<ByteBuffer> wire = inner_.try_recv_any_wire(dst, src_out);
    span_end(wire ? "comm.recv" : "comm.recv_empty", "bench.comm", t0);
    return wire;
  }
  void add_link_delay(std::size_t src, std::size_t dst, double seconds) override {
    inner_.add_link_delay(src, dst, seconds);
  }
  comm::TrafficStats stats(std::size_t endpoint) const override {
    return inner_.stats(endpoint);
  }
  comm::TrafficStats total_stats() const override { return inner_.total_stats(); }
  comm::FaultStats fault_stats() const override { return inner_.fault_stats(); }
  double model_transfer_seconds(std::size_t bytes) const override {
    return inner_.model_transfer_seconds(bytes);
  }
  std::size_t pending_messages() const override { return inner_.pending_messages(); }
  void publish_metrics() const override { inner_.publish_metrics(); }
  bool peer_closed(std::size_t rank) const override { return inner_.peer_closed(rank); }
  void poll(double timeout_s) override {
    const std::uint64_t t0 = span_start();
    inner_.poll(timeout_s);
    span_end("comm.poll", "bench.comm", t0);
  }

 private:
  comm::Transport& inner_;
};

/// Spans around the incremental aggregation calls; forwards everything,
/// including streaming_aggregation(), so the server takes the same path.
class TracedStrategy final : public fl::AggregationStrategy {
 public:
  explicit TracedStrategy(std::unique_ptr<fl::AggregationStrategy> inner)
      : inner_(std::move(inner)) {}

  nn::Weights aggregate(const nn::Weights& global,
                        const std::vector<fl::ClientUpdate>& updates) override {
    const std::uint64_t t0 = span_start();
    nn::Weights out = inner_->aggregate(global, updates);
    span_end("agg.aggregate", "bench.agg", t0);
    return out;
  }
  std::vector<double> aggregation_weights(
      const std::vector<fl::ClientUpdate>& updates) const override {
    return inner_->aggregation_weights(updates);
  }
  void apply_local_overrides(fl::LocalTrainConfig& config) const override {
    inner_->apply_local_overrides(config);
  }
  std::string name() const override { return inner_->name(); }
  void begin_aggregation(const nn::Weights& global,
                         const std::vector<fl::ClientUpdate>& metadata) override {
    const std::uint64_t t0 = span_start();
    inner_->begin_aggregation(global, metadata);
    span_end("agg.begin", "bench.agg", t0);
  }
  void accumulate(fl::ClientUpdate update) override {
    const std::uint64_t t0 = span_start();
    inner_->accumulate(std::move(update));
    span_end("agg.accumulate", "bench.agg", t0);
  }
  nn::Weights finish_aggregation() override {
    const std::uint64_t t0 = span_start();
    nn::Weights out = inner_->finish_aggregation();
    span_end("agg.finish", "bench.agg", t0);
    return out;
  }
  bool streaming_aggregation() const override { return inner_->streaming_aggregation(); }

 private:
  std::unique_ptr<fl::AggregationStrategy> inner_;
};

// ------------------------------------------------------ worker processes

/// fork+exec'd fedcav_worker processes. reap() waits for them (they exit
/// when rank 0 closes its connections); the destructor SIGKILLs and reaps
/// any still running, so no path out of fedbench leaves one behind.
class WorkerGroup {
 public:
  WorkerGroup() = default;
  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;
  ~WorkerGroup() {
    for (const pid_t pid : pids_) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  void spawn(const std::vector<std::string>& argv) {
    std::vector<char*> raw;
    for (const std::string& a : argv) raw.push_back(const_cast<char*>(a.c_str()));
    raw.push_back(nullptr);
    const pid_t pid = ::fork();
    FEDCAV_REQUIRE(pid >= 0, "fedbench: fork failed");
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive a killed fedbench
      ::dup2(STDERR_FILENO, STDOUT_FILENO);  // stdout carries only the result
      ::execv(raw[0], raw.data());
      std::perror("fedbench: execv fedcav_worker");
      ::_exit(127);
    }
    pids_.push_back(pid);
  }

  /// Wait up to `timeout_s` for every worker; SIGKILL the rest. Returns
  /// true when all exited with status 0. Folds their peak RSS into
  /// max_rss_mib().
  bool reap(double timeout_s) {
    bool ok = true;
    Stopwatch wall;
    while (!pids_.empty()) {
      for (std::size_t i = 0; i < pids_.size();) {
        int status = 0;
        rusage ru{};
        const pid_t got = ::wait4(pids_[i], &status, WNOHANG, &ru);
        if (got == 0) {
          ++i;
          continue;
        }
        if (got == pids_[i]) {
          max_rss_mib_ = std::max(max_rss_mib_, static_cast<double>(ru.ru_maxrss) / 1024.0);
          ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
        } else {
          ok = false;
        }
        pids_.erase(pids_.begin() + static_cast<std::ptrdiff_t>(i));
      }
      if (pids_.empty()) break;
      if (wall.seconds() > timeout_s) {
        for (const pid_t pid : pids_) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, nullptr, 0);
        }
        pids_.clear();
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return ok;
  }

  double max_rss_mib() const { return max_rss_mib_; }

 private:
  std::vector<pid_t> pids_;
  double max_rss_mib_ = 0.0;
};

/// First loopback port at or after 50000 + pid % 10000 that binds.
int pick_port(int offset) {
  const int base = 50000 + static_cast<int>(::getpid() % 10000) + offset;
  for (int port = base; port < base + 200; ++port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    FEDCAV_REQUIRE(fd >= 0, "fedbench: socket() failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const bool free = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    ::close(fd);
    if (free) return port;
  }
  throw Error("fedbench: no free loopback port");
}

// ------------------------------------------------------------------- rig

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

/// One set-up workload, ready for timed rounds.
struct Rig {
  std::unique_ptr<ThreadPool> pool;
  fl::Simulation sim;
  WorkerGroup workers;
  std::unique_ptr<comm::Transport> remote;  // federation: rank 0's endpoint
  std::unique_ptr<TracedTransport> traced;
  double build_s = 0.0;
  double connect_s = 0.0;
  double warmup_s = 0.0;

  fl::Server& server() { return *sim.server; }

  /// Close rank 0's connections — the workers' shutdown signal — and
  /// wait for them. Returns false if any worker failed or hung.
  bool close_federation() {
    traced.reset();
    remote.reset();
    return workers.reap(10.0);
  }
};

std::unique_ptr<Rig> set_up(const Options& opt, const fl::SimulationConfig& config,
                            std::size_t rep) {
  const Workload& w = *opt.workload;
  auto rig = std::make_unique<Rig>();
  Stopwatch build;
  rig->sim = fl::build_simulation(config);
  rig->build_s = build.seconds();

  Stopwatch connect;
  std::string address;
  const std::string token = "fedbench-" + std::to_string(opt.seed);
  if (w.federation) {
    // Spawned right before serve() binds: a worker needs longer than that
    // to exec and build its simulation, so its first connect finds the
    // listener instead of falling into the connect backoff (which would
    // make set-up time bimodal).
    address = "127.0.0.1:" + std::to_string(pick_port(static_cast<int>(rep)));
    for (std::size_t r = 1; r <= kFederationWorkers; ++r) {
      std::vector<std::string> argv = {FEDBENCH_WORKER_BIN, "--tcp", address,
                                       "--auth-token", token, "--rank",
                                       std::to_string(r)};
      const std::vector<std::string> flags = federation_flags(opt.seed);
      argv.insert(argv.end(), flags.begin(), flags.end());
      rig->workers.spawn(argv);
    }
  }
  // Rank 0 of the federation blocks in poll while its workers train; one
  // pool worker runs its evaluation, so at most 4 threads are runnable.
  rig->pool = std::make_unique<ThreadPool>(w.federation ? 1 : kPoolWorkers);
  fl::Server& server = rig->server();
  server.set_thread_pool(rig->pool.get());
  if (w.federation) {
    comm::StreamTransportConfig tcfg;
    tcfg.auth_token = token;
    tcfg.abort_on_reject = true;
    rig->remote = comm::TcpTransport::serve(address, kFederationWorkers, tcfg);
  }
  if (opt.trace) {
    server.set_strategy(
        std::make_unique<TracedStrategy>(fl::make_strategy(config.strategy)));
    comm::Transport* inner =
        rig->remote ? rig->remote.get() : static_cast<comm::Transport*>(server.network());
    FEDCAV_REQUIRE(inner != nullptr, "fedbench: workload has no fabric to trace");
    rig->traced = std::make_unique<TracedTransport>(*inner);
    server.set_transport(rig->traced.get(), w.federation);
  } else if (rig->remote) {
    server.set_transport(rig->remote.get(), /*remote=*/true);
  }
  rig->connect_s = connect.seconds();

  Stopwatch warmup;
  for (std::size_t r = 0; r < kWarmupRounds; ++r) server.run_round();
  rig->warmup_s = warmup.seconds();
  return rig;
}

// ------------------------------------------------------- trace harvesting

/// Decorator span totals over all traced rounds.
struct TraceTotals {
  double send_calls = 0.0, send_ns = 0.0;
  double recv_calls = 0.0, recv_hits = 0.0, recv_ns = 0.0;
  double poll_ns = 0.0;
  double agg_begin_ns = 0.0, agg_finish_ns = 0.0;
  double accumulate_calls = 0.0, accumulate_ns = 0.0;
};

/// Self time of every event: its duration minus what its direct
/// children on the same thread cover.
std::vector<double> self_times(const std::vector<obs::TraceEvent>& events) {
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const obs::TraceEvent& x = events[a];
    const obs::TraceEvent& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
    return x.dur_ns > y.dur_ns;  // the enclosing span first
  });
  std::vector<double> child(events.size(), 0.0);
  std::vector<std::size_t> stack;
  for (const std::size_t i : order) {
    const obs::TraceEvent& e = events[i];
    while (!stack.empty()) {
      const obs::TraceEvent& top = events[stack.back()];
      if (top.tid == e.tid && top.ts_ns + top.dur_ns > e.ts_ns) break;
      stack.pop_back();
    }
    if (!stack.empty()) child[stack.back()] += static_cast<double>(e.dur_ns);
    stack.push_back(i);
  }
  std::vector<double> self(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    self[i] = std::max(0.0, static_cast<double>(events[i].dur_ns) - child[i]);
  }
  return self;
}

/// Per-layer-index self time (label "<i>:<Layer>" → ns), summed over
/// the traced rounds; reported in the result's "layers" detail.
struct LayerTotals {
  std::map<std::string, double> fwd_ns, bwd_ns;
};

/// Fold one traced round's spans into the totals; returns the round's
/// layer self time (every nn.forward/nn.backward span, all threads).
double harvest(const std::vector<obs::TraceEvent>& events, TraceTotals& t,
               LayerTotals& layers) {
  const std::vector<double> self = self_times(events);
  double layer_ns = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    const std::string cat = e.cat;
    const double dur = static_cast<double>(e.dur_ns);
    if (cat == "nn.forward") {
      layer_ns += self[i];
      layers.fwd_ns[e.name] += self[i];
    } else if (cat == "nn.backward") {
      layer_ns += self[i];
      layers.bwd_ns[e.name] += self[i];
    } else if (cat == "bench.comm") {
      if (e.name == "comm.send") {
        t.send_calls += 1;
        t.send_ns += dur;
      } else if (e.name == "comm.poll") {
        t.poll_ns += dur;
      } else {
        t.recv_calls += 1;
        t.recv_ns += dur;
        if (e.name == "comm.recv") t.recv_hits += 1;
      }
    } else if (cat == "bench.agg") {
      if (e.name == "agg.begin") t.agg_begin_ns += dur;
      if (e.name == "agg.finish") t.agg_finish_ns += dur;
      if (e.name == "agg.accumulate") {
        t.accumulate_calls += 1;
        t.accumulate_ns += dur;
      }
    }
  }
  return layer_ns;
}

/// Median per-call microseconds of `fn` over `calls` calls (telemetry
/// off, so no span cost is included).
template <typename Fn>
double time_calls(std::size_t calls, Fn&& fn) {
  for (std::size_t i = 0; i < 3; ++i) fn();  // warm caches and workspaces
  std::vector<double> us;
  us.reserve(calls);
  for (std::size_t i = 0; i < calls; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  return median(us);
}

/// Standalone calls into single layers at the workload's sizes: one
/// train step of its model and batch, and the wire codecs on a
/// model-sized vector.
std::map<std::string, double> layer_calls(const fl::SimulationConfig& config,
                                          const fl::Simulation& sim) {
  std::map<std::string, double> m;
  Rng rng(config.seed ^ 0xfedbe7c4ULL);
  std::unique_ptr<nn::Model> model = nn::model_builder(config.model)(rng);
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < config.server.local.batch_size; ++i) {
    idx.push_back(i % sim.train.size());
  }
  std::vector<std::size_t> labels;
  const Tensor batch = sim.train.make_batch(idx, &labels);
  const auto step = [&] {
    model->forward_backward(batch, labels);
    model->zero_grad();
  };
  m["nn.fwdbwd_us"] = time_calls(200, step);
  // The same step's forward/backward split, from the "nn" spans
  // Model::forward_backward emits while telemetry is on.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  obs::set_enabled(true);
  for (std::size_t i = 0; i < 200; ++i) step();
  obs::set_enabled(false);
  std::vector<double> fwd_us, bwd_us;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (std::string(e.cat) != "nn") continue;
    if (e.name == "forward") fwd_us.push_back(static_cast<double>(e.dur_ns) * 1e-3);
    if (e.name == "backward") bwd_us.push_back(static_cast<double>(e.dur_ns) * 1e-3);
  }
  tracer.clear();
  m["nn.forward_us"] = median(fwd_us);
  m["nn.backward_us"] = median(bwd_us);

  const nn::Weights weights = model->get_weights();
  comm::GlobalModelMsg msg;
  msg.weights = weights;
  comm::Envelope env{comm::MessageType::kGlobalModel, {}};
  ByteBuffer wire;
  m["comm.envelope_encode_us"] = time_calls(200, [&] {
    env.payload = msg.encode();
    wire = env.encode();
  });
  m["comm.envelope_decode_us"] = time_calls(200, [&] {
    const std::optional<comm::Envelope> got = comm::Envelope::try_decode(wire);
    FEDCAV_REQUIRE(got.has_value(), "fedbench: envelope round trip failed");
    ByteReader reader(got->payload);
    FEDCAV_REQUIRE(comm::GlobalModelMsg::decode(reader).weights.size() == weights.size(),
                   "fedbench: envelope round trip lost weights");
  });

  std::vector<float> delta(weights.size());
  for (float& v : delta) v = static_cast<float>(rng.normal()) * 0.01f;
  comm::QuantizedDelta q;
  m["comm.quantize_us"] =
      time_calls(200, [&] { q = comm::quantize(delta, comm::QuantMode::kInt8, 0.25); });
  std::vector<float> y(weights.size(), 0.0f);
  m["comm.dequantize_add_us"] = time_calls(200, [&] { comm::dequantize_add(y, q); });
  return m;
}

// ----------------------------------------------------------------- checks

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

/// Dense-protocol bytes of one full participation (downlink model,
/// metadata uplink, full report), sized with the real encoders.
double dense_bytes_per_participant(std::size_t params) {
  comm::GlobalModelMsg down;
  down.weights.assign(params, 0.0f);
  comm::ClientReportMsg up;
  up.weights.assign(params, 0.0f);
  const comm::MetadataMsg meta;
  return static_cast<double>(
      comm::Envelope{comm::MessageType::kGlobalModel, down.encode()}.wire_size() +
      comm::Envelope{comm::MessageType::kMetadataReport, meta.encode()}.wire_size() +
      comm::Envelope{comm::MessageType::kClientReport, up.encode()}.wire_size());
}

std::string timing_free_csv(const fl::Server& server) {
  std::ostringstream csv;
  server.history().write_csv(csv, /*include_timings=*/false);
  return csv.str();
}

std::uint64_t digest(const std::string& csv, const nn::Weights& w) {
  return fnv1a(fnv1a(kFnvBasis, csv.data(), csv.size()), w.data(), w.size() * sizeof(float));
}

// ------------------------------------------------------------------ main

int run(const Options& opt) {
  const Workload& w = *opt.workload;
  double load1 = -1.0;
  ::getloadavg(&load1, 1);
  const fl::SimulationConfig config = workload_config(w, opt.seed);
  const std::string config_text = describe(config, w);

  std::vector<double> setup_s, build_s, connect_s, warmup_s;
  std::unique_ptr<Rig> rig;
  bool workers_ok = true;
  double worker_rss_mib = 0.0;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    if (rig && w.federation) {
      workers_ok = rig->close_federation() && workers_ok;
      worker_rss_mib = std::max(worker_rss_mib, rig->workers.max_rss_mib());
    }
    rig.reset();
    Stopwatch t;
    rig = set_up(opt, config, rep);
    setup_s.push_back(t.seconds());
    build_s.push_back(rig->build_s);
    connect_s.push_back(rig->connect_s);
    warmup_s.push_back(rig->warmup_s);
  }
  fl::Server& server = rig->server();

  const std::size_t timed_rounds = std::max<std::size_t>(
      kMinTimedRounds, static_cast<std::size_t>(std::llround(opt.seconds * w.rounds_per_second)));
  Stopwatch timed_wall;
  std::vector<double> round_ms, traced_ms, untraced_ms;
  std::vector<metrics::RoundRecord> records;
  TraceTotals spans;
  LayerTotals layers;
  std::vector<double> layer_ms;  // per traced round
  Tensor::reset_alloc_stats();
  obs::registry().reset();
  obs::Tracer::instance().clear();
  bool trace_written = false;
  for (std::size_t i = 0; i < timed_rounds; ++i) {
    const bool traced = opt.trace && i % 2 == 0;
    g_round.store(server.current_round() + 1);
    obs::set_enabled(traced);
    const auto t0 = std::chrono::steady_clock::now();
    metrics::RoundRecord rec = server.run_round();
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    obs::set_enabled(false);
    round_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    records.push_back(rec);
    if (traced) {
      obs::Tracer& tracer = obs::Tracer::instance();
      if (!trace_written && !opt.out_dir.empty()) {
        tracer.write_chrome_trace_file(opt.out_dir + "/" + w.name + "-seed" +
                                       std::to_string(opt.seed) + ".trace.json");
        trace_written = true;
      }
      layer_ms.push_back(harvest(tracer.events(), spans, layers) * 1e-6);
      tracer.clear();
    }
  }
  const double timed_s = timed_wall.seconds();
  Stopwatch check_wall;
  const double tensor_peak_mib =
      static_cast<double>(Tensor::alloc_stats().peak_live_bytes) / (1024.0 * 1024.0);
  double peak_rss_mib = peak_rss_mib_self();
  const std::size_t replicas =
      server.replica_pool() != nullptr ? server.replica_pool()->created() : 0;

  // ---- correctness
  std::vector<Check> checks;
  std::uint64_t attempted = 0, failed = 0;
  bool accounting_ok = true;
  double bytes_sum = 0.0;
  for (const metrics::RoundRecord& r : records) {
    accounting_ok = accounting_ok &&
                    r.sampled == r.participants + r.dropouts + r.straggler_drops;
    attempted += r.sampled;
    failed += r.skipped ? r.sampled : r.dropouts + r.straggler_drops + r.upload_failures;
    bytes_sum += static_cast<double>(r.bytes_up + r.bytes_down);
  }
  checks.push_back({"round_accounting", accounting_ok,
                    "sampled == participants + dropouts + straggler_drops every round"});
  checks.push_back({"no_failures", failed == 0,
                    std::to_string(failed) + " of " + std::to_string(attempted) +
                        " participations failed"});

  const double rounds = static_cast<double>(records.size());
  const double bytes_per_round = bytes_sum / rounds;
  const double dense_bytes = dense_bytes_per_participant(server.global_weights().size()) *
                             static_cast<double>(attempted) / rounds;
  if (config.server.quant == comm::QuantMode::kNone) {
    checks.push_back({"dense_bytes_exact", bytes_per_round == dense_bytes,
                      "metered " + json_num(bytes_per_round) + " B/round, dense protocol " +
                          json_num(dense_bytes)});
  } else {
    checks.push_back({"quantized_bytes_5x", dense_bytes >= 5.0 * bytes_per_round,
                      "dense protocol " + json_num(dense_bytes) + " B/round vs metered " +
                          json_num(bytes_per_round)});
  }

  const std::optional<std::size_t> target_round =
      server.history().rounds_to_accuracy(w.target_accuracy);
  checks.push_back({"reaches_target", target_round.has_value(),
                    "test accuracy >= " + json_num(w.target_accuracy)});

  const std::string csv = timing_free_csv(server);
  const nn::Weights final_weights = server.global_weights();
  const std::uint64_t run_digest = digest(csv, final_weights);

  if (w.federation) {
    const bool closed_ok = rig->close_federation();
    worker_rss_mib = std::max(worker_rss_mib, rig->workers.max_rss_mib());
    peak_rss_mib = std::max(peak_rss_mib, worker_rss_mib);
    checks.push_back({"workers_exit_clean", workers_ok && closed_ok,
                      "every fedcav_worker exited 0 after rank 0 closed"});
    // Untimed in-process replay of the same config: the real-socket run
    // must be byte-identical to it.
    fl::Simulation replay = fl::build_simulation(config);
    ThreadPool replay_pool(kPoolWorkers);
    replay.server->set_thread_pool(&replay_pool);
    replay.server->run(server.current_round());
    const nn::Weights& replay_weights = replay.server->global_weights();
    const bool same = timing_free_csv(*replay.server) == csv &&
                      replay_weights.size() == final_weights.size() &&
                      std::memcmp(replay_weights.data(), final_weights.data(),
                                  final_weights.size() * sizeof(float)) == 0;
    checks.push_back({"in_process_replay_identical", same,
                      "timing-free CSV + final weights vs the in-process run"});
  }

  bool correct = true;
  for (const Check& c : checks) {
    correct = correct && c.ok;
    if (!c.ok) std::fprintf(stderr, "fedbench: CHECK FAILED %s: %s\n", c.name.c_str(),
                            c.detail.c_str());
  }
  std::fprintf(stderr,
               "fedbench: %s seed %llu: set-up %.3f s (median of %zu), %zu timed rounds "
               "in %.2f s, checks %.2f s, digest %s\n",
               w.name, static_cast<unsigned long long>(opt.seed), median(setup_s), kSetupReps,
               timed_rounds, timed_s, check_wall.seconds(), hex64(run_digest).c_str());

  if (!opt.out_dir.empty()) {
    std::ofstream out(opt.out_dir + "/" + w.name + "-seed" + std::to_string(opt.seed) +
                      (opt.trace ? ".trace" : "") + ".csv");
    server.history().write_csv(out, /*include_timings=*/true);
  }

  // ---- metrics
  std::vector<std::pair<std::string, double>> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", median(setup_s)},
        {"round_ms_p50", median(round_ms)},
        {"round_ms_p90", percentile(round_ms, 0.9)},
        {"bytes_per_round", bytes_per_round},
        {"peak_rss_mib", peak_rss_mib},
    };
  } else {
    // Traced rounds are the even ones.
    const double n = static_cast<double>(layer_ms.size());
    std::vector<double> ph[8];
    double wall_ms_sum = 0.0, up = 0.0, down = 0.0;
    for (std::size_t i = 0; i < records.size(); i += 2) {
      const metrics::RoundPhases& p = records[i].phases;
      const double vals[] = {p.sample, p.broadcast, p.metadata, p.local_update, p.detect,
                             p.aggregate, p.eval,
                             records[i].wall_seconds - p.sum()};
      for (std::size_t k = 0; k < 8; ++k) ph[k].push_back(vals[k] * 1e3);
      wall_ms_sum += records[i].wall_seconds * 1e3;
      up += static_cast<double>(records[i].bytes_up);
      down += static_cast<double>(records[i].bytes_down);
    }
    // Counters first: the standalone calls below bump gemm.* too.
    obs::Registry& reg = obs::registry();
    const double busy_ns = static_cast<double>(reg.counter("pool.busy_ns").value());
    const double pool_tasks = static_cast<double>(reg.counter("pool.tasks_completed").value());
    const double gemm_calls = static_cast<double>(reg.counter("gemm.calls").value());
    const double gemm_flops = static_cast<double>(reg.counter("gemm.flops").value());
    const auto per_call = [](double ns, double calls) {
      return calls > 0 ? ns * 1e-3 / calls : 0.0;
    };
    const std::map<std::string, double> calls = layer_calls(config, rig->sim);
    metrics = {
        {"fl.sample_ms", median(ph[0])},
        {"fl.broadcast_ms", median(ph[1])},
        {"fl.metadata_ms", median(ph[2])},
        {"fl.local_update_ms", median(ph[3])},
        {"fl.detect_ms", median(ph[4])},
        {"fl.aggregate_ms", median(ph[5])},
        {"fl.eval_ms", median(ph[6])},
        {"fl.unattributed_ms", median(ph[7])},
        {"nn.fwdbwd_us", calls.at("nn.fwdbwd_us")},
        {"nn.forward_us", calls.at("nn.forward_us")},
        {"nn.backward_us", calls.at("nn.backward_us")},
        {"nn.layer_busy_ms", median(layer_ms)},
        {"tensor.gemm_calls", gemm_calls / n},
        {"tensor.gemm_gflop", gemm_flops * 1e-9 / n},
        {"comm.send_calls", spans.send_calls / n},
        {"comm.send_us", per_call(spans.send_ns, spans.send_calls)},
        {"comm.recv_calls", spans.recv_calls / n},
        {"comm.recv_us", per_call(spans.recv_ns, spans.recv_calls)},
        {"comm.recv_hit_frac", spans.recv_calls > 0 ? spans.recv_hits / spans.recv_calls : 0.0},
        {"comm.poll_wait_frac", spans.poll_ns * 1e-6 / wall_ms_sum},
        {"comm.bytes_up", up / n},
        {"comm.bytes_down", down / n},
        {"comm.envelope_encode_us", calls.at("comm.envelope_encode_us")},
        {"comm.envelope_decode_us", calls.at("comm.envelope_decode_us")},
        {"comm.quantize_us", calls.at("comm.quantize_us")},
        {"comm.dequantize_add_us", calls.at("comm.dequantize_add_us")},
        {"agg.begin_us", spans.agg_begin_ns * 1e-3 / n},
        {"agg.accumulate_calls", spans.accumulate_calls / n},
        {"agg.accumulate_us", per_call(spans.accumulate_ns, spans.accumulate_calls)},
        {"agg.finish_us", spans.agg_finish_ns * 1e-3 / n},
        {"pool.busy_frac",
         busy_ns * 1e-6 / (wall_ms_sum * static_cast<double>(rig->pool->size()))},
        {"pool.tasks", pool_tasks / n},
        {"nn.replicas_created", static_cast<double>(replicas)},
        {"nn.peak_tensor_mib", tensor_peak_mib},
        {"setup.build_s", median(build_s)},
        {"setup.connect_s", median(connect_s)},
        {"setup.warmup_s", median(warmup_s)},
        {"trace.overhead_frac", median(traced_ms) / median(untraced_ms) - 1.0},
    };
  }

  // ---- result: one JSON object, the last line of stdout
  std::ostringstream js;
  js << "{\"workload\": " << json_str(w.name) << ", \"seed\": " << opt.seed
     << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"digest\": " << json_str(hex64(run_digest))
     << ", \"quality\": {\"final_accuracy\": " << json_num(records.back().test_accuracy)
     << ", \"target_accuracy\": " << json_num(w.target_accuracy) << ", \"rounds_to_target\": "
     << (target_round ? std::to_string(*target_round) : std::string("null")) << "}"
     << ", \"timed_rounds\": " << timed_rounds << ", \"warmup_rounds\": " << kWarmupRounds
     << ", \"setup_s_reps\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    js << (i ? ", " : "") << json_num(setup_s[i]);
  }
  js << "]";
  js << ", \"manifest\": {\"config\": " << json_str(config_text)
     << ", \"config_hash\": "
     << json_str(hex64(fnv1a(kFnvBasis, config_text.data(), config_text.size())))
     << ", \"rng_mode\": " << json_str(rng_mode_name(config))
     << ", \"quant\": " << json_str(comm::to_string(config.server.quant))
     << ", \"shards\": " << config.server.shards << ", \"threads\": " << rig->pool->size() + 1
     << ", \"processes\": " << (w.federation ? 1 + kFederationWorkers : 1)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": " << json_str(FEDBENCH_BUILD_TYPE)
     << ", \"cxx_flags\": " << json_str(FEDBENCH_CXX_FLAGS)
     << ", \"compile_definitions\": " << json_str(FEDBENCH_COMPILE_DEFS)
     << ", \"loadavg_1m_at_start\": " << json_num(load1) << "}";
  js << ", \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    js << (i ? ", " : "") << "{\"name\": " << json_str(checks[i].name)
       << ", \"ok\": " << (checks[i].ok ? "true" : "false")
       << ", \"detail\": " << json_str(checks[i].detail) << "}";
  }
  // Values only: units, directions and bounds live in BENCHMARK.json,
  // which run.py checks these names against.
  js << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << json_str(metrics[i].first) << ": " << json_num(metrics[i].second);
  }
  js << "}";
  if (opt.trace) {
    // Per-layer-index self time of the workload's model, per traced round.
    js << ", \"layers\": {";
    bool first = true;
    for (const auto* table : {&layers.fwd_ns, &layers.bwd_ns}) {
      const char* dir = table == &layers.fwd_ns ? "fwd" : "bwd";
      for (const auto& [label, ns] : *table) {
        // "3:Conv2D(6->16, k=5, ...)" → "3_Conv2D"
        std::string key = label.substr(0, label.find('('));
        std::replace(key.begin(), key.end(), ':', '_');
        js << (first ? "" : ", ")
           << json_str("nn." + config.model + "." + key + "." + dir + "_us") << ": "
           << json_num(ns * 1e-3 / static_cast<double>(layer_ms.size()));
        first = false;
      }
    }
    js << "}";
  }
  js << "}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedcav;
  set_log_level(LogLevel::kWarn);
  try {
    CliParser cli("fedbench", "FedCav repository benchmark: one workload per run");
    cli.add_string("workload", "", "paper_cnn9 | cohort_mlp_1k | cohort_mlp_1k_int8 | federation_tcp");
    cli.add_int("seed", 1, "workload seed (data, partition, model init, sampling)");
    cli.add_double("seconds", 10.0, "nominal measuring time; sets the timed round count");
    cli.add_flag("trace", "per-layer run: telemetry in every other timed round");
    cli.add_string("out-dir", "", "write the round CSV (and, traced, a chrome trace) here");
    if (!cli.parse(argc, argv)) return 0;
    Options opt;
    for (const Workload& w : kWorkloads) {
      if (cli.get_string("workload") == w.name) opt.workload = &w;
    }
    if (opt.workload == nullptr) {
      std::fprintf(stderr, "fedbench: unknown --workload '%s'\n",
                   cli.get_string("workload").c_str());
      return 2;
    }
    FEDCAV_REQUIRE(cli.get_int("seed") >= 0, "fedbench: --seed must be >= 0");
    FEDCAV_REQUIRE(cli.get_double("seconds") > 0.0, "fedbench: --seconds must be > 0");
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    opt.seconds = cli.get_double("seconds");
    opt.trace = cli.get_flag("trace");
    opt.out_dir = cli.get_string("out-dir");
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fedbench: %s\n", e.what());
    return 1;
  }
}
