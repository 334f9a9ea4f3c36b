// Multi-process integration tests for the daemon/worker split
// (DESIGN.md §14): fork+exec the real fedcav_daemon / fedcav_worker
// binaries over a Unix socket in a temp dir and assert against the
// in-process simulation.
//
//   * BitIdenticalToInProcessRun — the acceptance gate of PR 8: one
//     daemon + N workers must produce byte-identical final weights and
//     round CSV (timings excluded) vs the single-process run with the
//     same seed.
//   * KilledWorkerBecomesDropout / ...UploadFailure — satellite 3: a
//     worker that vanishes mid-protocol books into RoundRecord's
//     dropout / upload-failure counters instead of hanging the daemon.
//
// Every child is watched by a kill-after-deadline reaper so a protocol
// hang fails the test instead of wedging ctest.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/fl/simulation.hpp"
#include "src/metrics/history.hpp"
#include "src/utils/cli.hpp"
#include "tools/federation_common.hpp"

#ifndef FEDCAV_TOOL_BIN_DIR
#error "FEDCAV_TOOL_BIN_DIR must point at the built tools directory"
#endif

namespace fedcav {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Spawn `argv` (NULL-terminated convention handled here). Returns pid.
pid_t spawn(const std::vector<std::string>& argv) {
  std::vector<char*> raw;
  raw.reserve(argv.size() + 1);
  for (const std::string& arg : argv) raw.push_back(const_cast<char*>(arg.c_str()));
  raw.push_back(nullptr);
  const pid_t pid = ::fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    ::execv(raw[0], raw.data());
    std::perror("execv");
    ::_exit(127);
  }
  return pid;
}

/// Wait for every pid, SIGKILLing stragglers after `deadline_s`.
/// Returns the children's exit codes (-1 = killed / abnormal).
std::vector<int> reap_all(std::vector<pid_t> pids, double deadline_s) {
  std::vector<int> codes(pids.size(), -1);
  const int ticks = static_cast<int>(deadline_s * 20.0);
  for (int tick = 0; tick < ticks; ++tick) {
    bool all_done = true;
    for (std::size_t i = 0; i < pids.size(); ++i) {
      if (pids[i] == 0) continue;
      int status = 0;
      const pid_t got = ::waitpid(pids[i], &status, WNOHANG);
      if (got == pids[i]) {
        codes[i] = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        pids[i] = 0;
      } else if (got == 0) {
        all_done = false;
      } else {
        pids[i] = 0;  // ECHILD etc — treat as abnormal
      }
    }
    if (all_done) return codes;
    ::usleep(50000);
  }
  for (std::size_t i = 0; i < pids.size(); ++i) {
    if (pids[i] != 0) {
      ::kill(pids[i], SIGKILL);
      ::waitpid(pids[i], nullptr, 0);
      ADD_FAILURE() << "child " << i << " hung past " << deadline_s
                    << "s and was SIGKILLed";
    }
  }
  return codes;
}

struct FederationRun {
  std::string dir;
  std::string csv;
  std::string weights;
  std::vector<int> exit_codes;  // [0] = daemon, [1..] = workers
};

struct FederationOptions {
  /// Flags appended to the daemon AND every worker (config knobs like
  /// --straggler / --quant must agree on both sides).
  std::vector<std::string> common;
  /// Per-worker extra flags (failure injection, token mismatch — a
  /// repeated flag's last occurrence wins in CliParser).
  std::vector<std::vector<std::string>> worker_extra;
  /// Run over TCP loopback instead of a Unix socket. `tcp_slot` keeps
  /// the TCP tests within this binary off each other's PID-derived port.
  bool tcp = false;
  int tcp_slot = 0;
};

/// Launch 1 daemon + `clients` workers over a socket (or TCP loopback)
/// in a fresh temp dir.
FederationRun run_federation(std::size_t clients, std::size_t rounds,
                             const FederationOptions& opts = {}) {
  char tmpl[] = "/tmp/fedcavXXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  FederationRun run;
  run.dir = dir;
  run.csv = run.dir + "/history.csv";
  run.weights = run.dir + "/final.bin";
  const std::string bin = FEDCAV_TOOL_BIN_DIR;
  const std::string clients_s = std::to_string(clients);

  // Endpoint flags: a socket path inside the temp dir, or a PID-derived
  // loopback port (parallel ctest binaries must not collide; 41000+ is
  // clear of test_transport's 21000+ range).
  std::vector<std::string> endpoint;
  if (opts.tcp) {
    const int port =
        41000 + static_cast<int>(::getpid() % 19000) + opts.tcp_slot;
    endpoint = {"--tcp", "127.0.0.1:" + std::to_string(port)};
  } else {
    endpoint = {"--socket", run.dir + "/fed.sock"};
  }

  std::vector<pid_t> pids;
  std::vector<std::string> daemon_argv = {
      bin + "/fedcav_daemon", endpoint[0], endpoint[1], "--clients", clients_s,
      "--rounds", std::to_string(rounds), "--csv", run.csv,
      "--weights", run.weights};
  daemon_argv.insert(daemon_argv.end(), opts.common.begin(), opts.common.end());
  pids.push_back(spawn(daemon_argv));
  for (std::size_t w = 0; w < clients; ++w) {
    std::vector<std::string> argv = {bin + "/fedcav_worker", endpoint[0],
                                     endpoint[1], "--clients", clients_s,
                                     "--rank", std::to_string(w + 1)};
    argv.insert(argv.end(), opts.common.begin(), opts.common.end());
    if (w < opts.worker_extra.size()) {
      argv.insert(argv.end(), opts.worker_extra[w].begin(),
                  opts.worker_extra[w].end());
    }
    pids.push_back(spawn(argv));
  }
  run.exit_codes = reap_all(std::move(pids), /*deadline_s=*/120.0);
  return run;
}

/// The in-process equivalent of the tools' federation flags: parse
/// `flags` through the same CliParser/flag set the daemon and workers
/// use, so config drift between the two paths is structurally
/// impossible.
fl::SimulationConfig federation_config_from(
    const std::vector<std::string>& flags) {
  CliParser cli("test_daemon", "in-process reference run");
  tools::add_federation_flags(cli);
  std::vector<const char*> argv = {"test_daemon"};
  for (const std::string& f : flags) argv.push_back(f.c_str());
  EXPECT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  return tools::federation_config(cli);
}

TEST(Daemon, BitIdenticalToInProcessRun) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRounds = 3;
  // The dense wire, and the quantized one: int8 downlink plus an int8
  // top-k(0.25) uplink delta with error feedback on both ends.
  const std::vector<std::vector<std::string>> wires = {
      {}, {"--quant", "int8", "--quant-keep", "0.25"}};
  for (const std::vector<std::string>& wire : wires) {
    const std::string label = wire.empty() ? "dense" : "int8";
    FederationOptions opts;
    opts.common = wire;
    const FederationRun run = run_federation(kClients, kRounds, opts);
    for (std::size_t i = 0; i < run.exit_codes.size(); ++i) {
      EXPECT_EQ(run.exit_codes[i], 0)
          << label << ": " << (i == 0 ? "daemon" : "worker") << " #" << i;
    }

    // Reference: same config, same seed, in-process fabric.
    fl::Simulation sim = fl::build_simulation(federation_config_from(wire));
    sim.server->run(kRounds);
    std::ostringstream ref_csv;
    sim.server->history().write_csv(ref_csv, /*include_timings=*/false);
    const std::string ref_weights_path = run.dir + "/ref.bin";
    tools::write_weights_file(ref_weights_path, sim.server->global_weights());

    EXPECT_EQ(read_file(run.csv), ref_csv.str())
        << label << ": multi-process round history diverged from the in-process run";
    const std::string remote_weights = read_file(run.weights);
    // write_f32_span = u64 element count + 4 bytes per float.
    EXPECT_EQ(remote_weights.size(), 8 + sim.server->global_weights().size() * 4) << label;
    EXPECT_EQ(remote_weights, read_file(ref_weights_path))
        << label << ": final global weights are not bit-identical";
  }
}

/// Parse `csv` back into RoundRecord-shaped tuples via the header row.
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> cells;
    std::istringstream cols(line);
    std::string cell;
    while (std::getline(cols, cell, ',')) cells.push_back(cell);
    rows.push_back(std::move(cells));
  }
  return rows;
}

std::size_t column_index(const std::vector<std::string>& header,
                         const std::string& name) {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  ADD_FAILURE() << "no CSV column named " << name;
  return 0;
}

TEST(Daemon, KilledWorkerBecomesDropoutNotHang) {
  // Worker 1 exits the instant it sees round 2's downlink: no metadata
  // ever arrives, the daemon must observe the EOF and book a phase-①
  // dropout — within the watchdog deadline, i.e. without waiting out
  // the 30 s receive timeout per remaining round.
  FederationOptions opts;
  opts.worker_extra = {{"--exit-before-round", "2"}};
  const FederationRun run = run_federation(2, 3, opts);
  EXPECT_EQ(run.exit_codes[0], 0) << "daemon";

  const auto rows = parse_csv(read_file(run.csv));
  ASSERT_EQ(rows.size(), 4u);  // header + 3 rounds
  const std::size_t dropouts = column_index(rows[0], "dropouts");
  const std::size_t participants = column_index(rows[0], "participants");
  EXPECT_EQ(rows[1][dropouts], "0");
  EXPECT_EQ(rows[2][dropouts], "1");  // the killed worker
  EXPECT_EQ(rows[3][dropouts], "1");  // still gone in round 3
  EXPECT_EQ(rows[2][participants], "1");
}

TEST(Daemon, KilledWorkerMidUplinkBecomesUploadFailure) {
  // Worker 1 uplinks round 2's metadata and then dies before the
  // report: phase ① succeeds, phase ② must book an upload failure.
  FederationOptions opts;
  opts.worker_extra = {{"--exit-after-metadata", "2"}};
  const FederationRun run = run_federation(2, 2, opts);
  EXPECT_EQ(run.exit_codes[0], 0) << "daemon";

  const auto rows = parse_csv(read_file(run.csv));
  ASSERT_EQ(rows.size(), 3u);  // header + 2 rounds
  const std::size_t uploads = column_index(rows[0], "upload_failures");
  const std::size_t dropouts = column_index(rows[0], "dropouts");
  EXPECT_EQ(rows[1][uploads], "0");
  EXPECT_EQ(rows[2][uploads], "1");
  EXPECT_EQ(rows[2][dropouts], "0");  // phase ① completed normally
}

TEST(Daemon, TcpFederationBitIdenticalToInProcessRun) {
  // The PR 8 acceptance gate, re-run over authenticated TCP loopback:
  // the backend swap must not move a single byte of CSV or weights.
  constexpr std::size_t kClients = 2;
  constexpr std::size_t kRounds = 2;
  FederationOptions opts;
  opts.tcp = true;
  opts.tcp_slot = 0;
  opts.common = {"--auth-token", "pr11-tcp"};
  const FederationRun run = run_federation(kClients, kRounds, opts);
  for (std::size_t i = 0; i < run.exit_codes.size(); ++i) {
    EXPECT_EQ(run.exit_codes[i], 0) << (i == 0 ? "daemon" : "worker") << " #" << i;
  }

  fl::Simulation sim = fl::build_simulation(
      federation_config_from({"--clients", std::to_string(kClients)}));
  sim.server->run(kRounds);
  std::ostringstream ref_csv;
  sim.server->history().write_csv(ref_csv, /*include_timings=*/false);
  const std::string ref_weights_path = run.dir + "/ref.bin";
  tools::write_weights_file(ref_weights_path, sim.server->global_weights());

  EXPECT_EQ(read_file(run.csv), ref_csv.str())
      << "TCP round history diverged from the in-process run";
  EXPECT_EQ(read_file(run.weights), read_file(ref_weights_path))
      << "TCP final weights are not bit-identical";
}

TEST(Daemon, DerivedSeedsSampledStragglerParityAcrossProcessLayouts) {
  // THE regression pin of per-round derived seeds (DESIGN.md §16). Under
  // long-lived RNG streams this exact config — client sampling plus
  // straggler drops — diverged across process layouts, because remote
  // workers trained on every downlink (advancing their streams) while
  // in-process straggler-dropped clients never trained. Every consumer
  // now reseeds per round from (seed, round, id, stream), so the
  // in-process run, the Unix-socket federation, and the TCP federation
  // must produce byte-identical CSV history and final weights — on the
  // dense wire and on the int8 top-k wire, whose error-feedback
  // residuals must also skip straggled rounds on both sides.
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRounds = 3;
  const std::vector<std::vector<std::string>> wires = {
      {}, {"--quant", "int8", "--quant-keep", "0.25"}};
  int tcp_slot = 1;
  for (const std::vector<std::string>& wire : wires) {
    const std::string label = wire.empty() ? "dense" : "int8";
    std::vector<std::string> knobs = {"--straggler", "0.25", "--sample-ratio", "0.5"};
    knobs.insert(knobs.end(), wire.begin(), wire.end());

    std::vector<std::string> ref_flags = knobs;
    ref_flags.insert(ref_flags.end(), {"--clients", std::to_string(kClients)});
    fl::Simulation sim = fl::build_simulation(federation_config_from(ref_flags));
    sim.server->run(kRounds);
    std::ostringstream ref_csv_stream;
    sim.server->history().write_csv(ref_csv_stream, /*include_timings=*/false);
    const std::string ref_csv = ref_csv_stream.str();
    // The config must actually exercise the divergence: at least one
    // straggler drop across the run, or the pin proves nothing.
    std::size_t straggler_drops = 0;
    for (const auto& record : sim.server->history().records()) {
      straggler_drops += record.straggler_drops;
    }
    EXPECT_GT(straggler_drops, 0u)
        << label << ": straggler knob never fired; pick a different seed/prob";

    FederationOptions unix_opts;
    unix_opts.common = knobs;
    const FederationRun unix_run = run_federation(kClients, kRounds, unix_opts);
    for (std::size_t i = 0; i < unix_run.exit_codes.size(); ++i) {
      EXPECT_EQ(unix_run.exit_codes[i], 0)
          << label << ": " << (i == 0 ? "daemon" : "worker") << " #" << i << " (unix)";
    }
    EXPECT_EQ(read_file(unix_run.csv), ref_csv)
        << label << ": unix-socket history diverged from in-process";

    FederationOptions tcp_opts;
    tcp_opts.common = knobs;
    tcp_opts.common.insert(tcp_opts.common.end(), {"--auth-token", "pr11"});
    tcp_opts.tcp = true;
    tcp_opts.tcp_slot = tcp_slot;
    tcp_slot += 2;  // slot 2 belongs to WrongAuthTokenFailsFastAndLoud
    const FederationRun tcp_run = run_federation(kClients, kRounds, tcp_opts);
    for (std::size_t i = 0; i < tcp_run.exit_codes.size(); ++i) {
      EXPECT_EQ(tcp_run.exit_codes[i], 0)
          << label << ": " << (i == 0 ? "daemon" : "worker") << " #" << i << " (tcp)";
    }
    EXPECT_EQ(read_file(tcp_run.csv), ref_csv)
        << label << ": TCP history diverged from in-process";

    const std::string ref_weights_path = unix_run.dir + "/ref.bin";
    tools::write_weights_file(ref_weights_path, sim.server->global_weights());
    const std::string ref_weights = read_file(ref_weights_path);
    EXPECT_EQ(read_file(unix_run.weights), ref_weights)
        << label << ": unix-socket weights are not bit-identical";
    EXPECT_EQ(read_file(tcp_run.weights), ref_weights)
        << label << ": TCP weights are not bit-identical";
  }
}

TEST(Daemon, WrongAuthTokenFailsFastAndLoud) {
  // Satellite 2: the daemon runs with abort_on_reject — a worker
  // bringing the wrong token must sink both processes promptly with
  // nonzero exits, not leave the daemon waiting out its accept timeout.
  FederationOptions opts;
  opts.tcp = true;
  opts.tcp_slot = 2;
  opts.common = {"--auth-token", "the-right-token"};
  opts.worker_extra = {{"--auth-token", "the-wrong-token"}};
  const FederationRun run = run_federation(1, 1, opts);
  EXPECT_NE(run.exit_codes[0], 0) << "daemon must abort on the rejected join";
  EXPECT_NE(run.exit_codes[1], 0) << "worker must fail on the reject";
}

}  // namespace
}  // namespace fedcav
