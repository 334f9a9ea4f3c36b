#include "src/chaos/plan.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "src/utils/error.hpp"
#include "src/utils/string_util.hpp"

namespace fedcav::chaos {
namespace {

// %.17g round-trips any finite double exactly; format_double's fixed
// precision would truncate large magnitudes.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::size_t parse_size(const std::string& value, const std::string& key) {
  const long long v = parse_int(value);
  FEDCAV_REQUIRE(v >= 0, "ChaosPlan: negative value for '" + key + "'");
  return static_cast<std::size_t>(v);
}

}  // namespace

void ChaosPlan::validate() const {
  faults.validate(num_clients + 1);
  FEDCAV_REQUIRE(num_clients >= 1, "ChaosPlan: need at least one client");
  FEDCAV_REQUIRE(rounds >= 1, "ChaosPlan: need at least one round");
  FEDCAV_REQUIRE(sample_ratio > 0.0 && sample_ratio <= 1.0,
                 "ChaosPlan: sample_ratio must be in (0, 1]");
  FEDCAV_REQUIRE(min_aggregate_clients >= 1,
                 "ChaosPlan: min_aggregate_clients must be >= 1");
  FEDCAV_REQUIRE(retry_backoff_s >= 0.0,
                 "ChaosPlan: retry_backoff_s must be >= 0");
  FEDCAV_REQUIRE(uplink_deadline_s >= 0.0,
                 "ChaosPlan: uplink_deadline_s must be >= 0");
  FEDCAV_REQUIRE(straggler_drop_prob >= 0.0 && straggler_drop_prob <= 1.0,
                 "ChaosPlan: straggler_drop_prob must be in [0, 1]");
}

std::string ChaosPlan::describe() const {
  std::ostringstream out;
  out << "seed=" << faults.seed;
  const auto axis = [&out](const char* name, double v) {
    if (v != 0.0) out << ' ' << name << '=' << format_double(v, 3);
  };
  axis("drop", faults.drop_prob);
  axis("dup", faults.duplicate_prob);
  axis("reorder", faults.reorder_prob);
  axis("corrupt", faults.corrupt_prob);
  axis("trunc", faults.truncate_prob);
  axis("jitter", faults.jitter_s);
  axis("straggle", straggler_drop_prob);
  axis("deadline", uplink_deadline_s);
  if (!faults.crashes.empty()) out << " crashes=" << format_crash_spec(faults.crashes);
  if (min_aggregate_clients > 1) out << " quorum=" << min_aggregate_clients;
  out << " retries=" << max_retries << " clients=" << num_clients
      << " rounds=" << rounds;
  return out.str();
}

std::string ChaosPlan::to_text() const {
  std::ostringstream out;
  out << "# fedcav chaos plan\n";
  out << "seed=" << faults.seed << '\n';
  out << "drop_prob=" << fmt_double(faults.drop_prob) << '\n';
  out << "duplicate_prob=" << fmt_double(faults.duplicate_prob) << '\n';
  out << "reorder_prob=" << fmt_double(faults.reorder_prob) << '\n';
  out << "corrupt_prob=" << fmt_double(faults.corrupt_prob) << '\n';
  out << "truncate_prob=" << fmt_double(faults.truncate_prob) << '\n';
  out << "jitter_s=" << fmt_double(faults.jitter_s) << '\n';
  out << "crashes=" << format_crash_spec(faults.crashes) << '\n';
  out << "num_clients=" << num_clients << '\n';
  out << "rounds=" << rounds << '\n';
  out << "sample_ratio=" << fmt_double(sample_ratio) << '\n';
  out << "checkpoint_round=" << checkpoint_round << '\n';
  out << "min_aggregate_clients=" << min_aggregate_clients << '\n';
  out << "max_retries=" << max_retries << '\n';
  out << "retry_backoff_s=" << fmt_double(retry_backoff_s) << '\n';
  out << "uplink_deadline_s=" << fmt_double(uplink_deadline_s) << '\n';
  out << "straggler_drop_prob=" << fmt_double(straggler_drop_prob) << '\n';
  return out.str();
}

ChaosPlan ChaosPlan::parse(const std::string& text) {
  ChaosPlan plan;
  std::unordered_set<std::string> seen;
  for (const std::string& raw : split(text, '\n')) {
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    FEDCAV_REQUIRE(eq != std::string::npos,
                   "ChaosPlan: expected key=value, got '" + line + "'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    FEDCAV_REQUIRE(seen.insert(key).second,
                   "ChaosPlan: duplicate key '" + key + "'");
    if (key == "seed") {
      plan.faults.seed = static_cast<std::uint64_t>(parse_size(value, key));
    } else if (key == "drop_prob") {
      plan.faults.drop_prob = parse_double(value);
    } else if (key == "duplicate_prob") {
      plan.faults.duplicate_prob = parse_double(value);
    } else if (key == "reorder_prob") {
      plan.faults.reorder_prob = parse_double(value);
    } else if (key == "corrupt_prob") {
      plan.faults.corrupt_prob = parse_double(value);
    } else if (key == "truncate_prob") {
      plan.faults.truncate_prob = parse_double(value);
    } else if (key == "jitter_s") {
      plan.faults.jitter_s = parse_double(value);
    } else if (key == "crashes") {
      plan.faults.crashes = comm::parse_crash_spec(value);
    } else if (key == "num_clients") {
      plan.num_clients = parse_size(value, key);
    } else if (key == "rounds") {
      plan.rounds = parse_size(value, key);
    } else if (key == "sample_ratio") {
      plan.sample_ratio = parse_double(value);
    } else if (key == "checkpoint_round") {
      plan.checkpoint_round = parse_size(value, key);
    } else if (key == "min_aggregate_clients") {
      plan.min_aggregate_clients = parse_size(value, key);
    } else if (key == "max_retries") {
      plan.max_retries = parse_size(value, key);
    } else if (key == "retry_backoff_s") {
      plan.retry_backoff_s = parse_double(value);
    } else if (key == "uplink_deadline_s") {
      plan.uplink_deadline_s = parse_double(value);
    } else if (key == "straggler_drop_prob") {
      plan.straggler_drop_prob = parse_double(value);
    } else {
      throw Error("ChaosPlan: unknown key '" + key + "'");
    }
  }
  plan.validate();
  return plan;
}

void save_plan_file(const ChaosPlan& plan, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  FEDCAV_REQUIRE(out.good(), "ChaosPlan: cannot open '" + path + "' for write");
  out << plan.to_text();
  out.flush();
  FEDCAV_REQUIRE(out.good(), "ChaosPlan: write to '" + path + "' failed");
}

ChaosPlan load_plan_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FEDCAV_REQUIRE(in.good(), "ChaosPlan: cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return ChaosPlan::parse(text.str());
}

std::string format_crash_spec(const std::vector<comm::CrashWindow>& windows) {
  std::vector<std::string> parts;
  parts.reserve(windows.size());
  for (const comm::CrashWindow& w : windows) {
    std::ostringstream part;
    part << w.rank << ':' << w.first_round << '-' << w.last_round;
    parts.push_back(part.str());
  }
  return join(parts, ",");
}

}  // namespace fedcav::chaos
