#include "src/obs/metrics.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/utils/error.hpp"

namespace fedcav::obs {

namespace {

/// A double as the shortest decimal that parses back to the same value.
/// The stream default keeps 6 significant digits, so a byte gauge of
/// 54,472,704 would print as 5.44727e+07.
void write_double(std::ostream& out, double v) {
  char buf[32];
  const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out.write(buf, end - buf);
}

/// fetch_add for atomic<double> (the member form is integral-only until
/// C++20 libstdc++ catches up everywhere): CAS loop, relaxed — summaries
/// are read between rounds, not concurrently with a fence requirement.
void atomic_add(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::size_t Histogram::bucket_index(double v) {
  if (!(v > 0.0)) return 0;  // non-positive and NaN underflow
  int exp = 0;
  std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  // Octave [2^(e-1), 2^e) lands in bucket e+32, clamped to the range.
  const long idx = static_cast<long>(exp) + 32;
  if (idx < 1) return 0;
  if (idx >= static_cast<long>(kBuckets) - 1) return kBuckets - 1;
  return static_cast<std::size_t>(idx);
}

void Histogram::observe(double v) {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t prev = count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  if (prev == 0) {
    // First observation seeds min/max; racing observers fix it up below.
    double expected = 0.0;
    min_.compare_exchange_strong(expected, v, std::memory_order_relaxed);
    expected = 0.0;
    max_.compare_exchange_strong(expected, v, std::memory_order_relaxed);
  }
  atomic_min(min_, v);
  atomic_max(max_, v);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::min() const {
  return count() == 0 ? std::numeric_limits<double>::infinity()
                      : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? -std::numeric_limits<double>::infinity()
                      : max_.load(std::memory_order_relaxed);
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen > rank) {
      if (b == 0) return min();
      if (b == kBuckets - 1) return max();
      // Geometric midpoint of octave [2^(b-33), 2^(b-32)), clamped to
      // the observed range: a sparsely filled octave's midpoint can lie
      // outside it.
      const double mid = std::ldexp(std::sqrt(0.5), static_cast<int>(b) - 32);
      return std::min(std::max(mid, min()), max());
    }
  }
  return max();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::instance() {
  static Registry reg;
  return reg;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void Registry::write_summary(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": " << c->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": ";
    write_double(out, g->value());
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"count\": "
        << h->count();
    const auto stat = [&out](const char* key, double v) {
      out << ", \"" << key << "\": ";
      write_double(out, v);
    };
    stat("sum", h->sum());
    stat("mean", h->mean());
    if (h->count() > 0) {
      stat("min", h->min());
      stat("max", h->max());
      stat("p50", h->quantile(0.5));
      stat("p90", h->quantile(0.9));
      stat("p99", h->quantile(0.99));
    }
    out << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

std::string Registry::summary_json() const {
  std::ostringstream out;
  write_summary(out);
  return out.str();
}

void Registry::write_summary_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  FEDCAV_REQUIRE(out.good(), "Registry::write_summary_file: cannot open " + path);
  write_summary(out);
  FEDCAV_REQUIRE(out.good(), "Registry::write_summary_file: write failed for " + path);
}

}  // namespace fedcav::obs
