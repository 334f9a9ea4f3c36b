#include "src/obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "src/utils/error.hpp"

namespace fedcav::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Chrome's ts/dur unit is microseconds. Printed from the integer
/// nanoseconds as exact microseconds with 3 decimals: a double at the
/// default stream precision keeps 6 significant digits, which past 1 s
/// rounds to 10 µs or coarser and breaks the nesting of short child
/// spans.
void write_us(std::ostream& out, std::uint64_t ns) {
  char buf[32];
  const int len = std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64,
                                ns / 1000, ns % 1000);
  out.write(buf, len);
}

/// JSON string escaping for span names (quotes, backslashes, control
/// bytes; everything else passes through).
void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_ns() const { return steady_ns() - epoch_ns_; }

Tracer::Buffer& Tracer::thread_buffer() {
  // One buffer per thread for the process lifetime; the shared_ptr keeps
  // the buffer alive in the tracer's registry even after the owning
  // thread exits (its recorded events must survive into the flush).
  thread_local std::shared_ptr<Buffer> local;
  if (local == nullptr) {
    local = std::make_shared<Buffer>();
    std::lock_guard<std::mutex> lock(registry_mutex_);
    local->tid = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(local);
  }
  return *local;
}

void Tracer::record(TraceEvent ev) {
  Buffer& buf = thread_buffer();
  ev.tid = buf.tid;
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(std::move(ev));
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> merged;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mutex);
    merged.insert(merged.end(), buf->events.begin(), buf->events.end());
  }
  return merged;
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mutex);
    n += buf->events.size();
  }
  return n;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mutex);
    buf->events.clear();
  }
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  std::vector<TraceEvent> evs = events();
  std::sort(evs.begin(), evs.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.ts_ns < b.ts_ns;
  });
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& ev : evs) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"name\": ";
    write_json_string(out, ev.name);
    out << ", \"cat\": ";
    write_json_string(out, ev.cat);
    out << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << ev.tid << ", \"ts\": ";
    write_us(out, ev.ts_ns);
    out << ", \"dur\": ";
    write_us(out, ev.dur_ns);
    if (ev.arg_key != nullptr) {
      out << ", \"args\": {";
      write_json_string(out, ev.arg_key);
      // Shortest round-trip form, like the registry summary's numbers.
      char buf[32];
      const char* end = std::to_chars(buf, buf + sizeof(buf), ev.arg_value).ptr;
      out << ": ";
      out.write(buf, end - buf);
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
}

void Tracer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  FEDCAV_REQUIRE(out.good(), "write_chrome_trace_file: cannot open " + path);
  write_chrome_trace(out);
  FEDCAV_REQUIRE(out.good(), "write_chrome_trace_file: write failed for " + path);
}

void Span::start(std::string name, const char* cat) {
  name_ = std::move(name);
  cat_ = cat;
  start_ns_ = Tracer::instance().now_ns();
  active_ = true;
}

void Span::finish() {
  Tracer& tracer = Tracer::instance();
  TraceEvent ev;
  ev.name = std::move(name_);
  ev.cat = cat_;
  ev.ts_ns = start_ns_;
  ev.dur_ns = tracer.now_ns() - start_ns_;
  ev.arg_key = arg_key_;
  ev.arg_value = arg_value_;
  tracer.record(std::move(ev));
  active_ = false;
}

}  // namespace fedcav::obs
