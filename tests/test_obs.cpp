// Observability subsystem: span tracing, the chrome://tracing exporter,
// the metrics registry, and the end-to-end phase-accounting contract
// (per-round phase spans sum to ~the round wall time).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/fl/simulation.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/utils/logging.hpp"
#include "src/utils/threadpool.hpp"

namespace fedcav {
namespace {

/// Every test runs against the process-wide tracer/registry, so each
/// starts from a clean slate and leaves telemetry off.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::Tracer::instance().clear();
    obs::registry().reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Tracer::instance().clear();
    obs::registry().reset();
  }
};

TEST_F(ObsTest, DisabledSpanRecordsNothing) {
  ASSERT_FALSE(obs::enabled());
  {
    obs::Span span("should_not_appear", "test");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(obs::Tracer::instance().event_count(), 0u);
}

TEST_F(ObsTest, EnabledSpanRecordsOneEvent) {
  obs::set_enabled(true);
  {
    obs::Span span("unit_of_work", "test");
    EXPECT_TRUE(span.active());
    span.arg("round", 7.0);
  }
  const auto events = obs::Tracer::instance().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit_of_work");
  EXPECT_STREQ(events[0].cat, "test");
  ASSERT_NE(events[0].arg_key, nullptr);
  EXPECT_STREQ(events[0].arg_key, "round");
  EXPECT_EQ(events[0].arg_value, 7.0);
}

TEST_F(ObsTest, NullNameSpanIsInert) {
  obs::set_enabled(true);
  {
    obs::Span span(static_cast<const char*>(nullptr), "test");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(obs::Tracer::instance().event_count(), 0u);
}

TEST_F(ObsTest, SpansFromManyThreadsAllSurvive) {
  obs::set_enabled(true);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpansPerThread = 50;
  const std::size_t before = obs::Tracer::instance().event_count();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kSpansPerThread; ++i) {
        obs::Span span("threaded", "test");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(obs::Tracer::instance().event_count() - before, kThreads * kSpansPerThread);
}

TEST_F(ObsTest, ChromeTraceHasCompleteEventSchema) {
  obs::set_enabled(true);
  {
    obs::Span span("traced \"op\"", "test");
    span.arg("k", 3.0);
  }
  std::ostringstream out;
  obs::Tracer::instance().write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": "), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);
  // The quote inside the span name must be escaped.
  EXPECT_NE(json.find("traced \\\"op\\\""), std::string::npos);
  EXPECT_EQ(json.find("traced \"op\""), std::string::npos);
}

TEST_F(ObsTest, CountersAccumulateAcrossThreads) {
  obs::Counter& counter = obs::registry().counter("test.concurrent");
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), 4 * kPerThread);
  // Same name returns the same instrument.
  EXPECT_EQ(&obs::registry().counter("test.concurrent"), &counter);
}

TEST_F(ObsTest, HistogramTracksExactMomentsAndCoarseQuantiles) {
  obs::Histogram& h = obs::registry().histogram("test.hist");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // Log-bucketed quantiles carry at most a factor-of-2 error.
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 25.0);
  EXPECT_LE(p50, 100.0);
}

TEST_F(ObsTest, HistogramQuantilesStayInsideTheObservedRange) {
  // One observation: its octave's geometric midpoint (0.0442) lies above
  // it, so every quantile must clamp to the single value.
  obs::Histogram& h = obs::registry().histogram("test.hist_single");
  h.observe(0.0434);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 0.0434) << "q=" << q;
  }
}

TEST_F(ObsTest, SummaryJsonListsEveryInstrumentKind) {
  obs::registry().counter("test.c").add(3);
  obs::registry().gauge("test.g").set(1.5);
  obs::registry().histogram("test.h").observe(2.0);
  const std::string json = obs::registry().summary_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.c\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"test.g\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// The JSON writers keep every digit: ts/dur are exact microseconds from
// the integer nanoseconds, and registry doubles parse back exactly. At
// the stream's default 6 significant digits the span below would start
// at 1.23457e+07 µs (21 µs early) and the gauge read back 54,472,700.
TEST_F(ObsTest, JsonWritersKeepFullPrecision) {
  obs::TraceEvent ev;
  ev.name = "late_span";
  ev.cat = "test";
  ev.ts_ns = 12'345'678'901;
  ev.dur_ns = 1'000'000'007;
  obs::Tracer::instance().record(ev);
  std::ostringstream trace;
  obs::Tracer::instance().write_chrome_trace(trace);
  EXPECT_NE(trace.str().find("\"ts\": 12345678.901,"), std::string::npos)
      << trace.str();
  EXPECT_NE(trace.str().find("\"dur\": 1000000.007"), std::string::npos)
      << trace.str();

  obs::registry().gauge("test.bytes").set(54'472'704.0);
  const std::string json = obs::registry().summary_json();
  const std::string key = "\"test.bytes\": ";
  const std::size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos) << json;
  EXPECT_EQ(std::strtod(json.c_str() + at + key.size(), nullptr), 54'472'704.0)
      << json;
}

// ------------------------------------------------ end-to-end accounting

TEST_F(ObsTest, RoundPhaseSpansAccountForRoundWallTime) {
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.train_samples_per_class = 12;
  config.test_samples_per_class = 8;
  config.partition.num_clients = 5;
  config.server.telemetry = true;
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(3);

  // The acceptance contract: phase timings partition run_round, so their
  // sum must land within 10% of the measured round wall time.
  for (const auto& rec : sim.server->history().records()) {
    EXPECT_GT(rec.phases.local_update, 0.0);
    EXPECT_GT(rec.phases.eval, 0.0);
    EXPECT_GE(rec.wall_seconds, rec.phases.sum() * 0.999);
    EXPECT_LE(rec.wall_seconds - rec.phases.sum(), 0.1 * rec.wall_seconds);
  }

  // The trace mirrors the phases: every expected span name shows up.
  std::ostringstream out;
  obs::Tracer::instance().write_chrome_trace(out);
  const std::string json = out.str();
  for (const char* name : {"\"round\"", "\"sample\"", "\"broadcast\"",
                           "\"local_update\"", "\"detect\"", "\"aggregate\"",
                           "\"eval\"", "\"participant\"", "\"inference_loss\"",
                           "\"local_epochs\"", "\"forward\"", "\"backward\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << "missing span " << name;
  }

  // GEMM and pool instruments were bumped by the run.
  EXPECT_GT(obs::registry().counter("gemm.calls").value(), 0u);
  EXPECT_GT(obs::registry().counter("gemm.flops").value(), 0u);
  EXPECT_GT(obs::registry().counter("pool.tasks_completed").value(), 0u);
  EXPECT_GT(obs::registry().gauge("comm.bytes_sent").value(), 0.0);
}

TEST_F(ObsTest, DisabledRunLeavesNoTelemetry) {
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.train_samples_per_class = 12;
  config.test_samples_per_class = 8;
  config.partition.num_clients = 4;
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(1);
  EXPECT_EQ(obs::Tracer::instance().event_count(), 0u);
  EXPECT_EQ(obs::registry().counter("gemm.calls").value(), 0u);
  // Phase stopwatches still run — they are not gated on telemetry.
  EXPECT_GT(sim.server->history().back().phases.sum(), 0.0);
}

TEST_F(ObsTest, WriteTelemetryEmitsBothFiles) {
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.train_samples_per_class = 12;
  config.test_samples_per_class = 8;
  config.partition.num_clients = 4;
  config.server.telemetry = true;
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(1);

  const std::string trace_path = ::testing::TempDir() + "fedcav_trace.json";
  const std::string metrics_path = ::testing::TempDir() + "fedcav_metrics.json";
  sim.server->write_telemetry(trace_path, metrics_path);

  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.good());
  std::stringstream trace_text;
  trace_text << trace.rdbuf();
  EXPECT_NE(trace_text.str().find("\"traceEvents\""), std::string::npos);

  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics.good());
  std::stringstream metrics_text;
  metrics_text << metrics.rdbuf();
  EXPECT_NE(metrics_text.str().find("\"counters\""), std::string::npos);

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace fedcav
