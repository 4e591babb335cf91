#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "data/synthetic.h"
#include "eval/pairs.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/runtime.h"

namespace fs::obs {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

// ---------- trace epoch ----------

// Declared first, so it runs before any other test in this binary reads
// the clock: the epoch must be process start, whichever call reads it
// first.
TEST(TraceEpoch, TracedPipelineRunStartsAtOrAfterZero) {
  data::SyntheticWorldConfig world_cfg;
  world_cfg.user_count = 60;
  world_cfg.poi_count = 160;
  world_cfg.city_count = 2;
  world_cfg.weeks = 3;
  world_cfg.seed = 4;
  const auto world = data::generate_world(world_cfg);
  const eval::PairSplit split = eval::split_pairs(
      eval::sample_candidate_pairs(world.dataset), 0.7, 5);
  core::FriendSeekerConfig cfg;
  cfg.presence.feature_dim = 8;
  cfg.presence.epochs = 2;
  cfg.max_iterations = 1;
  tracer().clear();
  tracer().enable();
  (void)core::FriendSeeker(cfg).run(world.dataset, split.train_pairs,
                                    split.train_labels, split.test_pairs);
  tracer().disable();
  const std::vector<TraceEvent> events = tracer().events();
  tracer().clear();
  ASSERT_FALSE(events.empty());
  const TraceEvent* first = &events.front();
  for (const TraceEvent& event : events) {
    EXPECT_GE(event.ts_us, 0.0) << event.name;
    if (event.ts_us < first->ts_us) first = &event;
  }
  EXPECT_EQ(first->name, "core.pipeline.run");
  EXPECT_GE(first->ts_us, 0.0);
}

// ---------- json ----------

TEST(Json, DumpParseRoundTrip) {
  json::Object obj;
  obj["name"] = "needs \"escaping\"\nand\ttabs \\ backslash";
  obj["count"] = 42;
  obj["ratio"] = 0.25;
  obj["flag"] = true;
  obj["nothing"] = nullptr;
  json::Array arr;
  arr.emplace_back(1);
  arr.emplace_back("two");
  obj["list"] = std::move(arr);

  for (int indent : {0, 2}) {
    const json::Value parsed =
        json::parse(json::Value(obj).dump(indent));
    EXPECT_EQ(parsed.at("name").as_string(),
              "needs \"escaping\"\nand\ttabs \\ backslash");
    EXPECT_EQ(parsed.at("count").as_number(), 42.0);
    EXPECT_EQ(parsed.at("ratio").as_number(), 0.25);
    EXPECT_TRUE(parsed.at("flag").as_bool());
    EXPECT_TRUE(parsed.at("nothing").is_null());
    EXPECT_EQ(parsed.at("list").as_array().size(), 2u);
    EXPECT_EQ(parsed.at("list").as_array()[1].as_string(), "two");
  }
}

TEST(Json, IntegersPrintExactlyAndNonFiniteBecomesNull) {
  EXPECT_EQ(json::Value(1234567890123).dump(), "1234567890123");
  EXPECT_EQ(json::Value(-7).dump(), "-7");
  EXPECT_EQ(json::Value(std::nan("")).dump(), "null");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(json::Value(inf).dump(), "null");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(json::parse("{\"a\": }"), ParseError);
  EXPECT_THROW(json::parse("[1, 2"), ParseError);
  EXPECT_THROW(json::parse("{\"a\": 1} trailing"), ParseError);
  EXPECT_THROW(json::parse(""), ParseError);
  // Type-mismatch accessors throw instead of crashing.
  EXPECT_THROW(json::parse("[1]").at("key"), ParseError);
  EXPECT_THROW(json::parse("\"s\"").as_number(), ParseError);
}

TEST(Json, UnicodeEscapeDecodes) {
  EXPECT_EQ(json::parse("\"caf\\u00e9\"").as_string(), "caf\xc3\xa9");
}

// ---------- histogram ----------

TEST(Histogram, BucketsAndCumulativeCounts) {
  Histogram h({1.0, 2.0, 4.0});
  for (double v : {0.5, 1.5, 1.5, 3.0, 100.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.5);
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // three finite bounds + overflow
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  Histogram h({10.0, 20.0, 40.0});
  // 100 observations uniformly inside (10, 20]: the bucket holds all mass,
  // so p50 lands mid-bucket and p95 near its top.
  for (int i = 0; i < 100; ++i) h.observe(15.0);
  EXPECT_NEAR(h.quantile(0.5), 15.0, 1.0);
  EXPECT_NEAR(h.quantile(0.95), 19.5, 1.0);
  EXPECT_GT(h.quantile(0.99), h.quantile(0.5));
}

TEST(Histogram, OverflowClampsToLargestFiniteBound) {
  Histogram h({1.0, 2.0});
  for (int i = 0; i < 10; ++i) h.observe(50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
}

TEST(Histogram, EmptyQuantileIsZeroAndBadBoundsThrow) {
  Histogram h({1.0});
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({}), std::invalid_argument);
}

// ---------- registry ----------

TEST(MetricsRegistry, ConcurrentCounterIncrementsAreExact) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test.concurrent_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add(1);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, ResolveReturnsSameInstancePerNameAndLabels) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.total", {{"kind", "a"}});
  Counter& b = reg.counter("x.total", {{"kind", "b"}});
  EXPECT_NE(&a, &b);
  a.add(3);
  EXPECT_EQ(reg.counter("x.total", {{"kind", "a"}}).value(), 3u);
  EXPECT_EQ(reg.counter("x.total", {{"kind", "b"}}).value(), 0u);
  Gauge& g = reg.gauge("x.level");
  g.set(2.0);
  g.set_max(1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("x.level").value(), 2.0);
  g.set_max(5.0);
  EXPECT_DOUBLE_EQ(reg.gauge("x.level").value(), 5.0);
}

TEST(MetricsRegistry, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("data.loader.lines_total", {}, "lines read").add(12);
  reg.counter("data.loader.quarantined_total",
              {{"reason", "bad \"stuff\"\nhere\\"}})
      .add(1);
  reg.gauge("pipeline.edge_churn", {}, "latest churn").set(0.25);
  Histogram& h = reg.histogram("span.test_ms", {1.0, 2.0}, {}, "test spans");
  h.observe(0.5);
  h.observe(5.0);

  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# HELP data_loader_lines_total lines read"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE data_loader_lines_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("data_loader_lines_total 12"), std::string::npos);
  // Label values escape backslash, quote, and newline.
  EXPECT_NE(text.find("data_loader_quarantined_total{reason=\"bad "
                      "\\\"stuff\\\"\\nhere\\\\\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("pipeline_edge_churn 0.25"), std::string::npos);
  // Histogram buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(text.find("span_test_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("span_test_ms_bucket{le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(text.find("span_test_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("span_test_ms_count 2"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusNameAndEscapeHelpers) {
  EXPECT_EQ(prometheus_name("data.loader.lines_total"),
            "data_loader_lines_total");
  EXPECT_EQ(prometheus_name("weird-name! with spaces"),
            "weird_name__with_spaces");
  EXPECT_EQ(prometheus_name("9starts.with.digit"), "_9starts_with_digit");
  EXPECT_EQ(prometheus_escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  EXPECT_EQ(prometheus_escape_help("line\nbreak\\slash"),
            "line\\nbreak\\\\slash");
}

TEST(MetricsRegistry, JsonSnapshotCarriesQuantiles) {
  MetricsRegistry reg;
  reg.counter("a.total", {{"k", "v"}}, "help a").add(7);
  reg.gauge("b.level").set(-1.5);
  Histogram& h = reg.histogram("c_ms", {1.0, 10.0, 100.0});
  for (int i = 0; i < 50; ++i) h.observe(5.0);

  const json::Value snap = json::parse(reg.to_json().dump());
  const json::Array& counters = snap.at("counters").as_array();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].at("name").as_string(), "a.total");
  EXPECT_EQ(counters[0].at("value").as_number(), 7.0);
  EXPECT_EQ(counters[0].at("labels").at("k").as_string(), "v");
  EXPECT_EQ(snap.at("gauges").as_array()[0].at("value").as_number(), -1.5);
  const json::Value& hist = snap.at("histograms").as_array()[0];
  EXPECT_EQ(hist.at("count").as_number(), 50.0);
  const json::Value& quantiles = hist.at("quantiles");
  EXPECT_GT(quantiles.at("p50").as_number(), 1.0);
  EXPECT_LE(quantiles.at("p50").as_number(), 10.0);
  EXPECT_GE(quantiles.at("p99").as_number(),
            quantiles.at("p50").as_number());
}

// ---------- spans & tracer ----------

/// The global tracer is shared across tests; serialize access by clearing
/// state on entry and disabling on exit.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tracer().disable();
    tracer().clear();
  }
  void TearDown() override {
    tracer().disable();
    tracer().clear();
    set_metrics_enabled(false);
  }
};

TEST_F(TracerTest, DisabledSpansRecordNothingButStillTime) {
  Span sw("obs.test.stopwatch");
  EXPECT_GE(sw.seconds(), 0.0);
  const double t1 = sw.seconds();
  EXPECT_GE(sw.seconds(), t1);
  { FS_SPAN("obs.test.scope"); }
  EXPECT_EQ(tracer().event_count(), 0u);
}

TEST_F(TracerTest, SpansNestAndRecordContainedIntervals) {
  tracer().enable();
  {
    Span outer("obs.test.outer");
    {
      Span inner("obs.test.inner");
      inner.arg("answer", 42.0);
    }
  }
  const std::vector<TraceEvent> events = tracer().events();
  ASSERT_EQ(events.size(), 2u);
  // Inner ends first, so it is recorded first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "obs.test.inner");
  EXPECT_EQ(outer.name, "obs.test.outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.depth, 1);
  // The child interval is contained in the parent's.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 1.0);
  ASSERT_EQ(inner.args.size(), 1u);
  EXPECT_EQ(inner.args[0].first, "answer");
  EXPECT_DOUBLE_EQ(inner.args[0].second, 42.0);
}

TEST_F(TracerTest, EndIsIdempotentAndAggregateRollsUp) {
  tracer().enable();
  {
    Span s("obs.test.once");
    s.end();
    s.end();  // second end must not double-record
  }
  { FS_SPAN("obs.test.once"); }
  const auto agg = tracer().aggregate();
  const auto it = agg.find("obs.test.once");
  ASSERT_NE(it, agg.end());
  EXPECT_EQ(it->second.count, 2u);
  EXPECT_GE(it->second.wall_ms, 0.0);
}

TEST_F(TracerTest, ChromeTraceJsonIsWellFormed) {
  tracer().enable();
  {
    Span s("obs.test.chrome");
    s.arg("x", 1.5);
  }
  tracer().counter("obs.test.series", 3.0);
  const std::string path = temp_path("obs_test_trace.json");
  tracer().write_chrome_json(path);

  const json::Value doc = json::parse(slurp(path));
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const json::Array& events = doc.at("traceEvents").as_array();
  // Metadata + span + counter at minimum.
  ASSERT_GE(events.size(), 3u);
  bool saw_span = false, saw_counter = false, saw_meta = false;
  for (const json::Value& e : events) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "X" && e.at("name").as_string() == "obs.test.chrome") {
      saw_span = true;
      EXPECT_GE(e.at("dur").as_number(), 0.0);
      EXPECT_DOUBLE_EQ(e.at("args").at("x").as_number(), 1.5);
    }
    if (ph == "C" && e.at("name").as_string() == "obs.test.series") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(e.at("args").at("value").as_number(), 3.0);
    }
    if (ph == "M") saw_meta = true;
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_meta);
  std::filesystem::remove(path);
}

TEST_F(TracerTest, SpanDurationsMirrorIntoHistogramsWhenMetricsEnabled) {
  set_metrics_enabled(true);
  // Tracer stays disabled: metrics-only runs must still get span timings.
  { FS_SPAN("obs.test.mirror"); }
  const json::Value snap = json::parse(metrics().to_json().dump());
  bool found = false;
  for (const json::Value& h : snap.at("histograms").as_array())
    if (h.at("name").as_string() == "span.obs.test.mirror_ms") {
      found = true;
      EXPECT_GE(h.at("count").as_number(), 1.0);
    }
  EXPECT_TRUE(found);
}

// ---------- telemetry glue ----------

TEST(Telemetry, PrometheusPathFor) {
  EXPECT_EQ(prometheus_path_for("m.json"), "m.prom");
  EXPECT_EQ(prometheus_path_for("/tmp/run.v2/metrics.json"),
            "/tmp/run.v2/metrics.prom");
  EXPECT_EQ(prometheus_path_for("/tmp/run.v2/metrics"),
            "/tmp/run.v2/metrics.prom");
  EXPECT_EQ(prometheus_path_for("metrics"), "metrics.prom");
}

TEST(Telemetry, WriteMetricsFilesProducesParseableTwins) {
  MetricsRegistry reg;
  reg.counter("t.total", {}, "test").add(5);
  const std::string json_path = temp_path("obs_test_metrics.json");
  write_metrics_files(reg, json_path);
  const json::Value snap = json::parse(slurp(json_path));
  EXPECT_EQ(snap.at("counters").as_array()[0].at("value").as_number(), 5.0);
  const std::string prom = slurp(prometheus_path_for(json_path));
  EXPECT_NE(prom.find("t_total 5"), std::string::npos);
  std::filesystem::remove(json_path);
  std::filesystem::remove(prometheus_path_for(json_path));
}

TEST(Telemetry, BridgesMirrorRuntimeSinks) {
  MetricsRegistry reg;
  util::Diagnostics diag;
  diag.report(util::Severity::kWarning, ErrorCode::kIo, "test", "warn 1");
  diag.report(util::Severity::kError, ErrorCode::kNumeric, "test", "err 1");
  bridge_diagnostics(diag, reg);
  EXPECT_DOUBLE_EQ(reg.gauge("diagnostics.events_total").value(), 2.0);
  EXPECT_DOUBLE_EQ(
      reg.gauge("diagnostics.events", {{"severity", "warning"}}).value(),
      1.0);
  EXPECT_DOUBLE_EQ(
      reg.gauge("diagnostics.events", {{"severity", "error"}}).value(), 1.0);

  runtime::ExecutionContext ctx;
  {
    runtime::MemoryCharge charge(&ctx, 1024, "test");
    bridge_execution(ctx, reg);
  }
  EXPECT_DOUBLE_EQ(reg.gauge("runtime.memory.peak_bytes").value(), 1024.0);
  EXPECT_DOUBLE_EQ(reg.gauge("runtime.deadline.remaining_seconds").value(),
                   -1.0);

  runtime::DegradationReport report;
  report.add("phase2.refine", "deadline", "ran out", 3, 6);
  bridge_degradation(report, reg);
  EXPECT_DOUBLE_EQ(reg.gauge("pipeline.degraded_phases").value(), 1.0);
  EXPECT_DOUBLE_EQ(
      reg.gauge("pipeline.degradations", {{"reason", "deadline"}}).value(),
      1.0);
  EXPECT_DOUBLE_EQ(
      reg.gauge("pipeline.degradations", {{"reason", "memory"}}).value(),
      0.0);
}

TEST(Telemetry, PeriodicSnapshotWriterWritesOnStop) {
  MetricsRegistry reg;
  reg.counter("p.total").add(9);
  const std::string json_path = temp_path("obs_test_periodic.json");
  {
    PeriodicSnapshotWriter writer(json_path, 0.05, reg);
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    writer.stop();
    writer.stop();  // idempotent
  }
  const json::Value snap = json::parse(slurp(json_path));
  EXPECT_EQ(snap.at("counters").as_array()[0].at("value").as_number(), 9.0);
  std::filesystem::remove(json_path);
  std::filesystem::remove(prometheus_path_for(json_path));
}

TEST(Telemetry, DiagnosticsCarryMonotonicTimestamps) {
  util::Diagnostics diag;
  diag.report(util::Severity::kInfo, ErrorCode::kIo, "test", "first");
  ASSERT_EQ(diag.entries().size(), 1u);
  EXPECT_GE(diag.entries()[0].ts_sec, 0.0);
  EXPECT_LE(diag.entries()[0].ts_sec, util::monotonic_seconds());
  // to_string prefixes the stamp.
  EXPECT_NE(diag.to_string().find("s] [info]"), std::string::npos);
}

}  // namespace
}  // namespace fs::obs
