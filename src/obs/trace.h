// Hierarchical RAII trace spans with Chrome trace_event export.
//
//   FS_SPAN("phase2.iteration");            // records the enclosing scope
//   fs::obs::Span span("core.joc.fill");    // named handle: args, seconds()
//
// A Span measures wall time always (it doubles as the repo's stopwatch — one
// timing idiom) and, when the global Tracer is enabled, also thread CPU time
// and its nesting depth; on destruction it records a Chrome "X" (complete)
// event. With the tracer disabled a span is two steady_clock reads and
// nothing else — no allocation, no locking — so spans can stay compiled into
// release binaries.
//
// The exported file loads in chrome://tracing and Perfetto: one "X" event
// per span (ts/dur in microseconds since process start), "C" counter events
// for time series (autoencoder loss, edge churn), and span durations are
// mirrored into the metrics registry as "span.<name>_ms" histograms when
// metrics are enabled.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace fs::obs {

struct TraceEvent {
  std::string name;
  char phase = 'X';   // 'X' complete span | 'C' counter sample
  double ts_us = 0.0;  // microseconds since process start (monotonic)
  double dur_us = 0.0;
  double cpu_us = 0.0;  // thread CPU time consumed inside the span
  int depth = 0;        // nesting depth at entry (0 = top level)
  std::uint32_t tid = 0;
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  void enable() noexcept { enabled_.store(true, std::memory_order_relaxed); }
  void disable() noexcept {
    enabled_.store(false, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  void record(TraceEvent event);

  /// Records a 'C' counter sample (a time-series point) when enabled.
  void counter(const std::string& name, double value);

  std::vector<TraceEvent> events() const;
  std::size_t event_count() const;
  void clear();

  /// Wall/CPU totals per span name — the per-stage rollup perf_bench and
  /// the CLI summary consume.
  struct Aggregate {
    std::uint64_t count = 0;
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
  };
  std::map<std::string, Aggregate> aggregate() const;

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} — the Chrome
  /// trace_event JSON object format.
  json::Value to_chrome_json() const;
  void write_chrome_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// The process-wide tracer all spans record into.
Tracer& tracer();

/// Microseconds since process start on the shared monotonic epoch
/// (util::monotonic_seconds * 1e6).
double trace_now_us();

class Span {
 public:
  /// `name` must outlive the span (string literals in practice).
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Wall seconds since construction; works with the tracer disabled, so a
  /// Span is also the repo's stopwatch.
  double seconds() const;
  double milliseconds() const { return seconds() * 1e3; }

  /// Attaches a numeric argument shown in the trace viewer's args pane.
  /// No-op when the tracer is disabled.
  void arg(const char* key, double value);

  /// Ends the span early (records the event now); the destructor becomes a
  /// no-op.
  void end();

 private:
  using clock = std::chrono::steady_clock;

  const char* name_;
  clock::time_point wall_start_;
  double cpu_start_us_ = 0.0;
  int depth_ = 0;
  bool recording_ = false;  // tracer was enabled at construction
  bool ended_ = false;
  std::vector<std::pair<std::string, double>> args_;
};

#define FS_OBS_CONCAT_INNER(a, b) a##b
#define FS_OBS_CONCAT(a, b) FS_OBS_CONCAT_INNER(a, b)
/// Traces the enclosing scope under `name` (anonymous local Span).
#define FS_SPAN(name) \
  ::fs::obs::Span FS_OBS_CONCAT(fs_obs_span_, __LINE__)(name)

}  // namespace fs::obs
