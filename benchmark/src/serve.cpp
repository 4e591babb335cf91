// serve_replay: the `friendseeker serve` operator's workload.
//
// Input: a gowalla-like world (5,000 users, 20,000 POIs, 26 weeks, ~83k
// check-ins; 500 users with --quick) written as SNAP lines. The daemon runs
// at the CLI defaults (64 events per tick, ring 256, 50 ms tick budget,
// blocking backpressure) with the journal on, a snapshot every 64 ticks and
// an fsync after every tick (the network server's durable-ack path).
//
// One cycle, untraced:
//   flood  — closed loop: a ReplaySource with every line due at once;
//            throughput is lines over the wall time to drained.
//   paced  — open loop: PacedSource releases lines on a fixed 10,000 ev/s
//            schedule; each line's latency runs from its due time to the end
//            of the first tick after which no pair it dirtied is still
//            pending (oldest_dirty_tick() passed its ingest tick).
//   recover — a fresh daemon recovers the paced run's journal directory.
// The flood, paced and recovered engines must reach one state digest.
//
// Per-layer (--trace 1): a cycle for the load-generator numbers, then
// drive_stream() — a bare StreamEngine + JournalWriter over the same lines,
// with benchmark spans around each call.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "obs/trace.h"
#include "par/pool.h"
#include "stream/daemon.h"
#include "util/rng.h"

namespace fsb {
namespace {

using namespace fs;

// ev/s: a third of the flood rate on a quiet reference host, 55-65 % of it
// when the host was busiest. At 15,000 ev/s a busy host saturated and the
// median latency went from 5 ms to 130 ms.
constexpr double kPacedRate = 10000.0;
constexpr std::uint64_t kSnapshotEvery = 64;
constexpr double kStalenessSlo_s = 0.2;  // the CLI's --staleness-budget-ms

using Lines = std::vector<std::string>;

struct Inputs {
  std::string checkins;
  std::shared_ptr<const Lines> lines;
  std::set<std::pair<long long, long long>> truth;  // ordered raw-id pairs
};

/// The world is the preset's own (its seed is not varied: between worlds the
/// live-edge count, and with it the daemon's cost, swings by 2x). The lines
/// replay a SNAP dump, which lists each user's check-ins together; users
/// arrive in order of their first check-in, jittered by a seeded delay of up
/// to a week — --seed draws the delays. (The engine opens its time window
/// at the first event it sees, so a stream that starts late in the trace
/// collapses every earlier check-in into slot 0; an arbitrary user order
/// swings the cost by 2x on that alone.)
Inputs make_inputs(const Options& options) {
  data::SyntheticWorldConfig world = data::gowalla_like();
  world.user_count = options.quick ? 500 : 5000;
  world.poi_count = options.quick ? 2000 : 20000;
  world.weeks = 26;
  Inputs in;
  in.checkins = options.work_dir + "/checkins.txt";
  const std::string edges = options.work_dir + "/edges.txt";
  data::save_checkins_snap(data::generate_world(world).dataset, in.checkins,
                           edges);
  for (const auto& [a, b] : data::read_edges_file(edges))
    in.truth.insert(std::minmax(a, b));

  struct Block {
    geo::Timestamp key = 0;  // first check-in + seeded delay
    std::vector<std::string> lines;
  };
  std::vector<Block> blocks;  // one per user, lines in file order
  {
    std::ifstream file(in.checkins);
    long long current = -1;
    for (std::string line; std::getline(file, line);) {
      if (line.empty()) continue;
      stream::RawEvent event;
      if (stream::parse_event_line(line, event))
        throw std::runtime_error("generated line does not parse: " + line);
      if (blocks.empty() || event.user != current) {
        blocks.emplace_back();
        blocks.back().key = event.time;
      }
      current = event.user;
      blocks.back().key = std::min(blocks.back().key, event.time);
      blocks.back().lines.push_back(std::move(line));
    }
  }
  util::Rng rng(0x5e7e ^ options.seed);
  for (Block& block : blocks)
    block.key += static_cast<geo::Timestamp>(
        rng.next_u64(7 * geo::kSecondsPerDay));
  std::stable_sort(blocks.begin(), blocks.end(),
                   [](const Block& a, const Block& b) { return a.key < b.key; });
  // The flood's ReplaySource reads the file during set-up; the paced
  // source replays the same lines from memory.
  auto lines = std::make_shared<Lines>();
  std::ofstream file(in.checkins, std::ios::trunc);
  for (Block& block : blocks)
    for (std::string& line : block.lines) {
      file << line << '\n';
      lines->push_back(std::move(line));
    }
  if (!file.flush()) throw std::runtime_error("cannot write " + in.checkins);
  in.lines = std::move(lines);
  return in;
}

stream::ServeConfig serve_config(const std::string& journal_dir) {
  stream::ServeConfig cfg;  // CLI defaults for everything not set here
  cfg.journal_dir = journal_dir;
  cfg.snapshot_every = kSnapshotEvery;
  std::filesystem::create_directories(journal_dir);
  return cfg;
}

/// Open-loop load generator: line i is due at t0 + i / rate, t0 being the
/// first poll. Lines leave in whole batches of `batch` (the daemon's poll
/// size), like a client relay that flushes every `batch` records: a poll
/// sleeps until the batch's last line is due, unless the daemon is already
/// behind. The sleep's overshoot is the generator's own lag.
class PacedSource final : public stream::EventSource {
 public:
  PacedSource(std::shared_ptr<const Lines> lines, double rate,
              std::size_t batch)
      : lines_(std::move(lines)), rate_(rate), batch_(batch) {}

  std::size_t poll(std::size_t max_items,
                   std::vector<stream::SourceItem>& out) override {
    const std::size_t n = lines_->size();
    if (next_ >= n || max_items == 0) return 0;
    if (!started_) {
      started_ = true;
      t0_ = Clock::now();
    }
    const std::size_t end = std::min(n, next_ + std::min(max_items, batch_));
    const Clock::time_point target = due(end - 1);
    double lag_ms = 0.0;
    if (Clock::now() < target) {
      std::this_thread::sleep_until(target);
      lag_ms = ms_between(target, Clock::now());
    }
    lag_ms_.push_back(lag_ms);
    const Clock::time_point now = Clock::now();
    if (!backlog_end_ && now >= due(n - 1)) {
      // Unpolled lines that were due more than the staleness SLO ago; a
      // snapshot stall shorter than the SLO leaves none.
      const double overdue_s =
          std::chrono::duration<double>(now - t0_).count() - kStalenessSlo_s;
      const auto overdue = static_cast<std::size_t>(
          std::clamp(std::floor(overdue_s * rate_) + 1.0, 0.0,
                     static_cast<double>(n)));
      backlog_end_ = overdue > next_ ? overdue - next_ : 0;
    }
    for (; next_ < end; ++next_)
      out.push_back(stream::SourceItem{(*lines_)[next_], std::nullopt});
    return out.size();
  }
  bool exhausted() const override { return next_ >= lines_->size(); }
  void skip_lines(std::uint64_t n) override { next_ += n; }

  Clock::time_point due(std::size_t line) const {
    return t0_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(
                         static_cast<double>(line) / rate_));
  }
  const std::vector<double>& lag_ms() const { return lag_ms_; }
  std::size_t backlog_end() const { return backlog_end_.value_or(0); }

  static double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  }

 private:
  std::shared_ptr<const Lines> lines_;
  double rate_;
  std::size_t batch_;
  std::size_t next_ = 0;
  bool started_ = false;
  Clock::time_point t0_;
  std::vector<double> lag_ms_;
  std::optional<std::size_t> backlog_end_;
};

/// Per-line decision latency of the paced phase, updated after every tick.
struct LatencyTracker {
  const PacedSource* source = nullptr;
  std::uint64_t watermark = 0;  // lines below it are consumed
  std::deque<std::pair<std::uint64_t, std::uint64_t>> pending;  // line, tick
  std::vector<double> latency_ms;

  void after_tick(stream::ServeDaemon& daemon) {
    daemon.sync_journal();
    settle(daemon, Clock::now());
  }
  void settle(stream::ServeDaemon& daemon, Clock::time_point now) {
    // Lines consumed this tick were ingested before engine.tick() advanced
    // the counter, so their ingest tick is current_tick() - 1.
    const std::uint64_t ingest_tick = daemon.engine().current_tick() - 1;
    for (const std::uint64_t end = daemon.journaled_watermark();
         watermark < end; ++watermark)
      pending.emplace_back(watermark, ingest_tick);
    const std::uint64_t oldest = daemon.engine().oldest_dirty_tick();
    while (!pending.empty() && oldest > pending.front().second) {
      latency_ms.push_back(PacedSource::ms_between(
          source->due(pending.front().first), now));
      pending.pop_front();
    }
  }
};

/// Daemon set-up as an operator pays it: load the source, construct the
/// daemon, recover the (empty) journal directory.
std::unique_ptr<stream::ServeDaemon> set_up_flood(const Inputs& in,
                                                  const std::string& dir) {
  auto source = std::make_unique<stream::ReplaySource>(in.checkins);
  std::vector<stream::SourceItem> none;
  source->poll(0, none);  // loads the file
  stream::ServeConfig cfg = serve_config(dir);
  cfg.after_tick = [](stream::ServeDaemon& d) { d.sync_journal(); };
  auto daemon =
      std::make_unique<stream::ServeDaemon>(std::move(cfg), std::move(source));
  daemon->recover();
  return daemon;
}

struct Cycle {
  double flood_eps = 0.0;
  std::vector<double> latency_ms;
  std::vector<double> gen_lag_ms;
  std::size_t backlog_end = 0;
  double recover_s = 0.0;
  double f1 = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t failed = 0;
  std::uint64_t undrained = 0;  // pairs still dirty after a daemon stopped
  std::vector<std::uint64_t> digests;  // flood, paced, recovered
};

double live_graph_f1(const stream::StreamEngine& engine,
                     const std::set<std::pair<long long, long long>>& truth) {
  const auto edges = engine.live_edges_raw();
  std::size_t tp = 0;
  for (const auto& e : edges) tp += truth.count(e);
  const double denom = static_cast<double>(edges.size() + truth.size());
  return denom > 0.0 ? 2.0 * static_cast<double>(tp) / denom : 0.0;
}

/// Offered lines a stopped daemon did not accept: quarantined, shed, or
/// never consumed.
std::uint64_t unaccepted(const stream::ServeReport& report,
                         std::size_t offered) {
  return offered - std::min<std::uint64_t>(offered, report.accepted);
}

Cycle run_cycle(const Inputs& in, const std::string& dir) {
  Cycle c;
  const std::size_t n = in.lines->size();

  // ---- flood (closed loop) ----
  {
    auto daemon = set_up_flood(in, dir + "/flood");
    const auto start = Clock::now();
    const stream::ServeReport report = daemon->run();
    c.flood_eps = static_cast<double>(report.accepted) / seconds_since(start);
    c.f1 = live_graph_f1(daemon->engine(), in.truth);
    c.offered += n;
    c.failed += unaccepted(report, n);
    c.undrained += daemon->engine().dirty_pair_count();
    c.digests.push_back(report.final_digest);
  }

  // ---- paced (open loop) ----
  const std::string paced_dir = dir + "/paced";
  {
    auto source = std::make_unique<PacedSource>(
        in.lines, kPacedRate, stream::ServeConfig{}.events_per_tick);
    PacedSource* paced = source.get();
    LatencyTracker tracker;
    tracker.source = paced;
    stream::ServeConfig cfg = serve_config(paced_dir);
    cfg.after_tick = [&tracker](stream::ServeDaemon& d) {
      tracker.after_tick(d);
    };
    stream::ServeDaemon daemon(std::move(cfg), std::move(source));
    daemon.recover();
    const stream::ServeReport report = daemon.run();
    // The final drain runs after the last tick hook; it settles the rest.
    tracker.settle(daemon, Clock::now());
    c.latency_ms = std::move(tracker.latency_ms);
    c.gen_lag_ms = paced->lag_ms();
    c.backlog_end = paced->backlog_end();
    c.offered += n;
    c.failed += unaccepted(report, n);
    c.undrained += daemon.engine().dirty_pair_count();
    c.digests.push_back(report.final_digest);
  }

  // ---- recover the paced run's durable state ----
  {
    const auto start = Clock::now();
    stream::ServeDaemon daemon(
        serve_config(paced_dir),
        std::make_unique<PacedSource>(in.lines, kPacedRate, 1));
    daemon.recover();
    c.recover_s = seconds_since(start);
    daemon.engine().drain();
    c.digests.push_back(daemon.engine().state_digest());
  }
  std::filesystem::remove_all(dir);
  return c;
}

/// Per-layer drive: the daemon's per-tick work, one layer call at a time.
std::map<std::string, double> drive_stream(const Lines& lines,
                                           const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string journal_path = dir + "/journal.fsj";
  const std::string snapshot_path = dir + "/snapshot.fss";
  stream::StreamEngine engine(stream::EngineConfig{});
  stream::JournalWriter journal(journal_path);
  const std::size_t batch = stream::ServeConfig{}.events_per_tick;
  const double tick_budget_s = stream::ServeConfig{}.tick_budget_ms / 1e3;

  double append_ms = 0.0, ingest_ms = 0.0, decide_ms = 0.0;
  std::vector<double> tick_ms, sync_ms, snapshot_ms;
  std::size_t decided = 0, flips = 0, dirty_max = 0;
  std::vector<stream::RawEvent> events;
  const auto snapshot = [&](std::uint64_t consumed) {
    obs::Span span("drive.stream.snapshot");
    stream::Snapshot snap;
    snap.config_fingerprint = engine.config_fingerprint();
    snap.consumed_lines = consumed;
    snap.events = engine.events();
    stream::save_snapshot(snapshot_path, snap);
    stream::reset_journal(journal_path);
    span.end();
    snapshot_ms.push_back(span.milliseconds());
  };

  for (std::size_t start = 0, ticks = 0; start < lines.size();
       start += batch) {
    const std::size_t end = std::min(lines.size(), start + batch);
    events.clear();
    {
      obs::Span span("drive.stream.parse");
      for (std::size_t i = start; i < end; ++i) {
        stream::RawEvent event;
        if (stream::parse_event_line(lines[i], event))
          throw std::runtime_error("drive: line " + std::to_string(i) +
                                   " does not parse");
        events.push_back(std::move(event));
      }
    }
    {
      obs::Span span("drive.stream.journal.append");
      for (std::size_t i = 0; i < events.size(); ++i)
        journal.append_accepted(start + i, events[i]);
      span.end();
      append_ms += span.milliseconds();
    }
    {
      obs::Span span("drive.stream.ingest");
      for (const stream::RawEvent& event : events) engine.ingest(event);
      span.end();
      ingest_ms += span.milliseconds();
    }
    dirty_max = std::max(dirty_max, engine.dirty_pair_count());
    {
      obs::Span span("drive.stream.tick");
      const stream::TickReport report =
          engine.tick(runtime::Deadline::after_seconds(tick_budget_s));
      span.end();
      tick_ms.push_back(span.milliseconds());
      decide_ms += span.milliseconds();
      decided += report.processed;
      flips += report.edges_added + report.edges_removed;
    }
    {
      obs::Span span("drive.stream.journal.sync");
      journal.sync();
      span.end();
      sync_ms.push_back(span.milliseconds());
    }
    if (++ticks % kSnapshotEvery == 0) snapshot(end);
  }
  {
    obs::Span span("drive.stream.drain");
    decided += engine.drain();
    span.end();
    decide_ms += span.milliseconds();
  }
  snapshot(lines.size());

  obs::Span load_span("drive.stream.load_snapshot");
  const bool loaded = stream::load_snapshot(snapshot_path,
                                            engine.config_fingerprint())
                          .has_value();
  load_span.end();
  obs::Span journal_span("drive.stream.recover_journal");
  stream::recover_journal(journal_path);
  journal_span.end();
  if (!loaded) throw std::runtime_error("drive: snapshot did not load back");

  const double n = static_cast<double>(lines.size());
  std::map<std::string, double> m;
  m["stream.ingest_us"] = ingest_ms * 1e3 / n;
  m["stream.tick_ms_p50"] = percentile(tick_ms, 50.0);
  m["stream.tick_ms_p99"] = percentile(tick_ms, 99.0);
  m["stream.decided_pairs_per_s"] =
      decide_ms > 0.0 ? static_cast<double>(decided) / (decide_ms / 1e3) : 0.0;
  m["stream.dirty_pairs_max"] = static_cast<double>(dirty_max);
  m["stream.flip_ratio"] =
      decided > 0 ? static_cast<double>(flips) / static_cast<double>(decided)
                  : 0.0;
  m["stream.division_rebuilds"] =
      static_cast<double>(engine.division_rebuilds());
  m["stream.journal_append_us"] = append_ms * 1e3 / n;
  m["stream.journal_sync_ms"] = median(sync_ms);
  m["stream.snapshot_ms_p50"] = median(snapshot_ms);
  m["stream.snapshot_mb"] =
      static_cast<double>(std::filesystem::file_size(snapshot_path)) /
      (1024.0 * 1024.0);
  m["stream.load_snapshot_ms"] = load_span.milliseconds();
  m["stream.recover_journal_ms"] = journal_span.milliseconds();
  std::filesystem::remove_all(dir);
  return m;
}

}  // namespace

Outcome run_serve(const Options& options) {
  Outcome out;
  const Inputs in = make_inputs(options);
  const std::string dir = options.work_dir + "/serve";

  // Set-up samples, in groups before the cycles (as for the attack
  // workloads).
  std::vector<double> setup_s;
  const auto sample_setup = [&](std::size_t n) {
    const std::string setup_dir = dir + "/setup";
    for (std::size_t i = 0; i < n; ++i) {
      const auto start = Clock::now();
      const auto daemon = set_up_flood(in, setup_dir);
      setup_s.push_back(seconds_since(start));
      std::filesystem::remove_all(setup_dir);
    }
  };

  const auto window_start = Clock::now();
  RepeatBudget budget(options.trace ? options.seconds / 2 : options.seconds,
                      1);
  std::vector<Cycle> cycles;
  while (budget.another()) {
    sample_setup(std::min(kSetupGroup, kSetupRepeats - setup_s.size()));
    const auto start = Clock::now();
    cycles.push_back(
        run_cycle(in, dir + "/cycle" + std::to_string(cycles.size())));
    budget.record(seconds_since(start));
  }
  const double rss_mb = peak_rss_mb();
  sample_setup(kSetupRepeats - setup_s.size());

  std::vector<double> eps, latency, lag, recover, f1;
  std::size_t backlog = 0;
  for (const Cycle& c : cycles) {
    out.attempted += c.offered;
    out.failed += c.failed;
    eps.push_back(c.flood_eps);
    latency.insert(latency.end(), c.latency_ms.begin(), c.latency_ms.end());
    lag.insert(lag.end(), c.gen_lag_ms.begin(), c.gen_lag_ms.end());
    recover.push_back(c.recover_s);
    f1.push_back(c.f1);
    backlog = std::max(backlog, c.backlog_end);
    for (std::uint64_t digest : c.digests)
      if (digest != cycles.front().digests.front()) {
        out.gate_failures.push_back(
            "state digests differ across flood/paced/recovered daemons");
        break;
      }
    if (c.undrained != 0)
      out.gate_failures.push_back("a daemon stopped with dirty pairs");
    if (c.latency_ms.size() != in.lines->size())
      out.gate_failures.push_back("paced phase settled " +
                                  std::to_string(c.latency_ms.size()) +
                                  " of " +
                                  std::to_string(in.lines->size()) + " lines");
  }
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(cycles.front().digests.front()));
  out.details["state_digest"] = std::string(digest_hex);
  out.details["flood_eps"] = json_array(eps);
  out.details["setup_samples_s"] = json_array(setup_s);
  out.details["cycles"] = cycles.size();
  out.details["lines"] = in.lines->size();
  out.details["latency_samples"] = latency.size();
  out.details["paced_rate_per_s"] = kPacedRate;
  out.details["latency_p75_ms"] = percentile(latency, 75.0);
  out.details["latency_p90_ms"] = percentile(latency, 90.0);
  out.details["latency_p95_ms"] = percentile(latency, 95.0);
  out.details["latency_p99_ms"] = percentile(latency, 99.0);
  out.details["latency_p999_ms"] = percentile(latency, 99.9);
  out.details["latency_max_ms"] = percentile(latency, 100.0);

  if (!options.trace) {
    out.metrics["setup_s"] = median(setup_s);
    out.metrics["throughput_per_s"] = median(eps);
    out.metrics["p50_ms"] = percentile(latency, 50.0);
    out.metrics["peak_rss_mb"] = rss_mb;
    out.metrics["f1"] = median(f1);
    return out;
  }

  RepeatBudget drive_budget(options.seconds - seconds_since(window_start), 1);
  std::vector<std::map<std::string, double>> drives;
  while (drive_budget.another()) {
    const auto start = Clock::now();
    obs::tracer().clear();  // the file keeps the last pass's trace
    obs::tracer().enable();
    drives.push_back(drive_stream(*in.lines, dir + "/drive"));
    obs::tracer().disable();
    drive_budget.record(seconds_since(start));
    ++out.attempted;
  }
  for (const auto& [name, value] : drives.front()) {
    std::vector<double> v;
    for (const auto& d : drives) v.push_back(d.at(name));
    out.metrics[name] = median(v);
  }
  out.metrics["serve.gen_lag_ms_p99"] = percentile(lag, 99.0);
  out.metrics["serve.backlog_end"] = static_cast<double>(backlog);
  out.metrics["serve.recover_ms"] = median(recover) * 1e3;
  out.metrics["par.threads"] = static_cast<double>(par::threads());
  return out;
}

}  // namespace fsb
