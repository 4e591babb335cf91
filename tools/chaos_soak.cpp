// chaos_soak — randomized, seeded fault-injection soak for the FriendSeeker
// pipeline.
//
//   chaos_soak [--runs N] [--seed S] [--users U]
//              [--budget-mode | --stream-mode | --net-mode]
//              [--help]
//
// Soak mode (the default) generates a small synthetic world, runs one
// uninterrupted baseline attack, then replays the same attack N times under
// seeded failpoint schedules drawn from the compiled-in registry: injected
// kills at iteration boundaries (resumed from the on-disk checkpoint),
// checkpoint save/rename/load faults, transient loader I/O failures,
// latency injection, and NaN-poisoned training. After every run it checks
// three invariants:
//
//   1. resume-equivalence — runs whose faults are all equivalence-preserving
//      (kills, checkpoint I/O faults, retried opens, latency) end
//      byte-identical to the baseline;
//   2. no partial checkpoint files — a checkpoint.fsck.tmp must never
//      survive any attempt, killed or not;
//   3. fault accounting — every fault that fired maps to an observed kill,
//      a diagnostics entry, or is latency-only; nothing fails silently.
//
// Budget mode (--budget-mode) instead exercises graceful degradation:
// memory-capped and deadline-capped runs must complete with exit status 0,
// a last-good result, and a populated DegradationReport.
//
// Stream mode (--stream-mode) soaks the `friendseeker serve` ingestion
// path: a replayed check-in stream (with trailing poison lines) is killed
// mid-tick, torn mid-journal-write, and denied file opens under seeded
// schedules; every killed run is resumed from the journal + snapshot by a
// fresh daemon. Invariants: the post-drain engine digest is identical to
// the uninterrupted baseline, the quarantine census is preserved across
// kills, nothing is shed under kBlock, and the stream-assembled dataset
// drives the batch pipeline to byte-identical predictions.
//
// Net mode (--net-mode) soaks the socket front end: the same poisoned
// stream is replayed over the fs::net wire protocol by a real feed client
// (its own thread, retrying with backoff) while seeded faults kill the
// daemon between commit points, tear client sends mid-frame, drop
// connections server-side, tear ack writes, fail accept(2), and stall the
// sender. Killed daemons are rebuilt from snapshot+journal and rebind the
// same port; the client reconnects and resumes from the hello watermark.
// Invariants: the drained engine digest is byte-identical to the batch
// replay baseline, the quarantine census survives, nothing is shed, every
// fault leaves a trace (kill, reconnect, or counted accept failure), a
// stalled peer is idle-reaped, and a mid-ingest /metrics scrape returns
// parseable Prometheus text without delaying ingestion.
//
// The schedule stream is fully determined by --seed, so a CI failure
// reproduces locally with the same flags.
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "eval/pairs.h"
#include "graph/metrics.h"
#include "net/feed.h"
#include "net/server.h"
#include "net/socket.h"
#include "par/pool.h"
#include "stream/daemon.h"
#include "stream/source.h"
#include "util/args.h"
#include "util/binary_io.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/runtime.h"

namespace {

using namespace fs;
namespace fp = util::failpoint;

struct ScheduledFault {
  std::string name;
  fp::Config config;
};

struct Schedule {
  std::vector<ScheduledFault> faults;
  bool has_kill = false;
  bool perturbs_model = false;  // NaN faults change the trained model
};

struct SoakOptions {
  int runs = 25;
  std::uint64_t seed = 1;
  std::size_t users = 90;
  std::string work_dir;
};

struct Violation {
  int run = 0;
  std::string invariant;
  std::string detail;
};

struct World {
  data::Dataset dataset;
  eval::PairSplit split;
  core::FriendSeekerConfig config;
  std::string checkins_path;
  std::string edges_path;
};

World make_world(const SoakOptions& options) {
  data::SyntheticWorldConfig world_cfg;
  world_cfg.user_count = options.users;
  world_cfg.poi_count = options.users * 3;
  world_cfg.city_count = 3;
  world_cfg.weeks = 4;
  world_cfg.seed = 9;
  const auto generated = data::generate_world(world_cfg);

  World world;
  world.checkins_path = options.work_dir + "/checkins.txt";
  world.edges_path = options.work_dir + "/edges.txt";
  data::save_checkins_snap(generated.dataset, world.checkins_path,
                           world.edges_path);
  // Reload from disk so every soak run (which reloads under fault
  // injection) sees the identical post-densification dataset.
  world.dataset =
      data::load_checkins_snap(world.checkins_path, world.edges_path);
  world.split =
      eval::split_pairs(eval::sample_candidate_pairs(world.dataset), 0.7, 5);

  core::FriendSeekerConfig cfg;
  cfg.sigma = 50;
  cfg.presence.feature_dim = 12;
  cfg.presence.epochs = 3;
  cfg.presence.max_autoencoder_rows = 120;
  cfg.max_iterations = 4;
  // Never converge early: a fixed iteration count makes kill schedules
  // cover every boundary and keeps run time predictable.
  cfg.convergence_threshold = 0.0;
  world.config = cfg;
  return world;
}

/// One seeded schedule. Kill runs inject `pipeline.iteration.abort` plus
/// (sometimes) an equivalence-preserving checkpoint or loader fault, timed
/// so its evidence lands in the final (surviving) attempt's diagnostics.
/// Every sixth run is instead a model-perturbing NaN run.
Schedule make_schedule(int run_index, const SoakOptions& options,
                       int max_iterations) {
  util::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL +
                static_cast<std::uint64_t>(run_index));
  Schedule schedule;
  if (run_index % 6 == 5) {
    // NaN run: poison one training step; the pipeline retries or degrades.
    schedule.perturbs_model = true;
    ScheduledFault fault;
    fault.name = rng.uniform() < 0.5 ? "nn.train.nan" : "ml.svm.nan";
    fault.config.action = fp::Action::kNan;
    fault.config.limit = 1;
    schedule.faults.push_back(fault);
    return schedule;
  }

  schedule.has_kill = true;
  const int kill_after =
      1 + static_cast<int>(
              rng.next_u64(static_cast<std::uint64_t>(max_iterations)));
  ScheduledFault kill;
  kill.name = "pipeline.iteration.abort";
  kill.config.action = fp::Action::kError;
  kill.config.skip = kill_after - 1;
  kill.config.limit = 1;
  schedule.faults.push_back(kill);

  const double extra = rng.uniform();
  if (extra < 0.25 && kill_after < max_iterations) {
    // A checkpoint save fault timed to fire in the post-kill attempt, so
    // the surviving result's diagnostics carry the evidence.
    ScheduledFault save;
    save.name = rng.uniform() < 0.5 ? "checkpoint.save.io"
                                    : "checkpoint.save.rename";
    save.config.action = fp::Action::kError;
    save.config.skip =
        kill_after +
        static_cast<int>(rng.next_u64(
            static_cast<std::uint64_t>(max_iterations - kill_after)));
    save.config.limit = 1;
    schedule.faults.push_back(save);
  } else if (extra < 0.5) {
    // The resume load sees a torn checkpoint and restarts from phase 1.
    ScheduledFault torn;
    torn.name = "checkpoint.load.truncate";
    torn.config.action = fp::Action::kTruncate;
    torn.config.limit = 1;
    schedule.faults.push_back(torn);
  } else if (extra < 0.75) {
    // Transient open failure, absorbed by the loader's retry policy.
    ScheduledFault open_fault;
    open_fault.name = "data.load.open";
    open_fault.config.action = fp::Action::kError;
    open_fault.config.limit = 1;
    schedule.faults.push_back(open_fault);
  } else {
    // Pure latency: must be behaviourally invisible.
    ScheduledFault latency;
    latency.name = "data.load.open";
    latency.config.action = fp::Action::kLatency;
    latency.config.latency_ms = 1;
    latency.config.limit = 2;
    schedule.faults.push_back(latency);
  }
  return schedule;
}

std::size_t count_diagnostics(const util::Diagnostics& diagnostics,
                              const char* needle) {
  std::size_t hits = 0;
  for (const auto& entry : diagnostics.entries())
    if (entry.message.find(needle) != std::string::npos) ++hits;
  return hits;
}

bool scores_identical(const std::vector<double>& a,
                      const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

int run_soak(const SoakOptions& options) {
  const World world = make_world(options);
  std::printf("chaos_soak: world users=%zu pairs=%zu seed=%llu runs=%d\n",
              world.dataset.user_count(),
              world.split.train_pairs.size() + world.split.test_pairs.size(),
              static_cast<unsigned long long>(options.seed), options.runs);

  core::FriendSeeker baseline_seeker(world.config);
  const core::FriendSeekerResult baseline = baseline_seeker.run(
      world.dataset, world.split.train_pairs, world.split.train_labels,
      world.split.test_pairs);
  std::printf("chaos_soak: baseline iterations=%d edges=%zu\n",
              baseline.iterations_run, baseline.final_graph.edge_count());

  std::vector<Violation> violations;
  const auto violation = [&](int run, std::string invariant,
                             std::string detail) {
    violations.push_back(
        Violation{run, std::move(invariant), std::move(detail)});
  };

  int interrupted_and_resumed = 0;
  std::uint64_t total_fired = 0;
  for (int run = 0; run < options.runs; ++run) {
    const Schedule schedule =
        make_schedule(run, options, world.config.max_iterations);
    const std::string checkpoint_dir =
        options.work_dir + "/run_" + std::to_string(run);
    std::filesystem::remove_all(checkpoint_dir);

    fp::clear();
    for (const ScheduledFault& fault : schedule.faults)
      fp::activate(fault.name, fault.config);

    core::FriendSeekerConfig cfg = world.config;
    cfg.checkpoint_dir = checkpoint_dir;
    util::Diagnostics loader_diagnostics;  // survives killed attempts

    int kills = 0;
    bool completed = false;
    core::FriendSeekerResult result;
    while (!completed) {
      const auto check_no_partial = [&] {
        if (std::filesystem::exists(checkpoint_dir + "/checkpoint.fsck.tmp"))
          violation(run, "no-partial-checkpoint",
                    "stray checkpoint.fsck.tmp after attempt");
      };
      try {
        // Reload from disk each attempt: loader faults (retried opens,
        // latency) are part of the schedule.
        data::LoadOptions load_options;
        load_options.diagnostics = &loader_diagnostics;
        const data::Dataset dataset = data::load_checkins_snap(
            world.checkins_path, world.edges_path, load_options);
        core::FriendSeeker seeker(cfg);
        result = seeker.run(dataset, world.split.train_pairs,
                            world.split.train_labels, world.split.test_pairs);
        completed = true;
        check_no_partial();
      } catch (const fp::InjectedKill&) {
        ++kills;
        check_no_partial();
        if (kills > 8) {
          violation(run, "liveness", "kill budget never exhausted");
          break;
        }
        cfg.resume = true;  // come back from the on-disk checkpoint
      } catch (const std::exception& e) {
        violation(run, "liveness",
                  std::string("run died on un-degradable fault: ") +
                      e.what());
        break;
      }
    }
    if (!completed) continue;
    if (kills > 0) ++interrupted_and_resumed;

    // ---- invariant: every fired fault is accounted for. ----
    for (const ScheduledFault& fault : schedule.faults) {
      const std::uint64_t fired = fp::triggers(fault.name);
      total_fired += fired;
      if (fired == 0) continue;
      bool accounted = false;
      std::string evidence;
      if (fault.name == "pipeline.iteration.abort") {
        accounted = static_cast<std::uint64_t>(kills) == fired;
        evidence = std::to_string(kills) + " observed kills";
      } else if (fault.config.action == fp::Action::kLatency) {
        accounted = true;  // latency is delay-only by contract
      } else if (fault.name == "data.load.open") {
        accounted = count_diagnostics(loader_diagnostics, "retrying") >=
                    fired;
        evidence = "loader retry diagnostics";
      } else if (fault.name == "checkpoint.save.io" ||
                 fault.name == "checkpoint.save.rename") {
        accounted = count_diagnostics(result.diagnostics,
                                      "checkpoint save failed") >= fired;
        evidence = "pipeline save-failure diagnostics";
      } else if (fault.name == "checkpoint.load.truncate") {
        accounted =
            count_diagnostics(result.diagnostics, "cannot resume") >= fired;
        evidence = "pipeline rejected-checkpoint diagnostics";
      } else if (fault.name == "nn.train.nan" ||
                 fault.name == "ml.svm.nan") {
        for (const auto& entry : result.diagnostics.entries())
          if (entry.code == ErrorCode::kNumeric ||
              entry.code == ErrorCode::kConvergence)
            accounted = true;
        evidence = "numeric-degradation diagnostics";
      }
      if (!accounted)
        violation(run, "fault-accounting",
                  fault.name + " fired " + std::to_string(fired) +
                      "x but left no trace (" + evidence + ")");
    }

    // ---- invariant: equivalence-preserving runs match the baseline. ----
    if (!schedule.perturbs_model) {
      if (result.test_predictions != baseline.test_predictions)
        violation(run, "resume-equivalence", "test predictions diverged");
      if (!scores_identical(result.test_scores, baseline.test_scores))
        violation(run, "resume-equivalence",
                  "test scores are not byte-identical");
      if (graph::edge_change_ratio(result.final_graph,
                                   baseline.final_graph) != 0.0)
        violation(run, "resume-equivalence", "final graph diverged");
    }

    std::filesystem::remove_all(checkpoint_dir);
  }

  fp::clear();
  std::printf("chaos_soak: %d/%d runs interrupted+resumed, %llu faults "
              "fired, %zu invariant violations\n",
              interrupted_and_resumed, options.runs,
              static_cast<unsigned long long>(total_fired),
              violations.size());
  for (const Violation& v : violations)
    std::fprintf(stderr, "violation (run %d, %s): %s\n", v.run,
                 v.invariant.c_str(), v.detail.c_str());
  if (total_fired == 0) {
    std::fprintf(stderr, "chaos_soak: no faults fired — schedule bug\n");
    return 1;
  }
  return violations.empty() ? 0 : 1;
}

/// Writes the streaming input: every batch check-in line verbatim, plus a
/// trailing poison block (one line per structured reject reason the parser
/// can hit on a replay) so the quarantine census is nontrivial and its
/// crash-survival is actually exercised.
std::string write_stream_input(const World& world,
                               const SoakOptions& options) {
  const std::string path = options.work_dir + "/stream_checkins.txt";
  std::ifstream in(world.checkins_path, std::ios::binary);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
  out << "7\tmalformed\n";                                   // short line
  out << "7\t2010-13-40T99:99:99Z\t10.0\t20.0\t3\n";          // bad timestamp
  out << "7\t2010-10-19T23:55:27Z\t95.0\t20.0\t3\n";          // |lat| > 90
  out << "7\t2010-10-19T23:55:27Z\t10.0\t20.0\tnot-a-poi\n";  // bad number
  return path;
}

stream::ServeConfig make_serve_config(std::string journal_dir) {
  stream::ServeConfig cfg;
  cfg.ring_capacity = 64;
  cfg.backpressure = stream::Backpressure::kBlock;
  cfg.events_per_tick = 16;
  cfg.tick_budget_ms = 0;  // unlimited decide phase: deterministic ticks
  cfg.snapshot_every = 4;
  cfg.journal_dir = std::move(journal_dir);
  return cfg;
}

int run_stream_soak(const SoakOptions& options) {
  const World world = make_world(options);
  const std::string stream_path = write_stream_input(world, options);

  // Uninterrupted baseline: replay the whole stream once, fault-free.
  fp::clear();
  const std::string baseline_dir = options.work_dir + "/stream_baseline";
  std::filesystem::remove_all(baseline_dir);
  std::filesystem::create_directories(baseline_dir);
  stream::ServeDaemon baseline_daemon(
      make_serve_config(baseline_dir),
      std::make_unique<stream::ReplaySource>(stream_path));
  const stream::ServeReport baseline = baseline_daemon.run();
  const auto baseline_counts = baseline_daemon.quarantine().counts();
  std::printf("stream-soak: baseline lines=%llu accepted=%llu "
              "quarantined=%llu edges=%llu digest=%016llx\n",
              static_cast<unsigned long long>(baseline.consumed_lines),
              static_cast<unsigned long long>(baseline.accepted),
              static_cast<unsigned long long>(baseline.quarantined),
              static_cast<unsigned long long>(baseline.live_edges),
              static_cast<unsigned long long>(baseline.final_digest));
  if (!baseline.exhausted || baseline.quarantined != 4 ||
      baseline.shed != 0) {
    std::fprintf(stderr, "stream-soak: baseline malformed (exhausted=%d "
                 "quarantined=%llu shed=%llu)\n",
                 baseline.exhausted ? 1 : 0,
                 static_cast<unsigned long long>(baseline.quarantined),
                 static_cast<unsigned long long>(baseline.shed));
    return 1;
  }

  std::vector<Violation> violations;
  const auto violation = [&](int run, std::string invariant,
                             std::string detail) {
    violations.push_back(
        Violation{run, std::move(invariant), std::move(detail)});
  };

  // ---- differential: the stream-assembled dataset must drive the batch
  // pipeline to byte-identical results. ----
  {
    const auto raw_edges = data::read_edges_file(world.edges_path);
    const data::Dataset stream_ds =
        baseline_daemon.engine().to_dataset(raw_edges);
    if (stream_ds.user_count() != world.dataset.user_count() ||
        stream_ds.poi_count() != world.dataset.poi_count())
      violation(-1, "stream-to-batch",
                "stream dataset shape diverged from batch load");
    core::FriendSeekerConfig cfg = world.config;
    cfg.max_iterations = 2;
    core::FriendSeeker batch_seeker(cfg);
    const auto batch_result = batch_seeker.run(
        world.dataset, world.split.train_pairs, world.split.train_labels,
        world.split.test_pairs);
    core::FriendSeeker stream_seeker(cfg);
    const auto stream_result = stream_seeker.run(
        stream_ds, world.split.train_pairs, world.split.train_labels,
        world.split.test_pairs);
    if (stream_result.test_predictions != batch_result.test_predictions)
      violation(-1, "stream-to-batch", "pipeline predictions diverged");
    if (!scores_identical(stream_result.test_scores,
                          batch_result.test_scores))
      violation(-1, "stream-to-batch",
                "pipeline scores are not byte-identical");
    if (graph::edge_change_ratio(stream_result.final_graph,
                                 batch_result.final_graph) != 0.0)
      violation(-1, "stream-to-batch", "pipeline final graph diverged");
    std::printf("stream-soak: stream-to-batch pipeline differential %s\n",
                violations.empty() ? "identical" : "DIVERGED");
  }

  // Seeded fault runs. Each picks one stream fault; every killed attempt
  // is resumed by a brand-new daemon over a brand-new source, so recovery
  // is always from durable state alone.
  int interrupted_and_resumed = 0;
  std::uint64_t total_fired = 0;
  const std::uint64_t total_ticks =
      baseline.consumed_lines / 16 + 2;  // matches events_per_tick above
  for (int run = 0; run < options.runs; ++run) {
    util::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 0xace5ULL +
                  static_cast<std::uint64_t>(run));
    fp::clear();
    std::string fault_name;
    fp::Config fault_cfg;
    bool absorbed = false;  // absorbed faults must NOT kill the daemon
    switch (run % 3) {
      case 0:  // mid-stream kill between commit points
        fault_name = "stream.tick.abort";
        fault_cfg.action = fp::Action::kError;
        fault_cfg.skip = static_cast<int>(rng.next_u64(total_ticks));
        fault_cfg.limit = 1;
        break;
      case 1:  // torn journal write: partial frame hits the disk
        fault_name = "stream.journal.torn_write";
        fault_cfg.action = fp::Action::kTruncate;
        fault_cfg.skip =
            static_cast<int>(rng.next_u64(baseline.consumed_lines));
        fault_cfg.limit = 1;
        break;
      default:  // transient open failure, absorbed by the retry policy
        fault_name = "stream.source.open_fail";
        fault_cfg.action = fp::Action::kError;
        fault_cfg.limit = 1;
        absorbed = true;
        break;
    }
    fp::activate(fault_name, fault_cfg);

    const std::string dir =
        options.work_dir + "/stream_run_" + std::to_string(run);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    int kills = 0;
    bool completed = false;
    bool truncation_seen = false;
    stream::ServeReport report;
    std::array<std::uint64_t, stream::kRejectReasonCount> counts{};
    while (!completed) {
      stream::ServeDaemon daemon(
          make_serve_config(dir),
          std::make_unique<stream::ReplaySource>(stream_path));
      const auto info = daemon.recover();
      truncation_seen = truncation_seen || info.journal_truncated;
      try {
        report = daemon.run();
        counts = daemon.quarantine().counts();
        completed = true;
      } catch (const fp::InjectedKill&) {
        ++kills;
      } catch (const IoError&) {
        ++kills;  // torn journal write surfaces as an I/O crash
      }
      if (kills > 8) {
        violation(run, "liveness", "kill budget never exhausted");
        break;
      }
    }
    if (!completed) continue;
    if (kills > 0) ++interrupted_and_resumed;

    // ---- invariant: fault accounting. ----
    const std::uint64_t fired = fp::triggers(fault_name);
    total_fired += fired;
    if (fired > 0) {
      if (absorbed) {
        if (kills != 0)
          violation(run, "fault-accounting",
                    fault_name + " should be retry-absorbed but killed " +
                        std::to_string(kills) + "x");
      } else if (kills == 0) {
        violation(run, "fault-accounting",
                  fault_name + " fired " + std::to_string(fired) +
                      "x but no kill was observed");
      } else if (fault_name == "stream.journal.torn_write" &&
                 !truncation_seen) {
        violation(run, "fault-accounting",
                  "torn write fired but recovery never cut a torn tail");
      }
    }

    // ---- invariant: convergence to the uninterrupted baseline. ----
    if (report.final_digest != baseline.final_digest)
      violation(run, "resume-equivalence",
                "post-drain digest diverged from baseline");
    if (report.shed != 0)
      violation(run, "resume-equivalence", "kBlock run shed lines");
    if (counts != baseline_counts)
      violation(run, "quarantine-census",
                "quarantine counts diverged across kill/resume");

    std::filesystem::remove_all(dir);
  }

  fp::clear();
  std::printf("stream-soak: %d/%d runs interrupted+resumed, %llu faults "
              "fired, %zu invariant violations\n",
              interrupted_and_resumed, options.runs,
              static_cast<unsigned long long>(total_fired),
              violations.size());
  for (const Violation& v : violations)
    std::fprintf(stderr, "violation (run %d, %s): %s\n", v.run,
                 v.invariant.c_str(), v.detail.c_str());
  if (total_fired == 0) {
    std::fprintf(stderr, "stream-soak: no faults fired — schedule bug\n");
    return 1;
  }
  return violations.empty() ? 0 : 1;
}

net::NetConfig make_net_config(std::uint16_t port) {
  net::NetConfig cfg;
  cfg.port = port;
  cfg.idle_timeout_ms = 400.0;  // short: the stalled-peer reap is on-path
  cfg.poll_interval_ms = 5.0;
  return cfg;
}

stream::ServeConfig make_net_serve_config(std::string journal_dir) {
  stream::ServeConfig cfg = make_serve_config(std::move(journal_dir));
  cfg.stop_when_exhausted = false;  // a listener never runs dry
  cfg.idle_sleep_ms = 1.0;
  return cfg;
}

/// Plain blocking HTTP GET against the scrape side of the server.
std::string http_get(std::uint16_t port, const std::string& target) {
  net::Fd fd = net::connect_tcp("127.0.0.1", port);
  net::set_recv_timeout(fd.get(), 5000.0);
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: soak\r\n"
                              "Connection: close\r\n\r\n";
  if (!util::write_all_eintr(fd.get(), request.data(), request.size()))
    return {};
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = util::read_eintr(fd.get(), buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  return response;
}

/// Everything one network ingest pass produces, across however many
/// daemon incarnations the faults forced.
struct IngestOutcome {
  net::FeedReport feed;
  std::string feed_error;
  int kills = 0;
  bool completed = false;
  std::uint64_t digest = 0;
  std::uint64_t shed = 0;
  std::array<std::uint64_t, stream::kRejectReasonCount> counts{};
  net::NetStats final_stats;       // of the last (surviving) server
  std::string metrics_body;        // mid-ingest /metrics scrape, if probed
};

/// Drives one full wire-protocol ingest of `stream_path`: a feed client on
/// its own thread (generous retry budget — it must survive daemon
/// restarts), the serve daemon chunk-ticking on this thread, and on every
/// injected kill a full teardown + recovery: new server bound to the SAME
/// port, new daemon recovered from snapshot+journal. The server is started
/// only after recovery has published the resume base, so a reconnecting
/// client can never see a stale hello watermark.
IngestOutcome run_net_ingest(const std::string& dir,
                             const std::string& stream_path,
                             std::uint64_t client_seed, bool with_probes) {
  IngestOutcome out;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::uint16_t port = 0;
  std::unique_ptr<net::NetServer> server;
  std::atomic<bool> client_done{false};
  std::thread client;
  std::optional<net::Fd> stalled;

  while (!out.completed && out.kills <= 8) {
    server = std::make_unique<net::NetServer>(make_net_config(port));
    stream::ServeConfig cfg = make_net_serve_config(dir);
    net::NetServer* srv = server.get();
    cfg.after_tick = [srv](stream::ServeDaemon& d) {
      if (srv->commit_pending()) {
        d.sync_journal();
        srv->publish_durable(d.journaled_watermark());
      }
    };
    stream::ServeDaemon daemon(cfg,
                               std::make_unique<net::SocketSource>(*server));
    try {
      daemon.recover();  // publishes the resume base — BEFORE listening
      server->start();
      if (port == 0) {
        port = server->port();
        net::FeedOptions fopts;
        fopts.port = port;
        fopts.retry.max_attempts = 200;
        fopts.retry.backoff_ms = 5.0;
        fopts.retry.multiplier = 1.0;  // flat: restarts are cheap, poll often
        fopts.retry.seed = client_seed;
        fopts.ack_timeout_ms = 2000.0;
        client = std::thread([&out, &client_done, fopts, stream_path] {
          try {
            out.feed = net::feed_file(stream_path, fopts);
          } catch (const std::exception& e) {
            out.feed_error = e.what();
          }
          client_done.store(true);
        });
        if (with_probes) {
          // A peer that connects and then says nothing: must be reaped,
          // and must not delay the ingest happening around it.
          stalled.emplace(net::connect_tcp("127.0.0.1", port));
          out.metrics_body = http_get(port, "/metrics");
        }
      }
      while (!client_done.load()) daemon.run_for(8);
      if (with_probes) {
        // Keep serving until the stalled peer hits its idle deadline.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (server->stats().connections_reaped == 0 &&
               std::chrono::steady_clock::now() < deadline)
          daemon.run_for(4);
      }
      daemon.run_for(4);  // absorb any straggler items, then drain
      daemon.finish();
      out.digest = daemon.report().final_digest;
      out.shed = daemon.report().shed;
      out.counts = daemon.quarantine().counts();
      out.completed = true;
    } catch (const fp::InjectedKill&) {
      ++out.kills;
    } catch (const IoError&) {
      ++out.kills;  // torn journal write surfaces as an I/O crash
    }
    if (!out.completed) server->stop();
  }

  if (server != nullptr) {
    out.final_stats = server->stats();
    server->stop();
  }
  stalled.reset();
  if (client.joinable()) client.join();
  return out;
}

int run_net_soak(const SoakOptions& options) {
  const World world = make_world(options);
  const std::string stream_path = write_stream_input(world, options);

  // Uninterrupted batch replay of the same input: the digest every
  // network ingest must converge to, byte for byte.
  fp::clear();
  const std::string baseline_dir = options.work_dir + "/net_baseline";
  std::filesystem::remove_all(baseline_dir);
  std::filesystem::create_directories(baseline_dir);
  stream::ServeDaemon baseline_daemon(
      make_serve_config(baseline_dir),
      std::make_unique<stream::ReplaySource>(stream_path));
  const stream::ServeReport baseline = baseline_daemon.run();
  const auto baseline_counts = baseline_daemon.quarantine().counts();
  std::printf("net-soak: baseline lines=%llu quarantined=%llu "
              "digest=%016llx\n",
              static_cast<unsigned long long>(baseline.consumed_lines),
              static_cast<unsigned long long>(baseline.quarantined),
              static_cast<unsigned long long>(baseline.final_digest));
  if (!baseline.exhausted || baseline.quarantined != 4) {
    std::fprintf(stderr, "net-soak: baseline malformed\n");
    return 1;
  }

  std::vector<Violation> violations;
  const auto violation = [&](int run, std::string invariant,
                             std::string detail) {
    violations.push_back(
        Violation{run, std::move(invariant), std::move(detail)});
  };
  const auto check_converged = [&](int run, const IngestOutcome& out) {
    if (!out.feed_error.empty())
      violation(run, "liveness", "feed client died: " + out.feed_error);
    else if (!out.feed.committed ||
             out.feed.durable_watermark != baseline.consumed_lines)
      violation(run, "durability",
                "client commit not durably acked through " +
                    std::to_string(baseline.consumed_lines));
    if (out.digest != baseline.final_digest)
      violation(run, "resume-equivalence",
                "net-ingested digest diverged from batch replay");
    if (out.shed != 0)
      violation(run, "resume-equivalence", "kBlock run shed lines");
    if (out.counts != baseline_counts)
      violation(run, "quarantine-census",
                "quarantine counts diverged over the wire");
  };

  // ---- fault-free probe pass: stalled peer + mid-ingest scrape. ----
  {
    fp::clear();
    const IngestOutcome out = run_net_ingest(
        options.work_dir + "/net_probe", stream_path, options.seed, true);
    if (!out.completed) {
      violation(-1, "liveness", "probe ingest never completed");
    } else {
      check_converged(-1, out);
      if (out.final_stats.connections_reaped == 0)
        violation(-1, "idle-reaping", "stalled peer was never reaped");
      if (out.metrics_body.find("200 OK") == std::string::npos ||
          out.metrics_body.find("# TYPE") == std::string::npos ||
          out.metrics_body.find("net_frames_total") == std::string::npos)
        violation(-1, "scrape",
                  "/metrics mid-ingest was not parseable Prometheus text");
    }
    std::printf("net-soak: probe pass %s (reaped=%llu, scrape %zu bytes)\n",
                violations.empty() ? "converged" : "FAILED",
                static_cast<unsigned long long>(
                    out.final_stats.connections_reaped),
                out.metrics_body.size());
  }

  // ---- seeded fault runs. ----
  const std::uint64_t total_ticks = baseline.consumed_lines / 16 + 2;
  int interrupted_and_resumed = 0;
  std::uint64_t total_fired = 0;
  for (int run = 0; run < options.runs; ++run) {
    util::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 0xfeedULL +
                  static_cast<std::uint64_t>(run));
    fp::clear();
    std::string fault_name;
    fp::Config fault_cfg;
    bool expect_kill = false;       // daemon must die and be rebuilt
    bool expect_reconnect = false;  // client must reconnect and resume
    switch (run % 6) {
      case 0:  // daemon killed between commit points
        fault_name = "stream.tick.abort";
        fault_cfg.action = fp::Action::kError;
        fault_cfg.skip = static_cast<int>(rng.next_u64(total_ticks));
        fault_cfg.limit = 1;
        expect_kill = true;
        break;
      case 1:  // client send torn mid-frame
        fault_name = "net.feed.torn_send";
        fault_cfg.action = fp::Action::kTruncate;
        fault_cfg.skip =
            static_cast<int>(rng.next_u64(baseline.consumed_lines));
        fault_cfg.limit = 1;
        expect_reconnect = true;
        break;
      case 2:  // server drops the connection mid-stream
        fault_name = "net.conn.drop";
        fault_cfg.action = fp::Action::kError;
        // Evaluated once per live connection per poll iteration; a fast
        // feed only spans a few dozen iterations, so keep the skip small
        // enough that the drop lands while the connection exists.
        fault_cfg.skip = static_cast<int>(rng.next_u64(8));
        fault_cfg.limit = 1;
        expect_reconnect = true;
        break;
      case 3:  // server-side torn write (hello/ack desync)
        fault_name = "net.write.torn";
        fault_cfg.action = fp::Action::kTruncate;
        fault_cfg.limit = 1;
        expect_reconnect = true;
        break;
      case 4:  // transient accept(2) failure, absorbed by the backlog
        fault_name = "net.accept.fail";
        fault_cfg.action = fp::Action::kError;
        fault_cfg.limit = 1;
        break;
      default:  // sender stall: pure latency, behaviourally invisible
        fault_name = "net.feed.stall";
        fault_cfg.action = fp::Action::kLatency;
        fault_cfg.latency_ms = 1;
        fault_cfg.limit = 2;
        break;
    }
    fp::activate(fault_name, fault_cfg);

    const std::string dir =
        options.work_dir + "/net_run_" + std::to_string(run);
    const IngestOutcome out = run_net_ingest(
        dir, stream_path,
        options.seed + 0xc11e47ULL + static_cast<std::uint64_t>(run),
        false);
    if (!out.completed) {
      violation(run, "liveness", "kill budget never exhausted");
      continue;
    }
    if (out.kills > 0) ++interrupted_and_resumed;

    // ---- invariant: fault accounting — nothing fails silently. ----
    const std::uint64_t fired = fp::triggers(fault_name);
    total_fired += fired;
    if (fired == 0)
      violation(run, "fault-accounting", fault_name + " never fired");
    if (expect_kill && fired > 0 && out.kills == 0)
      violation(run, "fault-accounting",
                fault_name + " fired but the daemon never died");
    if (!expect_kill && out.kills != 0)
      violation(run, "fault-accounting",
                fault_name + " should not kill the daemon but did");
    // A disconnect fault that lands before the final ack forces the
    // client back for a retry; one that lands after it (ack delivered,
    // socket not yet closed) is invisible to the client by design. So the
    // trace is either a reconnect or an intact durable commit — a fired
    // disconnect with neither is silent loss.
    if (expect_reconnect && fired > 0 && out.feed.reconnects == 0 &&
        !(out.feed_error.empty() && out.feed.committed))
      violation(run, "fault-accounting",
                fault_name + " fired, no reconnect, and no durable commit");
    if (fault_name == "net.accept.fail" && fired > 0 &&
        out.final_stats.accept_failures == 0)
      violation(run, "fault-accounting",
                "accept failure fired but was not counted");

    // ---- invariant: convergence to the batch baseline. ----
    check_converged(run, out);
    std::filesystem::remove_all(dir);
  }

  fp::clear();
  std::printf("net-soak: %d/%d runs interrupted+resumed, %llu faults "
              "fired, %zu invariant violations\n",
              interrupted_and_resumed, options.runs,
              static_cast<unsigned long long>(total_fired),
              violations.size());
  for (const Violation& v : violations)
    std::fprintf(stderr, "violation (run %d, %s): %s\n", v.run,
                 v.invariant.c_str(), v.detail.c_str());
  if (total_fired == 0) {
    std::fprintf(stderr, "net-soak: no faults fired — schedule bug\n");
    return 1;
  }
  return violations.empty() ? 0 : 1;
}

int run_budget_mode(const SoakOptions& options) {
  const World world = make_world(options);
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "budget-mode expectation failed: %s\n", what);
      ++failures;
    }
  };

  const auto attack = [&](core::FriendSeekerConfig cfg) {
    core::FriendSeeker seeker(cfg);
    return seeker.run(world.dataset, world.split.train_pairs,
                      world.split.train_labels, world.split.test_pairs);
  };

  // Probe the phase-1 footprint, then allow just that much: phase 2 must
  // degrade to the last-good (phase-1) graph instead of dying.
  runtime::ExecutionContext probe;
  core::FriendSeekerConfig probe_cfg = world.config;
  probe_cfg.context = &probe;
  probe_cfg.iterate = false;
  (void)attack(probe_cfg);
  expect(probe.peak_charged() > 0, "probe charged no memory");

  runtime::ExecutionContext capped;
  capped.set_memory_limit(probe.peak_charged() + 1024);
  core::FriendSeekerConfig capped_cfg = world.config;
  capped_cfg.context = &capped;
  const core::FriendSeekerResult capped_result = attack(capped_cfg);
  expect(capped_result.degradation.degraded(),
         "memory-capped run reported no degradation");
  expect(!capped_result.degradation.phases.empty() &&
             capped_result.degradation.phases.front().reason == "memory",
         "memory-capped run did not degrade on the memory budget");
  expect(capped_result.test_predictions.size() ==
             world.split.test_pairs.size(),
         "memory-capped run returned no last-good predictions");
  std::printf("budget-mode: memory-capped run degraded as expected:\n%s\n",
              capped_result.degradation.to_string().c_str());

  // A spent phase-2 deadline truncates at the first iteration boundary.
  runtime::ExecutionContext timed;
  core::FriendSeekerConfig timed_cfg = world.config;
  timed_cfg.context = &timed;
  timed_cfg.phase2_budget_sec = 1e-9;
  const core::FriendSeekerResult timed_result = attack(timed_cfg);
  expect(timed_result.degradation.degraded() &&
             timed_result.degradation.phases.front().reason == "deadline",
         "deadline-capped run did not degrade on the deadline");
  expect(timed_result.iterations_run == 0,
         "deadline-capped run still iterated");

  // The iteration cap on a governed run is reported, not silent.
  runtime::ExecutionContext iter_ctx;
  core::FriendSeekerConfig iter_cfg = world.config;
  iter_cfg.context = &iter_ctx;
  iter_cfg.max_iterations = 1;
  const core::FriendSeekerResult iter_result = attack(iter_cfg);
  expect(iter_result.degradation.degraded() &&
             iter_result.degradation.phases.front().reason == "iterations",
         "iteration-capped run did not report the cap");

  std::printf("budget-mode: %s\n",
              failures == 0 ? "all degradation paths verified"
                            : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args;
  args.add_option("runs", "25", "number of seeded chaos runs");
  args.add_option("seed", "1", "schedule stream seed");
  args.add_option("users", "90", "synthetic world size");
  args.add_option("work-dir", "", "scratch directory (default: a temp dir)");
  args.add_option("threads", "0",
                  "worker threads for parallel regions (0 = FS_THREADS env "
                  "or hardware concurrency)");
  args.add_flag("budget-mode",
                "verify graceful degradation under memory/deadline budgets "
                "instead of running the soak");
  args.add_flag("stream-mode",
                "soak the serve/streaming path: seeded mid-stream kills, "
                "torn journal writes, open failures, digest convergence");
  args.add_flag("net-mode",
                "soak the socket front end: a real feed client under "
                "daemon kills, torn sends, dropped connections, accept "
                "failures; digest convergence to the batch baseline");
  args.add_flag("help", "show options");
  try {
    args.parse(argc, argv, 1);
    if (args.get_flag("help")) {
      std::fprintf(stderr, "usage: chaos_soak [options]\n%s",
                   args.help().c_str());
      return 0;
    }
    par::set_threads(static_cast<std::size_t>(args.get_int_in(
        "threads", 0, static_cast<long long>(par::kMaxThreads))));
    SoakOptions options;
    options.runs = static_cast<int>(
        args.get_int_in("runs", 0, std::numeric_limits<int>::max()));
    options.seed = static_cast<std::uint64_t>(
        args.get_int_in("seed", 0, std::numeric_limits<long long>::max()));
    options.users = static_cast<std::size_t>(
        args.get_int_in("users", 0, std::numeric_limits<long long>::max()));
    options.work_dir = args.get("work-dir");
    if (options.work_dir.empty())
      options.work_dir =
          (std::filesystem::temp_directory_path() / "fs_chaos_soak")
              .string();
    std::filesystem::create_directories(options.work_dir);
    if (args.get_flag("budget-mode")) return run_budget_mode(options);
    if (args.get_flag("stream-mode")) return run_stream_soak(options);
    if (args.get_flag("net-mode")) return run_net_soak(options);
    return run_soak(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos_soak: %s\n", e.what());
    return 1;
  }
}
