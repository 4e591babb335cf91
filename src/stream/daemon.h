// The `friendseeker serve` daemon loop: source → ring → validate →
// journal → engine, with crash recovery, backpressure, SLOs, and
// fault-injection kill points.
//
// Tick anatomy (one iteration of run()):
//
//   1. poll    — pull lines from the source into the ring. kBlock polls
//                only into free space (lossless); kShed journals and drops
//                the overflow.
//   2. consume — pop up to events_per_tick lines: parse + preflight, then
//                journal the disposition frame BEFORE applying (WAL
//                ordering: the frame is the commit point), then apply to
//                the engine or the quarantine.
//   3. decide  — engine.tick() re-decides the dirty pair frontier under
//                the per-tick deadline (graceful degradation: leftover
//                pairs stay dirty and age).
//   4. SLO     — staleness (ticks since the oldest dirty pair was
//                dirtied) is checked against the budget; violations are
//                counted and reported, never fatal.
//   5. durability — periodic snapshot (util::atomic_publish) followed by
//                journal compaction; the stream.tick.abort failpoint
//                fires here to simulate a kill between commit points.
//
// Crash recovery (recover(), implicit in run()): load the newest valid
// snapshot (fingerprint-checked), truncate any torn journal tail, replay
// journal frames past the snapshot watermark, and position the source past
// every consumed line. Under kBlock this reconstructs consumption exactly;
// under kShed, lines resident in the (volatile) ring at the kill are lost,
// which is the documented cost of the shedding policy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stream/engine.h"
#include "stream/journal.h"
#include "stream/quarantine.h"
#include "stream/ring.h"
#include "stream/source.h"
#include "util/error.h"
#include "util/runtime.h"

namespace fs::stream {

struct ServeConfig {
  EngineConfig engine;
  std::size_t ring_capacity = 256;
  Backpressure backpressure = Backpressure::kBlock;
  /// Per-tick budgets: lines polled from the source, and lines consumed
  /// (validated + journaled + applied) from the ring.
  std::size_t events_per_tick = 64;
  /// Wall-clock budget for the decide phase of one tick; <= 0 = unlimited.
  double tick_budget_ms = 50.0;
  /// Staleness SLO: the oldest dirty pair may lag at most this many ticks
  /// behind before the tick counts as a violation.
  std::uint64_t staleness_budget_ticks = 4;
  /// Directory holding journal + snapshot. Empty disables durability
  /// (no journal, no snapshots, no recovery) — tests and dry runs only.
  std::string journal_dir;
  /// Snapshot every N ticks (0 = only at shutdown).
  std::uint64_t snapshot_every = 0;
  /// Stop after N ticks (0 = run until exhausted/cancelled).
  std::uint64_t max_ticks = 0;
  /// When the source is exhausted and the ring is empty: drain the engine,
  /// write a final snapshot, and stop. Off = keep ticking (a tail).
  bool stop_when_exhausted = true;
  /// Sleep this long after a tick that polled and consumed nothing (idle
  /// tail following); 0 = busy loop (replay, tests).
  double idle_sleep_ms = 0.0;
  /// On cooperative cancellation: instead of stopping with lines still in
  /// the ring, drain the ring + engine, fsync the journal, and write a
  /// final snapshot before returning (graceful SIGTERM semantics for a
  /// network daemon; items still queued upstream of the source are the
  /// client's to resend).
  bool drain_on_cancel = false;
  /// Called at the end of every tick, after durability. The fs::net server
  /// hooks this to service durable-commit acknowledgements (it asks the
  /// daemon to sync_journal() and publishes journaled_watermark()).
  std::function<void(class ServeDaemon&)> after_tick;
  SourceOptions source_options;
  runtime::ExecutionContext* context = nullptr;
  util::Diagnostics* diagnostics = nullptr;
};

struct RecoveryInfo {
  bool snapshot_used = false;
  bool journal_truncated = false;   // torn tail cut before appending
  std::uint64_t journal_frames_replayed = 0;
  std::uint64_t consumed_lines = 0;  // resume watermark handed to the source
};

struct ServeReport {
  std::uint64_t ticks = 0;
  std::uint64_t consumed_lines = 0;  // total, including recovered prefix
  std::uint64_t accepted = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t shed = 0;
  std::uint64_t blocked_polls = 0;   // ticks the ring was too full to poll
  std::uint64_t snapshots_written = 0;
  std::uint64_t deadline_hits = 0;   // ticks whose decide phase was cut
  std::uint64_t staleness_violations = 0;
  std::uint64_t max_staleness_ticks = 0;
  bool exhausted = false;   // stopped because the source ran dry
  bool cancelled = false;   // stopped on cooperative cancellation
  std::uint64_t live_edges = 0;
  std::uint64_t final_digest = 0;  // engine.state_digest() at stop
  std::string quarantine_summary;
};

class ServeDaemon {
 public:
  ServeDaemon(ServeConfig config, std::unique_ptr<EventSource> source);
  ~ServeDaemon();

  /// Recovers durable state (snapshot + journal) and positions the source.
  /// Idempotent; run() calls it if the caller has not.
  RecoveryInfo recover();

  /// Runs the tick loop until max_ticks, exhaustion, or cancellation.
  /// Injected kills (stream.tick.abort) and torn journal writes escape as
  /// InjectedKill / IoError — deliberately uncaught, like a real crash.
  ServeReport run() { return run_for(0); }

  /// Like run(), but additionally stops after `extra_ticks` further ticks
  /// (0 = no extra bound). Callers interleave serve chunks with finalize
  /// passes this way; the daemon stays resumable in between.
  ServeReport run_for(std::uint64_t extra_ticks);

  /// Drains the ring and the engine's dirty frontier, writes a final
  /// snapshot, and refreshes the report — an explicit graceful stop for
  /// callers that interleave run_for() chunks (the net soak does).
  void finish();

  StreamEngine& engine() { return engine_; }
  const PoisonQuarantine& quarantine() const { return quarantine_; }
  const ServeReport& report() const { return report_; }

  /// fsync barrier on the journal (no-op without a journal_dir). The
  /// durable-commit path for network acks.
  void sync_journal();
  /// Ordinals strictly below this have their disposition frame in the
  /// journal (or a snapshot); ring-resident lines are above it.
  std::uint64_t journaled_watermark() const {
    return next_ordinal_ - ring_.size();
  }
  std::size_t ring_size() const { return ring_.size(); }

  /// Live engine/ring/quarantine stats as a compact JSON object (the
  /// /streamz endpoint body).
  std::string streamz_json() const;

  std::string journal_path() const;
  std::string snapshot_path() const;

 private:
  void write_snapshot();
  void consume_line(StampedLine item);

  ServeConfig config_;
  std::unique_ptr<EventSource> source_;
  StreamEngine engine_;
  EventRing ring_;
  PoisonQuarantine quarantine_;
  std::unique_ptr<JournalWriter> journal_;
  ServeReport report_;
  std::uint64_t next_ordinal_ = 0;  // next consumed-line ordinal to assign
  bool recovered_ = false;
};

}  // namespace fs::stream
