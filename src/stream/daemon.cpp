#include "stream/daemon.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/failpoint.h"

namespace fs::stream {
namespace {

namespace fp = util::failpoint;

}  // namespace

ServeDaemon::ServeDaemon(ServeConfig config, std::unique_ptr<EventSource> source)
    : config_(std::move(config)),
      source_(std::move(source)),
      engine_(config_.engine),
      ring_(config_.ring_capacity),
      quarantine_(32, config_.diagnostics) {
  if (config_.events_per_tick == 0) config_.events_per_tick = 1;
}

ServeDaemon::~ServeDaemon() = default;

std::string ServeDaemon::journal_path() const {
  return config_.journal_dir.empty() ? std::string()
                                     : config_.journal_dir + "/journal.fsj";
}

std::string ServeDaemon::snapshot_path() const {
  return config_.journal_dir.empty() ? std::string()
                                     : config_.journal_dir + "/snapshot.fss";
}

RecoveryInfo ServeDaemon::recover() {
  RecoveryInfo info;
  if (recovered_) {
    info.consumed_lines = next_ordinal_;
    return info;
  }
  recovered_ = true;
  if (config_.journal_dir.empty()) return info;

  std::uint64_t consumed = 0;
  if (auto snapshot =
          load_snapshot(snapshot_path(), engine_.config_fingerprint())) {
    info.snapshot_used = true;
    consumed = snapshot->consumed_lines;
    report_.shed = snapshot->shed_total;
    quarantine_.restore(snapshot->quarantine_counts);
    for (const auto& event : snapshot->events) engine_.ingest(event);
  }

  auto recovered = recover_journal(journal_path());
  if (!recovered.missing && recovered.truncated_tail) {
    truncate_journal(journal_path(), recovered.valid_bytes);
    info.journal_truncated = true;
  }
  for (const auto& record : recovered.records) {
    if (record.source_index < consumed) continue;  // covered by the snapshot
    switch (record.type) {
      case FrameType::kAccepted:
        engine_.ingest(record.event);
        break;
      case FrameType::kQuarantined:
        quarantine_.add(record.source_index, record.reason, record.line);
        break;
      case FrameType::kShed:
        ++report_.shed;
        break;
    }
    consumed = std::max(consumed, record.source_index + 1);
    ++info.journal_frames_replayed;
  }

  next_ordinal_ = consumed;
  info.consumed_lines = consumed;
  source_->skip_lines(consumed);
  journal_ = std::make_unique<JournalWriter>(journal_path());
  if (config_.diagnostics != nullptr &&
      (info.snapshot_used || info.journal_frames_replayed > 0))
    config_.diagnostics->report(
        util::Severity::kInfo, ErrorCode::kIo, "stream",
        "recovered " + std::to_string(consumed) + " consumed lines (snapshot " +
            (info.snapshot_used ? "used" : "absent") + ", " +
            std::to_string(info.journal_frames_replayed) +
            " journal frames" + (info.journal_truncated ? ", torn tail cut" : "") +
            ")");
  return info;
}

void ServeDaemon::write_snapshot() {
  if (config_.journal_dir.empty()) return;
  Snapshot snapshot;
  snapshot.config_fingerprint = engine_.config_fingerprint();
  // Ring-resident lines are volatile (polled, not yet journaled); the
  // watermark covers only the journaled prefix. Under kBlock ordinals are
  // contiguous so this is exact; under kShed, shed frames above the
  // watermark are simply replayed from the journal on recovery.
  snapshot.consumed_lines = next_ordinal_ - ring_.size();
  snapshot.shed_total = report_.shed;
  snapshot.quarantine_counts = quarantine_.counts();
  snapshot.events = engine_.events();
  save_snapshot(snapshot_path(), snapshot);
  // The journal's content is now covered by the snapshot; compact it. A
  // crash between rename and reset is safe: frames below the snapshot
  // watermark are skipped on replay.
  journal_->reset();
  ++report_.snapshots_written;
}

void ServeDaemon::consume_line(StampedLine item) {
  if (item.poison) {
    // Transport-level poison (CRC/framing failure): the bytes were never a
    // check-in line. Journal + quarantine the disposition without parsing.
    if (journal_ != nullptr)
      journal_->append_quarantined(item.ordinal, *item.poison, item.line);
    quarantine_.add(item.ordinal, *item.poison, item.line);
    return;
  }
  RawEvent event;
  auto reason = parse_event_line(item.line, event);
  if (!reason) reason = engine_.preflight(event);
  if (reason) {
    if (journal_ != nullptr)
      journal_->append_quarantined(item.ordinal, *reason, item.line);
    quarantine_.add(item.ordinal, *reason, item.line);
    return;
  }
  // WAL ordering: the accepted frame commits the event, then it is applied.
  // A kill in between replays the frame into the same state.
  if (journal_ != nullptr) journal_->append_accepted(item.ordinal, event);
  engine_.ingest(event);
}

ServeReport ServeDaemon::run_for(std::uint64_t extra_ticks) {
  recover();
  const std::uint64_t tick_limit =
      extra_ticks == 0 ? 0 : report_.ticks + extra_ticks;
  auto& ticks_total = obs::metrics().counter(
      "stream.ticks_total", {}, "serve daemon ticks executed");
  auto& consumed_total = obs::metrics().counter(
      "stream.consumed_total", {}, "source lines consumed (all dispositions)");
  auto& ring_gauge = obs::metrics().gauge(
      "stream.ring_size", {}, "lines staged in the backpressure ring");
  auto& dirty_gauge = obs::metrics().gauge(
      "stream.dirty_pairs", {}, "pairs awaiting re-decision");
  auto& staleness_gauge = obs::metrics().gauge(
      "stream.staleness_ticks", {},
      "age in ticks of the oldest dirty pair (SLO input)");

  std::vector<SourceItem> polled;
  while (true) {
    if (config_.max_ticks != 0 && report_.ticks >= config_.max_ticks) break;
    if (tick_limit != 0 && report_.ticks >= tick_limit) break;
    if (config_.context != nullptr && config_.context->cancelled()) {
      report_.cancelled = true;
      if (config_.drain_on_cancel) finish();
      break;
    }

    // 1. poll
    polled.clear();
    if (!source_->exhausted()) {
      std::size_t budget = config_.events_per_tick;
      if (config_.backpressure == Backpressure::kBlock) {
        budget = std::min(budget, ring_.free_space());
        if (budget == 0) ++report_.blocked_polls;
      }
      if (budget > 0) source_->poll(budget, polled);
      for (auto& item : polled) {
        const std::uint64_t ordinal = next_ordinal_++;
        if (ring_.full()) {
          // kShed only (kBlock never polls past free space): the overflow
          // is consumed as shed, with its accounting frame.
          if (journal_ != nullptr) journal_->append_shed(ordinal, item.line);
          ++report_.shed;
        } else {
          ring_.push(StampedLine{ordinal, std::move(item.line), item.poison});
        }
      }
    }

    // 2. consume
    std::size_t consumed = 0;
    while (consumed < config_.events_per_tick && !ring_.empty()) {
      consume_line(ring_.pop());
      ++consumed;
    }

    // 3. decide
    const auto deadline =
        config_.tick_budget_ms > 0
            ? runtime::Deadline::after_seconds(config_.tick_budget_ms / 1000.0)
            : runtime::Deadline::unlimited();
    const auto tick_report = engine_.tick(deadline);
    if (tick_report.deadline_hit) ++report_.deadline_hits;

    // 4. SLO
    const auto staleness = engine_.current_tick() - engine_.oldest_dirty_tick();
    report_.max_staleness_ticks =
        std::max(report_.max_staleness_ticks, staleness);
    if (staleness > config_.staleness_budget_ticks) {
      if (report_.staleness_violations == 0 && config_.diagnostics != nullptr)
        config_.diagnostics->report(
            util::Severity::kWarning, ErrorCode::kBudget, "stream",
            "staleness SLO violated: oldest dirty pair is " +
                std::to_string(staleness) + " ticks old (budget " +
                std::to_string(config_.staleness_budget_ticks) + ")");
      ++report_.staleness_violations;
    }

    ++report_.ticks;
    ticks_total.add(1);
    consumed_total.add(consumed);
    ring_gauge.set(static_cast<double>(ring_.size()));
    dirty_gauge.set(static_cast<double>(engine_.dirty_pair_count()));
    staleness_gauge.set(static_cast<double>(staleness));

    // 5. durability + injected kill point (the journal is flushed after
    // every append, so a kill here loses at most ring-resident lines).
    if (fp::fail("stream.tick.abort"))
      throw fp::InjectedKill("stream.tick.abort at tick " +
                             std::to_string(report_.ticks));
    if (config_.snapshot_every != 0 &&
        report_.ticks % config_.snapshot_every == 0)
      write_snapshot();

    if (config_.after_tick) config_.after_tick(*this);

    if (config_.stop_when_exhausted && source_->exhausted() && ring_.empty() &&
        polled.empty()) {
      engine_.drain();
      report_.exhausted = true;
      write_snapshot();
      break;
    }
    if (config_.idle_sleep_ms > 0 && polled.empty() && consumed == 0 &&
        engine_.dirty_pair_count() == 0)
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          config_.idle_sleep_ms));
  }

  report_.consumed_lines = next_ordinal_;
  report_.accepted = engine_.accepted_count();
  report_.quarantined = quarantine_.total();
  report_.live_edges = engine_.live_edge_count();
  report_.final_digest = engine_.state_digest();
  report_.quarantine_summary = quarantine_.summary();
  return report_;
}

void ServeDaemon::finish() {
  recover();
  while (!ring_.empty()) consume_line(ring_.pop());
  engine_.drain();
  sync_journal();
  write_snapshot();
  report_.consumed_lines = next_ordinal_;
  report_.accepted = engine_.accepted_count();
  report_.quarantined = quarantine_.total();
  report_.live_edges = engine_.live_edge_count();
  report_.final_digest = engine_.state_digest();
  report_.quarantine_summary = quarantine_.summary();
}

void ServeDaemon::sync_journal() {
  if (journal_ != nullptr) journal_->sync();
}

std::string ServeDaemon::streamz_json() const {
  obs::json::Object doc;
  doc["ticks"] = report_.ticks;
  doc["consumed_lines"] = next_ordinal_;
  doc["journaled_watermark"] = journaled_watermark();
  doc["accepted"] = engine_.accepted_count();
  doc["live_edges"] = engine_.live_edge_count();
  doc["dirty_pairs"] = engine_.dirty_pair_count();
  doc["staleness_ticks"] = engine_.current_tick() - engine_.oldest_dirty_tick();
  doc["staleness_violations"] = report_.staleness_violations;
  doc["deadline_hits"] = report_.deadline_hits;
  doc["shed"] = report_.shed;
  doc["snapshots_written"] = report_.snapshots_written;
  obs::json::Object ring;
  ring["capacity"] = ring_.capacity();
  ring["size"] = ring_.size();
  ring["backpressure"] = backpressure_name(config_.backpressure);
  doc["ring"] = std::move(ring);
  obs::json::Object quarantine;
  quarantine["total"] = quarantine_.total();
  obs::json::Object by_reason;
  for (std::size_t i = 0; i < kRejectReasonCount; ++i) {
    const auto count = quarantine_.counts()[i];
    if (count != 0)
      by_reason[reject_reason_name(static_cast<RejectReason>(i))] = count;
  }
  quarantine["by_reason"] = std::move(by_reason);
  doc["quarantine"] = std::move(quarantine);
  return obs::json::Value(std::move(doc)).dump();
}

}  // namespace fs::stream
