// Streaming ingestion tests: wire-line validation and poison quarantine,
// the backpressure ring, CRC-framed journal + snapshot durability with
// kill-at-any-point recovery, engine convergence-to-batch, and the stream
// failpoint registry.
#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/loader.h"
#include "data/synthetic.h"
#include "stream/daemon.h"
#include "stream/engine.h"
#include "stream/event.h"
#include "stream/journal.h"
#include "stream/quarantine.h"
#include "stream/ring.h"
#include "stream/source.h"
#include "util/binary_io.h"
#include "util/durable.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace {

using namespace fs;
namespace fp = util::failpoint;

std::string temp_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / "fs_stream_test" /
                   name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

stream::RawEvent must_parse(const std::string& line) {
  stream::RawEvent event;
  const auto reason = stream::parse_event_line(line, event);
  EXPECT_FALSE(reason.has_value())
      << "unexpected reject: " << stream::reject_reason_name(*reason);
  return event;
}

// ---------- per-event validation (the quarantine taxonomy) ----------

TEST(EventParse, AcceptsBatchFormatLine) {
  const auto event = must_parse("42\t2010-10-19T23:55:27Z\t30.25\t-97.75\t88");
  EXPECT_EQ(event.user, 42);
  EXPECT_EQ(event.poi, 88);
  EXPECT_FALSE(event.has_explicit_id);
  EXPECT_NEAR(event.location.lat, 30.25, 1e-12);
  EXPECT_NEAR(event.location.lng, -97.75, 1e-12);
}

TEST(EventParse, AcceptsExplicitEventIdColumn) {
  const auto event =
      must_parse("42\t2010-10-19T23:55:27Z\t30.25\t-97.75\t88\t7001");
  EXPECT_TRUE(event.has_explicit_id);
  EXPECT_EQ(event.event_id, 7001u);
}

TEST(EventParse, RejectsEveryPoisonShape) {
  stream::RawEvent event;
  const auto reject = [&](const std::string& line) {
    const auto reason = stream::parse_event_line(line, event);
    EXPECT_TRUE(reason.has_value()) << "accepted poison line: " << line;
    return reason.value_or(stream::RejectReason::kShortLine);
  };
  EXPECT_EQ(reject("42\t2010-10-19T23:55:27Z\t30.25"),
            stream::RejectReason::kShortLine);
  EXPECT_EQ(reject("42\tnot-a-time\t30.25\t-97.75\t88"),
            stream::RejectReason::kBadTimestamp);
  // Impossible calendar date, not just bad syntax.
  EXPECT_EQ(reject("42\t2010-02-30T10:00:00Z\t30.25\t-97.75\t88"),
            stream::RejectReason::kBadTimestamp);
  EXPECT_EQ(reject("42\t2010-10-19T23:55:27Z\t95.0\t-97.75\t88"),
            stream::RejectReason::kOutOfRangeCoord);
  EXPECT_EQ(reject("42\t2010-10-19T23:55:27Z\t30.25\t181.0\t88"),
            stream::RejectReason::kOutOfRangeCoord);
  EXPECT_EQ(reject("42\t2010-10-19T23:55:27Z\t30.25\t-97.75\tpoi"),
            stream::RejectReason::kBadNumber);
  EXPECT_EQ(reject("user\t2010-10-19T23:55:27Z\t30.25\t-97.75\t88"),
            stream::RejectReason::kBadNumber);
}

TEST(EventParse, EveryRejectReasonMapsToParseError) {
  for (std::size_t i = 0; i < stream::kRejectReasonCount; ++i) {
    const auto reason = static_cast<stream::RejectReason>(i);
    EXPECT_EQ(stream::reject_error_code(reason), ErrorCode::kParse)
        << stream::reject_reason_name(reason);
    EXPECT_NE(stream::reject_reason_name(reason), nullptr);
  }
}

// A rejected event must never mutate engine state — digest-pinned.
TEST(EventParse, RejectedEventsNeverMutateEngineState) {
  stream::StreamEngine engine{stream::EngineConfig{}};
  ASSERT_FALSE(engine
                   .ingest(must_parse(
                       "1\t2010-10-19T10:00:00Z\t30.25\t-97.75\t5\t100"))
                   .has_value());
  ASSERT_FALSE(engine
                   .ingest(must_parse(
                       "2\t2010-10-19T10:30:00Z\t30.25\t-97.75\t5\t101"))
                   .has_value());
  const std::uint64_t digest = engine.state_digest();

  // Malformed lines never even reach ingest (parse rejects them)...
  stream::RawEvent scratch;
  EXPECT_TRUE(stream::parse_event_line("1\tbad-time\t30.25\t-97.75\t5",
                                       scratch)
                  .has_value());
  // ...and ingestion-state rejects (duplicate explicit id) mutate nothing.
  const auto dup =
      engine.ingest(must_parse("3\t2010-10-19T11:00:00Z\t30.25\t-97.75\t5\t100"));
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(*dup, stream::RejectReason::kDuplicateEventId);
  EXPECT_EQ(engine.state_digest(), digest);
  EXPECT_EQ(engine.accepted_count(), 2u);
}

TEST(Engine, LatenessBudgetQuarantinesStaleEvents) {
  stream::EngineConfig cfg;
  cfg.lateness_budget_sec = 3600;
  stream::StreamEngine engine{cfg};
  ASSERT_FALSE(
      engine.ingest(must_parse("1\t2010-10-19T12:00:00Z\t30.0\t-97.0\t5"))
          .has_value());
  const std::uint64_t digest = engine.state_digest();
  const auto stale =
      engine.ingest(must_parse("2\t2010-10-19T09:00:00Z\t30.0\t-97.0\t5"));
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(*stale, stream::RejectReason::kStaleTimestamp);
  EXPECT_EQ(engine.state_digest(), digest);
}

// ---------- quarantine census ----------

TEST(Quarantine, CountsReasonsAndBoundsSamples) {
  stream::PoisonQuarantine quarantine(2);
  quarantine.add(0, stream::RejectReason::kBadTimestamp, "a");
  quarantine.add(1, stream::RejectReason::kBadTimestamp, "b");
  quarantine.add(2, stream::RejectReason::kShortLine, "c");
  EXPECT_EQ(quarantine.total(), 3u);
  EXPECT_EQ(quarantine.count(stream::RejectReason::kBadTimestamp), 2u);
  EXPECT_EQ(quarantine.samples().size(), 2u);  // bounded
  EXPECT_NE(quarantine.summary().find("bad_timestamp"), std::string::npos);

  stream::PoisonQuarantine restored(2);
  restored.restore(quarantine.counts());
  EXPECT_EQ(restored.total(), 3u);
  EXPECT_EQ(restored.count(stream::RejectReason::kShortLine), 1u);
  EXPECT_TRUE(restored.samples().empty());  // samples are not durable
}

// ---------- backpressure ring ----------

TEST(Ring, FifoWithBoundedCapacity) {
  stream::EventRing ring(3);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.free_space(), 3u);
  EXPECT_TRUE(ring.push({0, "a", {}}));
  EXPECT_TRUE(ring.push({1, "b", {}}));
  EXPECT_TRUE(ring.push({2, "c", {}}));
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.push({3, "d", {}}));  // full: caller blocks or sheds

  const auto first = ring.pop();
  EXPECT_EQ(first.ordinal, 0u);
  EXPECT_EQ(first.line, "a");
  EXPECT_TRUE(ring.push({3, "d", {}}));  // slot freed, wraps around
  EXPECT_EQ(ring.pop().line, "b");
  EXPECT_EQ(ring.pop().line, "c");
  EXPECT_EQ(ring.pop().ordinal, 3u);
  EXPECT_TRUE(ring.empty());
}

// ---------- journal durability ----------

TEST(Journal, RoundTripsEveryDisposition) {
  const std::string dir = temp_dir("journal_roundtrip");
  const std::string path = dir + "/journal.fsj";
  {
    stream::JournalWriter writer(path);
    auto event = must_parse("1\t2010-10-19T10:00:00Z\t30.25\t-97.75\t5\t42");
    event.seq = 0;
    writer.append_accepted(0, event);
    writer.append_quarantined(1, stream::RejectReason::kBadTimestamp,
                              "1\tbad\t0\t0\t0");
    writer.append_shed(2, "1\t2010-10-19T10:01:00Z\t30.0\t-97.0\t6");
  }
  const auto recovered = stream::recover_journal(path);
  EXPECT_FALSE(recovered.missing);
  EXPECT_FALSE(recovered.truncated_tail);
  ASSERT_EQ(recovered.records.size(), 3u);
  EXPECT_EQ(recovered.records[0].type, stream::FrameType::kAccepted);
  EXPECT_EQ(recovered.records[0].source_index, 0u);
  EXPECT_EQ(recovered.records[0].event.user, 1);
  EXPECT_TRUE(recovered.records[0].event.has_explicit_id);
  EXPECT_EQ(recovered.records[0].event.event_id, 42u);
  EXPECT_EQ(recovered.records[1].type, stream::FrameType::kQuarantined);
  EXPECT_EQ(recovered.records[1].reason,
            stream::RejectReason::kBadTimestamp);
  EXPECT_EQ(recovered.records[1].line, "1\tbad\t0\t0\t0");
  EXPECT_EQ(recovered.records[2].type, stream::FrameType::kShed);
  EXPECT_EQ(recovered.records[2].source_index, 2u);
}

TEST(Journal, TornTailIsDetectedAndTruncatable) {
  const std::string dir = temp_dir("journal_torn");
  const std::string path = dir + "/journal.fsj";
  {
    stream::JournalWriter writer(path);
    writer.append_quarantined(0, stream::RejectReason::kShortLine, "x");
    writer.append_quarantined(1, stream::RejectReason::kShortLine, "y");
  }
  // Tear the last frame mid-payload, like a crash mid-write.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 3);

  auto recovered = stream::recover_journal(path);
  EXPECT_TRUE(recovered.truncated_tail);
  ASSERT_EQ(recovered.records.size(), 1u);
  EXPECT_EQ(recovered.records[0].line, "x");

  stream::truncate_journal(path, recovered.valid_bytes);
  {
    stream::JournalWriter writer(path);  // appends after the valid prefix
    writer.append_quarantined(1, stream::RejectReason::kShortLine, "y2");
  }
  recovered = stream::recover_journal(path);
  EXPECT_FALSE(recovered.truncated_tail);
  ASSERT_EQ(recovered.records.size(), 2u);
  EXPECT_EQ(recovered.records[1].line, "y2");
}

TEST(Journal, TornWriteFailpointThrowsAndLeavesRecoverablePrefix) {
  const std::string dir = temp_dir("journal_failpoint");
  const std::string path = dir + "/journal.fsj";
  fp::clear();
  fp::Config cfg;
  cfg.action = fp::Action::kTruncate;
  cfg.skip = 1;
  cfg.limit = 1;
  fp::activate("stream.journal.torn_write", cfg);

  stream::JournalWriter writer(path);
  writer.append_quarantined(0, stream::RejectReason::kShortLine, "keep");
  EXPECT_THROW(
      writer.append_quarantined(1, stream::RejectReason::kShortLine, "torn"),
      IoError);
  fp::clear();

  const auto recovered = stream::recover_journal(path);
  EXPECT_TRUE(recovered.truncated_tail);
  ASSERT_EQ(recovered.records.size(), 1u);
  EXPECT_EQ(recovered.records[0].line, "keep");
}

TEST(Journal, ResetKeepsAppendingRightAfterTheHeader) {
  const std::string dir = temp_dir("journal_reset");
  const std::string path = dir + "/journal.fsj";
  stream::JournalWriter writer(path);  // fresh file: header only
  const std::uint64_t header_bytes = writer.bytes();
  writer.append_quarantined(0, stream::RejectReason::kShortLine, "old");
  writer.reset();
  EXPECT_EQ(writer.bytes(), header_bytes);
  EXPECT_EQ(std::filesystem::file_size(path), header_bytes);
  writer.append_quarantined(1, stream::RejectReason::kShortLine, "new");
  EXPECT_EQ(std::filesystem::file_size(path), writer.bytes());

  const auto recovered = stream::recover_journal(path);
  EXPECT_FALSE(recovered.truncated_tail);
  ASSERT_EQ(recovered.records.size(), 1u);
  EXPECT_EQ(recovered.records[0].line, "new");
}

TEST(Snapshot, RoundTripsAndRefusesForeignFingerprint) {
  const std::string dir = temp_dir("snapshot");
  const std::string path = dir + "/snapshot.fss";
  stream::Snapshot snapshot;
  snapshot.config_fingerprint = 0xfeedULL;
  snapshot.consumed_lines = 17;
  snapshot.shed_total = 2;
  snapshot.quarantine_counts[1] = 3;
  auto event = must_parse("9\t2010-10-19T10:00:00Z\t30.0\t-97.0\t4");
  event.seq = 0;
  snapshot.events.push_back(event);
  stream::save_snapshot(path, snapshot);

  const auto loaded = stream::load_snapshot(path, 0xfeedULL);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->consumed_lines, 17u);
  EXPECT_EQ(loaded->shed_total, 2u);
  EXPECT_EQ(loaded->quarantine_counts[1], 3u);
  ASSERT_EQ(loaded->events.size(), 1u);
  EXPECT_EQ(loaded->events[0].user, 9);
  EXPECT_EQ(loaded->events[0].line, event.line);

  // A different engine config must refuse the snapshot...
  EXPECT_FALSE(stream::load_snapshot(path, 0xbeefULL).has_value());
  // ...and a corrupt file falls back to journal-only recovery.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 1);
  EXPECT_FALSE(stream::load_snapshot(path, 0xfeedULL).has_value());
  EXPECT_FALSE(stream::load_snapshot(dir + "/absent.fss", 1).has_value());
}

/// Overwrites the event count of the snapshot at `path` and re-seals its
/// CRC, so only the count's bounds check stands between the loader and a
/// `count`-element allocation.
void forge_snapshot_event_count(const std::string& path, std::uint64_t count) {
  std::string bytes = util::read_file(path);
  const std::size_t count_at = 12 + 8 * (3 + stream::kRejectReasonCount);
  std::memcpy(bytes.data() + count_at, &count, sizeof count);
  const std::uint64_t crc =
      util::crc32(bytes.data() + 12, bytes.size() - 12 - 8);
  std::memcpy(bytes.data() + bytes.size() - 8, &crc, sizeof crc);
  write_file(path, bytes);
}

TEST(Snapshot, FalseEventCountIsRefusedBeforeAllocating) {
  const std::string dir = temp_dir("snapshot_event_count");
  const std::string path = dir + "/snapshot.fss";
  for (const std::uint64_t count : {std::uint64_t{1} << 62,
                                    std::uint64_t{100000000}}) {
    stream::Snapshot snapshot;
    snapshot.config_fingerprint = 0xfeedULL;
    snapshot.events.push_back(
        must_parse("9\t2010-10-19T10:00:00Z\t30.0\t-97.0\t4"));
    stream::save_snapshot(path, snapshot);
    forge_snapshot_event_count(path, count);
    EXPECT_FALSE(stream::load_snapshot(path, 0xfeedULL).has_value()) << count;
  }
}

TEST(Journal, FrameLengthPastEofIsATornTail) {
  const std::string dir = temp_dir("journal_false_length");
  const std::string path = dir + "/journal.fsj";
  std::uint64_t first_frame_end = 0;
  {
    stream::JournalWriter writer(path);
    writer.append_quarantined(0, stream::RejectReason::kShortLine, "first");
    first_frame_end = writer.bytes();
    writer.append_quarantined(1, stream::RejectReason::kShortLine, "second");
  }
  // The second frame claims ~4 GiB: recovery must not allocate it.
  std::string bytes = util::read_file(path);
  const std::uint32_t false_length = 0xfffffff0u;
  std::memcpy(bytes.data() + first_frame_end + 4, &false_length,
              sizeof false_length);
  write_file(path, bytes);

  const auto recovered = stream::recover_journal(path);
  EXPECT_TRUE(recovered.truncated_tail);
  ASSERT_EQ(recovered.records.size(), 1u);
  EXPECT_EQ(recovered.records[0].line, "first");
  EXPECT_EQ(recovered.valid_bytes, first_frame_end);
}

// ---------- sources ----------

TEST(Source, FileTailHoldsBackTornLines) {
  const std::string dir = temp_dir("tail");
  const std::string path = dir + "/tail.txt";
  write_file(path, "line-one\nline-tw");  // second line torn mid-write
  stream::FileTailSource tail(path);
  std::vector<stream::SourceItem> out;
  EXPECT_EQ(tail.poll(8, out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, "line-one");
  EXPECT_FALSE(out[0].poison.has_value());

  std::ofstream(path, std::ios::binary | std::ios::app) << "o\nline-three\n";
  out.clear();
  EXPECT_EQ(tail.poll(8, out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].line, "line-two");
  EXPECT_EQ(out[1].line, "line-three");
  EXPECT_FALSE(tail.exhausted());  // a tail never declares the stream done
}

TEST(Source, OpenFailureIsRetriedThenFatal) {
  const std::string dir = temp_dir("open_fail");
  const std::string path = dir + "/replay.txt";
  write_file(path, "a\nb\n");

  fp::clear();
  fp::Config cfg;
  cfg.action = fp::Action::kError;
  cfg.limit = 1;
  fp::activate("stream.source.open_fail", cfg);
  stream::ReplaySource replay(path);
  std::vector<stream::SourceItem> out;
  EXPECT_EQ(replay.poll(8, out), 2u);  // transient failure absorbed
  EXPECT_EQ(replay.open_failures(), 1u);
  EXPECT_TRUE(replay.exhausted());
  fp::clear();

  fp::Config always;
  always.action = fp::Action::kError;
  fp::activate("stream.source.open_fail", always);
  stream::ReplaySource doomed(path);
  out.clear();
  EXPECT_THROW(doomed.poll(8, out), IoError);  // retry budget exhausted
  fp::clear();
}

// ---------- daemon: kill-at-any-point recovery ----------

struct StreamWorld {
  std::string dir;
  std::string checkins_path;
  std::string edges_path;
  std::string stream_path;  // checkins + trailing poison block
};

StreamWorld make_stream_world(const std::string& name) {
  StreamWorld world;
  world.dir = temp_dir(name);
  data::SyntheticWorldConfig cfg;
  cfg.user_count = 30;
  cfg.poi_count = 90;
  cfg.city_count = 2;
  cfg.weeks = 2;
  cfg.seed = 5;
  const auto generated = data::generate_world(cfg);
  world.checkins_path = world.dir + "/checkins.txt";
  world.edges_path = world.dir + "/edges.txt";
  data::save_checkins_snap(generated.dataset, world.checkins_path,
                           world.edges_path);

  world.stream_path = world.dir + "/stream.txt";
  std::ifstream in(world.checkins_path, std::ios::binary);
  std::ofstream out(world.stream_path, std::ios::binary);
  out << in.rdbuf();
  out << "7\tmalformed\n";
  out << "7\t2010-13-40T99:99:99Z\t10.0\t20.0\t3\n";
  out << "7\t2010-10-19T23:55:27Z\t95.0\t20.0\t3\n";
  return world;
}

stream::ServeConfig serve_config(std::string journal_dir) {
  stream::ServeConfig cfg;
  cfg.ring_capacity = 32;
  cfg.events_per_tick = 8;
  cfg.tick_budget_ms = 0;
  cfg.snapshot_every = 3;
  cfg.journal_dir = std::move(journal_dir);
  return cfg;
}

TEST(Daemon, KillAndResumeConvergesToUninterruptedDigest) {
  const StreamWorld world = make_stream_world("daemon_kill");
  fp::clear();

  // Uninterrupted baseline (no durability needed for it).
  stream::ServeConfig baseline_cfg = serve_config("");
  stream::ServeDaemon baseline(
      baseline_cfg, std::make_unique<stream::ReplaySource>(world.stream_path));
  const auto baseline_report = baseline.run();
  ASSERT_TRUE(baseline_report.exhausted);
  ASSERT_EQ(baseline_report.quarantined, 3u);
  ASSERT_EQ(baseline_report.shed, 0u);
  ASSERT_GT(baseline_report.accepted, 0u);

  // Kill mid-stream, twice, resuming from durable state each time with a
  // brand-new daemon + source.
  const std::string durable_dir = world.dir + "/journal";
  std::filesystem::create_directories(durable_dir);
  fp::Config kill;
  kill.action = fp::Action::kError;
  kill.skip = 4;
  kill.limit = 2;
  fp::activate("stream.tick.abort", kill);

  int kills = 0;
  stream::ServeReport report;
  std::array<std::uint64_t, stream::kRejectReasonCount> counts{};
  bool used_snapshot = false;
  while (true) {
    stream::ServeDaemon daemon(
        serve_config(durable_dir),
        std::make_unique<stream::ReplaySource>(world.stream_path));
    used_snapshot = daemon.recover().snapshot_used || used_snapshot;
    try {
      report = daemon.run();
      counts = daemon.quarantine().counts();
      break;
    } catch (const fp::InjectedKill&) {
      ++kills;
      ASSERT_LE(kills, 4);
    }
  }
  fp::clear();

  EXPECT_EQ(kills, 2);
  EXPECT_TRUE(used_snapshot);  // at least one resume came through a snapshot
  EXPECT_TRUE(report.exhausted);
  EXPECT_EQ(report.final_digest, baseline_report.final_digest);
  EXPECT_EQ(report.quarantined, baseline_report.quarantined);
  for (std::size_t i = 0; i < counts.size(); ++i)
    EXPECT_EQ(counts[i], baseline.quarantine().counts()[i]) << i;
  EXPECT_EQ(report.shed, 0u);
}

TEST(Daemon, FramesJournaledAfterASnapshotSurviveAKill) {
  // A daemon's first run in a fresh journal dir: snapshots (which compact
  // the journal) at ticks 2 and 4, then one more tick whose frames exist
  // only in the journal when the process dies without a final snapshot.
  const StreamWorld world = make_stream_world("daemon_post_snapshot");
  fp::clear();
  constexpr std::uint64_t kTicks = 5;

  stream::ServeConfig baseline_cfg = serve_config("");
  baseline_cfg.max_ticks = kTicks;
  stream::ServeDaemon baseline(
      baseline_cfg, std::make_unique<stream::ReplaySource>(world.stream_path));
  const auto baseline_report = baseline.run();
  ASSERT_EQ(baseline_report.ticks, kTicks);
  baseline.engine().drain();

  const std::string durable_dir = world.dir + "/journal";
  std::filesystem::create_directories(durable_dir);
  stream::ServeConfig cfg = serve_config(durable_dir);
  cfg.snapshot_every = 2;
  cfg.max_ticks = kTicks;
  std::uint64_t journaled = 0;
  {
    stream::ServeDaemon killed(
        cfg, std::make_unique<stream::ReplaySource>(world.stream_path));
    const auto report = killed.run();
    ASSERT_EQ(report.snapshots_written, 2u);
    journaled = killed.journaled_watermark();
  }  // dies here: no final snapshot

  stream::ServeDaemon resumed(
      serve_config(durable_dir),
      std::make_unique<stream::ReplaySource>(world.stream_path));
  const auto info = resumed.recover();
  EXPECT_TRUE(info.snapshot_used);
  EXPECT_FALSE(info.journal_truncated);
  EXPECT_GT(info.journal_frames_replayed, 0u);
  EXPECT_EQ(info.consumed_lines, journaled);
  resumed.engine().drain();
  EXPECT_EQ(resumed.engine().state_digest(),
            baseline.engine().state_digest());
}

TEST(Daemon, SnapshotWithAFalseEventCountFallsBackToTheJournal) {
  const StreamWorld world = make_stream_world("daemon_false_count");
  fp::clear();
  constexpr std::uint64_t kTicks = 4;

  stream::ServeConfig baseline_cfg = serve_config("");
  baseline_cfg.max_ticks = kTicks;
  stream::ServeDaemon baseline(
      baseline_cfg, std::make_unique<stream::ReplaySource>(world.stream_path));
  baseline.run();
  baseline.engine().drain();

  // A run that never snapshots: the journal holds every consumed line.
  const std::string durable_dir = world.dir + "/journal";
  std::filesystem::create_directories(durable_dir);
  stream::ServeConfig cfg = serve_config(durable_dir);
  cfg.snapshot_every = 0;
  cfg.max_ticks = kTicks;
  std::uint64_t journaled = 0;
  stream::Snapshot forged;
  {
    stream::ServeDaemon killed(
        cfg, std::make_unique<stream::ReplaySource>(world.stream_path));
    ASSERT_EQ(killed.run().snapshots_written, 0u);
    journaled = killed.journaled_watermark();
    forged.config_fingerprint = killed.engine().config_fingerprint();
    forged.consumed_lines = journaled;
  }

  for (const std::uint64_t count : {std::uint64_t{1} << 62,
                                    std::uint64_t{100000000}}) {
    const std::string snapshot_path = durable_dir + "/snapshot.fss";
    stream::save_snapshot(snapshot_path, forged);
    forge_snapshot_event_count(snapshot_path, count);

    stream::ServeDaemon resumed(
        serve_config(durable_dir),
        std::make_unique<stream::ReplaySource>(world.stream_path));
    const auto info = resumed.recover();
    EXPECT_FALSE(info.snapshot_used) << count;
    EXPECT_GT(info.journal_frames_replayed, 0u) << count;
    EXPECT_EQ(info.consumed_lines, journaled) << count;
    resumed.engine().drain();
    EXPECT_EQ(resumed.engine().state_digest(),
              baseline.engine().state_digest())
        << count;
  }
}

TEST(Daemon, ShedModeAccountsEveryDroppedLine) {
  const StreamWorld world = make_stream_world("daemon_shed");
  fp::clear();
  stream::ServeConfig cfg = serve_config("");
  cfg.ring_capacity = 4;
  cfg.events_per_tick = 2;
  cfg.backpressure = stream::Backpressure::kShed;
  // Poll far ahead of what we consume: the overflow must be shed, counted,
  // and the total disposition census must still cover every source line.
  cfg.events_per_tick = 2;
  stream::ServeDaemon daemon(
      cfg, std::make_unique<stream::ReplaySource>(world.stream_path));
  const auto report = daemon.run();
  EXPECT_TRUE(report.exhausted);
  EXPECT_EQ(report.accepted + report.quarantined + report.shed,
            report.consumed_lines);
}

TEST(Daemon, BlockModeNeverSheds) {
  const StreamWorld world = make_stream_world("daemon_block");
  fp::clear();
  stream::ServeConfig cfg = serve_config("");
  cfg.ring_capacity = 4;
  cfg.events_per_tick = 8;  // wants more than the ring holds: must block
  stream::ServeDaemon daemon(
      cfg, std::make_unique<stream::ReplaySource>(world.stream_path));
  const auto report = daemon.run();
  EXPECT_TRUE(report.exhausted);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.accepted + report.quarantined, report.consumed_lines);
}

/// A bursty in-memory source for the shed-accounting property: random-size
/// bursts (including empty polls) of mostly-valid lines with an occasional
/// parse-poison line, up to a fixed offered total.
class BurstSource : public stream::EventSource {
 public:
  BurstSource(std::uint64_t seed, std::size_t total)
      : rng_(seed), remaining_(total) {}

  std::size_t poll(std::size_t max_items,
                   std::vector<stream::SourceItem>& out) override {
    if (remaining_ == 0 || max_items == 0) return 0;
    if (rng_.chance(0.25)) return 0;  // idle poll: the stream is bursty
    std::size_t want = 1 + static_cast<std::size_t>(
                               rng_.next_u64(static_cast<std::uint64_t>(
                                   std::min(max_items, remaining_))));
    want = std::min({want, max_items, remaining_});
    for (std::size_t i = 0; i < want; ++i) {
      const std::uint64_t n = emitted_++;
      std::string line;
      if (n % 9 == 8) {
        // Parse poison (|lat| > 90): must land in the quarantine, and the
        // quarantine slot must still count in the disposition census.
        line = std::to_string(n % 7) + "\t2010-10-19T23:55:27Z\t95.0\t20.0\t3";
      } else {
        line = std::to_string(n % 7) + "\t2010-10-19T23:55:27Z\t30.2\t-97.7\t" +
               std::to_string(n % 13);
      }
      out.push_back(stream::SourceItem{std::move(line), std::nullopt});
    }
    remaining_ -= want;
    return want;
  }
  bool exhausted() const override { return remaining_ == 0; }
  void skip_lines(std::uint64_t) override {}

 private:
  util::Rng rng_;
  std::size_t remaining_;
  std::uint64_t emitted_ = 0;
};

TEST(Property, ShedAccountingHoldsAcrossRandomRingsAndBursts) {
  // Every offered line must end as exactly one of accepted, quarantined,
  // or shed — across random ring sizes (forcing wraparound), poll budgets
  // larger than the ring (forcing sheds), and bursty arrivals. Fixed meta
  // seed: the trial stream is deterministic, so at least one trial is
  // known to shed and every failure reproduces.
  util::Rng meta(0xB00C5EEDULL);
  std::uint64_t total_shed = 0;
  for (int trial = 0; trial < 24; ++trial) {
    fp::clear();
    stream::ServeConfig cfg;
    cfg.ring_capacity = 1 + static_cast<std::size_t>(meta.next_u64(12));
    cfg.events_per_tick = 1 + static_cast<std::size_t>(meta.next_u64(24));
    cfg.tick_budget_ms = 0;
    cfg.backpressure = stream::Backpressure::kShed;
    const std::size_t offered =
        50 + static_cast<std::size_t>(meta.next_u64(250));
    stream::ServeDaemon daemon(
        cfg, std::make_unique<BurstSource>(meta.next_u64(1u << 30), offered));
    const auto report = daemon.run();
    ASSERT_TRUE(report.exhausted) << "trial " << trial;
    EXPECT_EQ(report.consumed_lines, offered) << "trial " << trial;
    EXPECT_EQ(report.accepted + report.quarantined + report.shed, offered)
        << "trial " << trial << " ring=" << cfg.ring_capacity
        << " events_per_tick=" << cfg.events_per_tick;
    EXPECT_GT(report.quarantined, 0u) << "trial " << trial;
    total_shed += report.shed;
  }
  EXPECT_GT(total_shed, 0u) << "no trial ever shed: the property is vacuous";
}

// ---------- convergence to batch ----------

TEST(Convergence, StreamDatasetMatchesBatchLoader) {
  const StreamWorld world = make_stream_world("convergence");
  fp::clear();
  stream::ServeDaemon daemon(
      serve_config(""),
      std::make_unique<stream::ReplaySource>(world.stream_path));
  ASSERT_TRUE(daemon.run().exhausted);

  const auto raw_edges = data::read_edges_file(world.edges_path);
  std::vector<long long> stream_users;
  const data::Dataset stream_ds =
      daemon.engine().to_dataset(raw_edges, {}, nullptr, &stream_users);
  const data::Dataset batch_ds =
      data::load_checkins_snap(world.checkins_path, world.edges_path);

  ASSERT_EQ(stream_ds.user_count(), batch_ds.user_count());
  ASSERT_EQ(stream_ds.poi_count(), batch_ds.poi_count());
  ASSERT_EQ(stream_ds.checkin_count(), batch_ds.checkin_count());
  EXPECT_EQ(stream_users.size(), stream_ds.user_count());
  for (std::size_t i = 0; i < stream_ds.checkin_count(); ++i) {
    const auto& a = stream_ds.checkins()[i];
    const auto& b = batch_ds.checkins()[i];
    EXPECT_EQ(a.user, b.user);
    EXPECT_EQ(a.poi, b.poi);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.location.lat, b.location.lat);
    EXPECT_EQ(a.location.lng, b.location.lng);
  }
  EXPECT_EQ(stream_ds.friendships().edge_count(),
            batch_ds.friendships().edge_count());
}

// The purity argument behind convergence: any tick schedule reaches the
// same fixed point once the frontier drains, and the digest pins it.
TEST(Convergence, TickScheduleDoesNotChangeTheFixedPoint) {
  const StreamWorld world = make_stream_world("schedules");
  fp::clear();

  stream::ServeConfig coarse = serve_config("");
  coarse.events_per_tick = 64;
  stream::ServeDaemon a(
      coarse, std::make_unique<stream::ReplaySource>(world.stream_path));
  stream::ServeConfig fine = serve_config("");
  fine.events_per_tick = 3;
  fine.ring_capacity = 8;
  stream::ServeDaemon b(
      fine, std::make_unique<stream::ReplaySource>(world.stream_path));
  const auto report_a = a.run();
  const auto report_b = b.run();
  ASSERT_TRUE(report_a.exhausted);
  ASSERT_TRUE(report_b.exhausted);
  EXPECT_NE(report_a.ticks, report_b.ticks);  // genuinely different schedules
  EXPECT_EQ(report_a.final_digest, report_b.final_digest);
}

// ---------- stream failpoints in the registry ----------

TEST(Failpoints, StreamEntriesRegisteredAndListSorted) {
  const auto& known = fp::known_failpoints();
  bool torn = false, open_fail = false, abort_fp = false;
  std::size_t net_entries = 0;
  for (std::size_t i = 0; i < known.size(); ++i) {
    const std::string_view name = known[i].name;
    if (i > 0) {
      EXPECT_LT(std::string_view(known[i - 1].name), name);  // sorted, unique
    }
    if (name == "stream.journal.torn_write") torn = true;
    if (name == "stream.source.open_fail") open_fail = true;
    if (name == "stream.tick.abort") abort_fp = true;
    if (name.substr(0, 4) == "net.") ++net_entries;
  }
  EXPECT_TRUE(torn);
  EXPECT_TRUE(open_fail);
  EXPECT_TRUE(abort_fp);
  // The network fault surface: accept failure, connection drop, sender
  // stall, torn client send, torn server write.
  EXPECT_EQ(net_entries, 5u);
}

}  // namespace
