// Crash-safe durability for the stream: a CRC32-framed event journal plus
// periodic snapshots.
//
// The journal is the stream's write-ahead log — but unlike a classic WAL it
// records *every consumed source line with its disposition*: accepted
// events (full parsed payload + verbatim line), quarantined lines (reason +
// line), and shed lines. That makes recovery total: the accepted sequence
// rebuilds the engine byte-identically, the quarantine census survives the
// crash, and the consumed-line count tells the source exactly how many
// lines to skip on resume — so at-most-once consumption holds across kills.
//
// Frame layout (host-endian, like every durable artifact in this repo):
//
//   [u32 frame-magic][u32 payload-bytes][u32 crc32(payload)][payload]
//
// A torn tail (crash or injected stream.journal.torn_write mid-frame) is
// detected by the magic/length/CRC checks; recovery keeps the longest valid
// prefix and reports the cut so the caller can truncate before appending.
//
// Snapshots compact the prefix: a snapshot atomically persists the accepted
// events, quarantine counters, and consumed-line watermark up to a point,
// after which the journal may be reset (the daemon does, post-rename).
// Every frame carries its consumed-line ordinal, so a crash between
// snapshot rename and journal reset cannot double-apply: recovery skips
// frames below the snapshot's watermark.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "stream/event.h"

namespace fs::stream {

enum class FrameType : std::uint32_t {
  kAccepted = 1,
  kQuarantined = 2,
  kShed = 3,
};

/// One recovered journal frame. `source_index` is the consumed-line ordinal
/// (0-based) of the line this frame disposed of.
struct JournalRecord {
  FrameType type = FrameType::kAccepted;
  std::uint64_t source_index = 0;
  RawEvent event;                               // kAccepted
  RejectReason reason = RejectReason::kShortLine;  // kQuarantined
  std::string line;                             // kQuarantined / kShed
};

/// Append-only journal writer. Opens (creating the header when the file is
/// new or empty) and appends one frame per consumed line. The
/// stream.journal.torn_write failpoint (truncate action) cuts a frame short
/// and throws IoError, simulating a crash mid-write.
///
/// Writes go straight to a file descriptor through the EINTR-safe helpers
/// in util/binary_io — no stdio buffering — so after append_* returns the
/// frame bytes are in the kernel, and sync() (fsync) is the only remaining
/// durability barrier. The daemon calls sync() before acknowledging a
/// commit to a network client.
class JournalWriter {
 public:
  explicit JournalWriter(const std::string& path);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  void append_accepted(std::uint64_t source_index, const RawEvent& event);
  void append_quarantined(std::uint64_t source_index, RejectReason reason,
                          std::string_view line);
  void append_shed(std::uint64_t source_index, std::string_view line);
  void flush();
  /// fsync(2) barrier: everything appended so far survives power loss.
  void sync();
  /// Truncates the open journal back to its header — post-snapshot
  /// compaction. Later appends start right after the header.
  void reset();

  std::uint64_t bytes() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  void append_frame(const std::string& payload);
  void write_header();

  std::string path_;
  int fd_ = -1;
  std::uint64_t bytes_ = 0;
};

struct RecoveredJournal {
  std::vector<JournalRecord> records;
  std::uint64_t valid_bytes = 0;  // longest valid prefix (incl. header)
  bool truncated_tail = false;    // bytes past valid_bytes were cut/ignored
  bool missing = false;           // no journal file at all
};

/// Scans the journal, returning every frame of the longest valid prefix.
/// Never mutates the file; pass valid_bytes to truncate_journal before
/// re-opening a JournalWriter on a torn file.
RecoveredJournal recover_journal(const std::string& path);

/// Truncates the journal file to `valid_bytes` (crash-recovery cleanup).
void truncate_journal(const std::string& path, std::uint64_t valid_bytes);

/// Resets the journal at `path` to an empty (header-only) file. A writer
/// that has the journal open resets through JournalWriter::reset(), which
/// also keeps its byte count in step.
void reset_journal(const std::string& path);

// ---- snapshots ---------------------------------------------------------

struct Snapshot {
  std::uint64_t config_fingerprint = 0;  // engine config identity
  std::uint64_t consumed_lines = 0;      // source lines consumed (skip count)
  std::uint64_t shed_total = 0;
  std::array<std::uint64_t, kRejectReasonCount> quarantine_counts{};
  std::vector<RawEvent> events;          // accepted prefix, in order
};

/// Atomically writes the snapshot (tmp + rename; the tmp is removed on any
/// failure). The payload is CRC32-checksummed end to end.
void save_snapshot(const std::string& path, const Snapshot& snapshot);

/// Loads and validates a snapshot. Returns std::nullopt when the file is
/// missing, corrupt, or carries a different config fingerprint — recovery
/// then falls back to a full journal replay.
std::optional<Snapshot> load_snapshot(const std::string& path,
                                      std::uint64_t expected_fingerprint);

}  // namespace fs::stream
