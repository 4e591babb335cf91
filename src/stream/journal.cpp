#include "stream/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "util/binary_io.h"
#include "util/durable.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace fs::stream {
namespace {

namespace fp = util::failpoint;

constexpr std::uint32_t kFrameMagic = 0x464A4C31;  // "1LJF" on disk
constexpr char kJournalHeader[8] = {'F', 'S', 'J', 'R', 'N', 'L', '1', '\0'};

/// The RawEvent field codec, shared by accepted journal frames and the
/// snapshot's event list: eight 8-byte fields, then the wire line.
constexpr std::size_t kMinEventBytes = 9 * sizeof(std::uint64_t);

void write_event(util::BinaryWriter& w, const RawEvent& e) {
  w.u64(e.seq);
  w.u64(e.event_id);
  w.u64(e.has_explicit_id ? 1 : 0);
  w.i64(e.user);
  w.i64(e.time);
  w.f64(e.location.lat);
  w.f64(e.location.lng);
  w.i64(e.poi);
  w.str(e.line);
}

RawEvent read_event(util::BinaryReader& r) {
  RawEvent e;
  e.seq = r.u64();
  e.event_id = r.u64();
  e.has_explicit_id = r.u64() != 0;
  e.user = r.i64();
  e.time = r.i64();
  e.location.lat = r.f64();
  e.location.lng = r.f64();
  e.poi = r.i64();
  e.line = r.str();
  return e;
}

/// Encodes a frame payload: type, source index, then the disposition's
/// own fields.
std::string encode_payload(
    FrameType type, std::uint64_t source_index,
    const std::function<void(util::BinaryWriter&)>& fields) {
  std::ostringstream buffer(std::ios::binary);
  util::BinaryWriter w(buffer);
  w.u64(static_cast<std::uint64_t>(type));
  w.u64(source_index);
  fields(w);
  return std::move(buffer).str();
}

/// Decodes one payload; throws CorruptCheckpoint on any malformed field
/// (the caller treats that like a CRC failure: the prefix before this frame
/// is the valid one).
JournalRecord decode_payload(const std::string& payload) {
  std::istringstream buffer(payload, std::ios::binary);
  util::BinaryReader r(buffer, payload.size());
  JournalRecord record;
  const auto type = r.u64();
  if (type < 1 || type > 3)
    throw CorruptCheckpoint("journal frame with unknown type " +
                            std::to_string(type));
  record.type = static_cast<FrameType>(type);
  record.source_index = r.u64();
  switch (record.type) {
    case FrameType::kAccepted:
      record.event = read_event(r);
      break;
    case FrameType::kQuarantined: {
      const auto reason = r.u64();
      if (reason >= kRejectReasonCount)
        throw CorruptCheckpoint("journal quarantine frame with unknown reason");
      record.reason = static_cast<RejectReason>(reason);
      record.line = r.str();
      break;
    }
    case FrameType::kShed:
      record.line = r.str();
      break;
  }
  if (r.remaining() != 0)
    throw CorruptCheckpoint("journal frame with trailing payload bytes");
  return record;
}

}  // namespace

JournalWriter::JournalWriter(const std::string& path) : path_(path) {
  std::error_code ec;
  const auto existing = std::filesystem::file_size(path_, ec);
  const bool fresh = ec || existing < sizeof(kJournalHeader);
  // Always O_APPEND: every write lands at the file's current end, so a
  // truncation (reset(), or reset_journal on the path) can never leave a
  // zero-filled hole that recovery would read as a torn tail.
  const int flags = O_WRONLY | O_CREAT | O_APPEND | (fresh ? O_TRUNC : 0);
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) throw IoError("cannot open journal for writing: " + path_);
  if (fresh) {
    // New (or hopelessly short) file: start from a clean header.
    write_header();
  } else {
    bytes_ = existing;
  }
}

void JournalWriter::write_header() {
  if (!util::write_all_eintr(fd_, kJournalHeader, sizeof(kJournalHeader)))
    throw IoError("journal header write failed: " + path_);
  bytes_ = sizeof(kJournalHeader);
}

void JournalWriter::reset() {
  if (::ftruncate(fd_, 0) != 0)
    throw IoError("cannot reset journal: " + path_);
  write_header();
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::append_frame(const std::string& payload) {
  const std::uint32_t head[3] = {
      kFrameMagic, static_cast<std::uint32_t>(payload.size()),
      util::crc32(payload.data(), payload.size())};
  std::string frame(reinterpret_cast<const char*>(head), sizeof head);
  frame += payload;

  const std::size_t writable =
      fp::truncate("stream.journal.torn_write", frame.size());
  if (!util::write_all_eintr(fd_, frame.data(), writable))
    throw IoError("journal append failed: " + path_);
  bytes_ += writable;
  if (writable != frame.size())
    throw IoError("journal torn write injected at " + path_ + " (wrote " +
                  std::to_string(writable) + "/" +
                  std::to_string(frame.size()) + " bytes)");
}

void JournalWriter::append_accepted(std::uint64_t source_index,
                                    const RawEvent& event) {
  append_frame(encode_payload(
      FrameType::kAccepted, source_index,
      [&](util::BinaryWriter& w) { write_event(w, event); }));
}

void JournalWriter::append_quarantined(std::uint64_t source_index,
                                       RejectReason reason,
                                       std::string_view line) {
  append_frame(encode_payload(FrameType::kQuarantined, source_index,
                              [&](util::BinaryWriter& w) {
                                w.u64(static_cast<std::uint64_t>(reason));
                                w.str(line);
                              }));
}

void JournalWriter::append_shed(std::uint64_t source_index,
                                std::string_view line) {
  append_frame(encode_payload(
      FrameType::kShed, source_index,
      [&](util::BinaryWriter& w) { w.str(line); }));
}

void JournalWriter::sync() {
  if (!util::fsync_eintr(fd_)) throw IoError("journal fsync failed: " + path_);
}

RecoveredJournal recover_journal(const std::string& path) {
  RecoveredJournal result;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    result.missing = true;
    return result;
  }
  const auto file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  char header[sizeof(kJournalHeader)];
  in.read(header, sizeof(header));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(header)) ||
      std::memcmp(header, kJournalHeader, sizeof(header)) != 0) {
    // Unrecognised or torn header: nothing in this file is trustworthy.
    result.truncated_tail = true;
    return result;
  }
  result.valid_bytes = sizeof(header);
  // A frame counts whole or not at all. A short header, bad magic, a length
  // past EOF (checked before the payload is allocated, so a corrupt length
  // cannot ask for 4 GiB), a short payload, a CRC mismatch or an
  // undecodable payload is a torn tail and ends the valid prefix.
  std::uint64_t frame_end = result.valid_bytes;
  const auto next_frame = [&]() -> std::optional<JournalRecord> {
    std::uint32_t head[3] = {};  // magic, payload bytes, crc32(payload)
    in.read(reinterpret_cast<char*>(head), sizeof head);
    frame_end = result.valid_bytes + sizeof head + head[1];
    if (in.gcount() != static_cast<std::streamsize>(sizeof head) ||
        head[0] != kFrameMagic || frame_end > file_bytes)
      return std::nullopt;
    std::string payload(head[1], '\0');
    in.read(payload.data(), head[1]);
    if (in.gcount() != head[1] ||
        util::crc32(payload.data(), payload.size()) != head[2])
      return std::nullopt;
    try {
      return decode_payload(payload);
    } catch (const Error&) {
      return std::nullopt;
    }
  };
  while (in.peek() != std::ifstream::traits_type::eof()) {
    auto record = next_frame();
    if (!record) {
      result.truncated_tail = true;
      break;
    }
    result.records.push_back(std::move(*record));
    result.valid_bytes = frame_end;
  }
  return result;
}

void truncate_journal(const std::string& path, std::uint64_t valid_bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec)
    throw IoError("cannot truncate journal " + path + " to " +
                  std::to_string(valid_bytes) + " bytes: " + ec.message());
}

void reset_journal(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot reset journal: " + path);
  out.write(kJournalHeader, sizeof(kJournalHeader));
  out.flush();
  if (!out) throw IoError("journal reset write failed: " + path);
}

// ---- snapshots ---------------------------------------------------------

// Version 2 widened quarantine_counts for the transport-level reject reasons
// (frame_corrupt/frame_malformed). v1 snapshots are refused by load_snapshot,
// which falls back to a full journal replay.
constexpr std::uint64_t kSnapshotVersion = 2;

void save_snapshot(const std::string& path, const SnapshotView& snapshot) {
  util::atomic_publish(path, [&](std::ostream& out) {
    util::write_sealed(out, "FSSN", kSnapshotVersion,
                       [&](util::BinaryWriter& w) {
                         w.u64(snapshot.config_fingerprint);
                         w.u64(snapshot.consumed_lines);
                         w.u64(snapshot.shed_total);
                         for (const auto count : snapshot.quarantine_counts)
                           w.u64(count);
                         w.u64(snapshot.events.size());
                         for (const auto& e : snapshot.events)
                           write_event(w, e);
                       });
  });
}

void save_snapshot(const std::string& path, const Snapshot& snapshot) {
  save_snapshot(path, SnapshotView{snapshot.config_fingerprint,
                                   snapshot.consumed_lines,
                                   snapshot.shed_total,
                                   snapshot.quarantine_counts,
                                   snapshot.events});
}

std::optional<Snapshot> load_snapshot(const std::string& path,
                                      std::uint64_t expected_fingerprint) {
  Snapshot snapshot;
  try {
    util::read_sealed(util::read_file(path), "FSSN", kSnapshotVersion,
                      [&](util::BinaryReader& r) {
                        snapshot.config_fingerprint = r.u64();
                        snapshot.consumed_lines = r.u64();
                        snapshot.shed_total = r.u64();
                        for (auto& count : snapshot.quarantine_counts)
                          count = r.u64();
                        snapshot.events.resize(r.count(kMinEventBytes));
                        for (auto& e : snapshot.events) e = read_event(r);
                      });
  } catch (const Error&) {
    // Missing, torn, corrupt, or wrong-format snapshot: recovery replays
    // the journal.
    return std::nullopt;
  }
  if (snapshot.config_fingerprint != expected_fingerprint) return std::nullopt;
  return snapshot;
}

}  // namespace fs::stream
