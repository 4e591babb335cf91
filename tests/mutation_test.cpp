// Seeded mutation testing of every decoder that reads outside bytes: the
// checkpoint, snapshot and journal files, the SNAP check-in and edge text,
// the scenario configs, and the FSN1 frame stream.
//
// Each fixed artifact (durable_fixtures.h, the SNAP text below, the
// committed examples/scenario configs, an encoded frame stream) is
// corrupted by bit flips, truncations, splices and false length fields —
// the last both left under the CRC and re-sealed so the bounds checks
// behind the CRC are reached. Every mutant must load, come back as nullopt
// or a truncated journal prefix, or throw a typed fs::Error; any other
// exception fails the test. The frame decoder reports failures as a
// FrameError status, so it must never throw at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "data/loader.h"
#include "durable_fixtures.h"
#include "net/frame.h"
#include "scenario/config.h"
#include "util/binary_io.h"
#include "util/durable.h"
#include "util/error.h"
#include "util/rng.h"

namespace fs {
namespace {

namespace fx = durable_fixtures;

constexpr std::uint64_t kSeed = 0x5eed2026;
constexpr int kRandomMutants = 150;  // per kind, per artifact
constexpr std::size_t kSealHeader = 12;   // tag + version
constexpr std::size_t kSealTrailer = 8;   // u64 CRC
constexpr std::size_t kFrameHeader = 12;  // magic + length + CRC

#ifndef FS_EXAMPLES_DIR
#error "FS_EXAMPLES_DIR must point at the committed examples"
#endif

/// Gowalla-format check-ins (user, time, lat, lng, POI) and an undirected
/// edge list; every user has the two check-ins the loader's activity floor
/// asks for.
constexpr const char* kSnapCheckins =
    "1\t2010-10-19T10:00:00Z\t30.25\t-97.75\t5\n"
    "1\t2010-10-20T11:00:00Z\t30.50\t-97.50\t6\n"
    "2\t2010-10-19T10:30:00Z\t30.25\t-97.75\t5\n"
    "2\t2010-10-21T09:00:00Z\t31.00\t-97.00\t7\n"
    "3\t2010-10-20T11:15:00Z\t30.50\t-97.50\t6\n"
    "3\t2010-10-22T18:00:00Z\t31.00\t-97.00\t7\n"
    "4\t2010-10-22T18:30:00Z\t-33.87\t151.21\t8\n"
    "4\t2010-10-23T07:05:59Z\t-33.87\t151.21\t8\n";
constexpr const char* kSnapEdges = "1\t2\n2\t3\n3\t4\n4\t1\n";

struct Mutant {
  std::string kind;
  std::string bytes;
};

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/fs_mutation_test/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

template <typename T>
T read_at(const std::string& bytes, std::size_t offset) {
  T value{};
  std::memcpy(&value, bytes.data() + offset, sizeof value);
  return value;
}

template <typename T>
void write_at(std::string& bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof value);
}

void reseal_envelope(std::string& bytes) {
  const std::size_t region = bytes.size() - kSealHeader - kSealTrailer;
  write_at<std::uint64_t>(bytes, bytes.size() - kSealTrailer,
                          util::crc32(bytes.data() + kSealHeader, region));
}

/// Bit flips, truncations and splices, drawn from `rng`.
std::vector<Mutant> random_mutants(const std::string& original,
                                   util::Rng& rng) {
  std::vector<Mutant> mutants;
  const std::size_t n = original.size();
  for (int i = 0; i < kRandomMutants; ++i) {
    std::string flipped = original;
    const std::size_t flips = 1 + rng.index(4);
    for (std::size_t f = 0; f < flips; ++f)
      flipped[rng.index(n)] ^= static_cast<char>(1u << rng.index(8));
    mutants.push_back({"flip", std::move(flipped)});

    mutants.push_back({"truncate", original.substr(0, rng.index(n))});

    // Copy a slice of the artifact over, or into, another place in it.
    const std::size_t from = rng.index(n);
    const std::size_t len = 1 + rng.index(n - from);
    const std::size_t to = rng.index(n);
    std::string spliced = original;
    if (rng.index(2) == 0)
      spliced.replace(to, len, original, from, len);
    else
      spliced.insert(to, original, from, len);
    mutants.push_back({"splice", std::move(spliced)});
  }
  return mutants;
}

/// Overwrites the u64 length/count field at each offset with hostile
/// values; `reseal` then repairs the checksum that covers it.
std::vector<Mutant> false_lengths(
    const std::string& original, const std::vector<std::size_t>& offsets,
    const std::function<void(std::string&, std::size_t)>& reseal) {
  std::vector<Mutant> mutants;
  for (const std::size_t offset : offsets) {
    const auto honest = read_at<std::uint64_t>(original, offset);
    for (const std::uint64_t value :
         {std::uint64_t{0}, honest - 1, honest + 1,
          std::uint64_t{original.size()}, std::uint64_t{1} << 31,
          std::uint64_t{100000000}, std::uint64_t{1} << 62,
          ~std::uint64_t{0}}) {
      if (value == honest) continue;
      std::string bytes = original;
      write_at(bytes, offset, value);
      mutants.push_back({"length@" + std::to_string(offset), bytes});
      reseal(bytes, offset);
      mutants.push_back({"resealed-length@" + std::to_string(offset), bytes});
    }
  }
  return mutants;
}

/// Offsets of the checkpoint's length and count fields: the two top-level
/// vectors, then each nested record located by its tag.
std::vector<std::size_t> checkpoint_length_fields(const std::string& b) {
  std::vector<std::size_t> offsets;
  const auto vector_at = [&](std::size_t offset, std::size_t item) {
    offsets.push_back(offset);
    return offset + 8 + item * read_at<std::uint64_t>(b, offset);
  };
  const std::size_t scores = vector_at(kSealHeader + 16, sizeof(int));
  vector_at(scores, sizeof(double));
  for (std::size_t at = b.find("SAE1"); at != std::string::npos;
       at = b.find("SAE1", at + 1))
    vector_at(vector_at(at + 4, 8), 8);
  for (std::size_t at = b.find("MLP0"); at != std::string::npos;
       at = b.find("MLP0", at + 1))
    offsets.push_back(at + 4);
  for (const char* tag : {"DNSE", "KNN0"})
    for (std::size_t at = b.find(tag); at != std::string::npos;
         at = b.find(tag, at + 1))
      vector_at(vector_at(at + 4 + 24, sizeof(double)),
                tag[0] == 'D' ? sizeof(double) : sizeof(int));
  for (std::size_t at = b.find("SCLR"); at != std::string::npos;
       at = b.find("SCLR", at + 1))
    vector_at(vector_at(at + 4, sizeof(double)), sizeof(double));
  return offsets;
}

/// Offsets of the snapshot's event count and each event's line length.
std::vector<std::size_t> snapshot_length_fields(const std::string& b) {
  std::size_t at = kSealHeader + 8 * (3 + stream::kRejectReasonCount);
  std::vector<std::size_t> offsets{at};
  const auto events = read_at<std::uint64_t>(b, at);
  at += 8;
  for (std::uint64_t e = 0; e < events; ++e) {
    at += 8 * 8;
    offsets.push_back(at);
    at += 8 + read_at<std::uint64_t>(b, at);
  }
  return offsets;
}

struct JournalFrame {
  std::size_t begin;          // offset of the frame header
  std::size_t line_length;    // offset of the payload's line length
};

std::vector<JournalFrame> journal_frames(const std::string& b) {
  std::vector<JournalFrame> frames;
  for (std::size_t at = 8; at < b.size();
       at += kFrameHeader + read_at<std::uint32_t>(b, at + 4)) {
    const std::size_t payload = at + kFrameHeader;
    std::size_t line = payload + 16;  // past type + source index
    switch (read_at<std::uint64_t>(b, payload)) {
      case 1: line += 8 * 8; break;  // accepted: the event's fixed fields
      case 2: line += 8; break;      // quarantined: the reason
      default: break;                // shed: the line comes first
    }
    frames.push_back({at, line});
  }
  return frames;
}

/// Expects `mutant` to decode or fail with a typed error; anything else
/// (another exception type, an escaped std::bad_alloc) fails the test.
void expect_typed(const Mutant& mutant, const std::function<void()>& decode) {
  try {
    decode();
  } catch (const Error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << mutant.kind << " mutant (" << mutant.bytes.size()
                  << " bytes) escaped untyped: " << e.what();
  }
}

TEST(DecoderMutation, CheckpointLoadsOrThrowsTyped) {
  const std::string dir = fresh_dir("checkpoint");
  const std::string path = dir + "/checkpoint.fsck";
  core::save_pipeline_checkpoint(path, fx::fixed_checkpoint());
  const std::string original = util::read_file(path);
  util::Rng rng(kSeed);
  std::vector<Mutant> mutants = random_mutants(original, rng);
  const std::vector<std::size_t> fields = checkpoint_length_fields(original);
  ASSERT_EQ(fields.size(), 19u);  // 2 top-level + 17 nested
  for (Mutant& m : false_lengths(original, fields, [](std::string& b,
                                                      std::size_t) {
         reseal_envelope(b);
       }))
    mutants.push_back(std::move(m));

  std::size_t rejected = 0;
  for (const Mutant& mutant : mutants) {
    write_bytes(path, mutant.bytes);
    expect_typed(mutant, [&] {
      try {
        core::load_pipeline_checkpoint(path);
      } catch (const CorruptCheckpoint&) {
        ++rejected;
        throw;
      }
    });
  }
  EXPECT_GT(rejected, mutants.size() * 9 / 10);
}

TEST(DecoderMutation, SnapshotLoadsOrIsRefused) {
  const std::string dir = fresh_dir("snapshot");
  const std::string path = dir + "/snapshot.fss";
  stream::save_snapshot(path, fx::fixed_snapshot());
  const std::string original = util::read_file(path);
  util::Rng rng(kSeed + 1);
  std::vector<Mutant> mutants = random_mutants(original, rng);
  for (Mutant& m : false_lengths(original, snapshot_length_fields(original),
                                 [](std::string& b, std::size_t) {
                                   reseal_envelope(b);
                                 }))
    mutants.push_back(std::move(m));

  std::size_t refused = 0;
  for (const Mutant& mutant : mutants) {
    write_bytes(path, mutant.bytes);
    expect_typed(mutant, [&] {
      refused += !stream::load_snapshot(path, 0xfeedULL).has_value();
    });
  }
  EXPECT_GT(refused, mutants.size() * 9 / 10);
}

TEST(DecoderMutation, JournalRecoversAPrefixOrSplicedFrames) {
  const std::string dir = fresh_dir("journal");
  const std::string path = dir + "/journal.fsj";
  fx::write_fixed_journal(path);
  const std::string original = util::read_file(path);
  const auto honest = stream::recover_journal(path);
  ASSERT_EQ(honest.records.size(), 4u);

  util::Rng rng(kSeed + 2);
  std::vector<Mutant> mutants = random_mutants(original, rng);
  const std::vector<JournalFrame> frames = journal_frames(original);
  ASSERT_EQ(frames.size(), 4u);
  std::vector<std::size_t> lines;
  for (const JournalFrame& f : frames) lines.push_back(f.line_length);
  // Line lengths sit under the frame CRC, which the reseal repairs.
  for (Mutant& m : false_lengths(original, lines, [&](std::string& b,
                                                      std::size_t offset) {
         for (const JournalFrame& f : frames) {
           if (offset < f.begin || offset >= f.line_length + 8) continue;
           const auto len = read_at<std::uint32_t>(b, f.begin + 4);
           write_at(b, f.begin + 8,
                    util::crc32(b.data() + f.begin + kFrameHeader, len));
         }
       }))
    mutants.push_back(std::move(m));
  // Frame lengths sit outside the CRC: every false value is a torn frame.
  for (const JournalFrame& f : frames)
    for (const std::uint32_t len : {0u, 1u, 0x7fffffffu, 0xffffffffu}) {
      std::string bytes = original;
      write_at(bytes, f.begin + 4, len);
      mutants.push_back({"frame-length@" + std::to_string(f.begin), bytes});
    }

  for (const Mutant& mutant : mutants) {
    write_bytes(path, mutant.bytes);
    expect_typed(mutant, [&] {
      const auto recovered = stream::recover_journal(path);
      EXPECT_LE(recovered.valid_bytes, mutant.bytes.size()) << mutant.kind;
      if (mutant.kind == "splice") return;  // may legally repeat a frame
      ASSERT_LE(recovered.records.size(), honest.records.size())
          << mutant.kind;
      for (std::size_t i = 0; i < recovered.records.size(); ++i) {
        EXPECT_EQ(recovered.records[i].source_index,
                  honest.records[i].source_index)
            << mutant.kind;
        EXPECT_EQ(recovered.records[i].line, honest.records[i].line)
            << mutant.kind;
      }
    });
  }
}

TEST(DecoderMutation, SnapTextLoadsOrThrowsTyped) {
  const std::string dir = fresh_dir("snap");
  const std::string checkins = dir + "/checkins.txt";
  const std::string edges = dir + "/edges.txt";
  data::LoadOptions strict;
  data::LoadOptions permissive;
  permissive.strictness = data::Strictness::kPermissive;
  write_bytes(checkins, kSnapCheckins);
  write_bytes(edges, kSnapEdges);
  const data::Dataset honest = data::load_checkins_snap(checkins, edges);
  ASSERT_EQ(honest.checkin_count(), 8u);
  ASSERT_EQ(honest.friendships().edge_count(), 4u);

  util::Rng rng(kSeed + 3);
  std::size_t strict_refused = 0;
  for (const auto& [path, original] :
       {std::pair<std::string, std::string>{checkins, kSnapCheckins},
        std::pair<std::string, std::string>{edges, kSnapEdges}}) {
    for (const Mutant& mutant : random_mutants(original, rng)) {
      write_bytes(path, mutant.bytes);
      expect_typed(mutant, [&] {
        try {
          data::load_checkins_snap(checkins, edges, strict);
        } catch (const ParseError&) {
          ++strict_refused;
          throw;
        }
      });
      // The permissive loader quarantines every malformed line instead.
      expect_typed(mutant, [&] {
        data::LoadReport report;
        const data::Dataset ds =
            data::load_checkins_snap(checkins, edges, permissive, &report);
        EXPECT_EQ(ds.checkin_count(), report.accepted_checkins)
            << mutant.kind;
      });
    }
    write_bytes(path, original);
  }
  EXPECT_GT(strict_refused, 0u);
}

TEST(DecoderMutation, ScenarioConfigsParseOrThrowTyped) {
  std::size_t configs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(FS_EXAMPLES_DIR) + "/scenario")) {
    if (entry.path().extension() != ".json") continue;
    SCOPED_TRACE(entry.path().filename().string());
    const std::string original = util::read_file(entry.path().string());
    ASSERT_NO_THROW(scenario::parse_scenario_config_text(original));
    util::Rng rng(kSeed + 4 + configs++);
    std::size_t refused = 0;
    for (const Mutant& mutant : random_mutants(original, rng))
      expect_typed(mutant, [&] {
        try {
          scenario::parse_scenario_config_text(mutant.bytes);
        } catch (const Error&) {
          ++refused;
          throw;
        }
      });
    EXPECT_GT(refused, 0u);
  }
  EXPECT_GE(configs, 7u);
}

/// Feeds `bytes` to a fresh decoder in chunks drawn from `rng` and drains
/// it, resyncing past CRC failures; returns the frames decoded. Stops at
/// an unframeable error, as the server does.
std::vector<net::Frame> decode_stream(const std::string& bytes,
                                      util::Rng& rng) {
  net::FrameDecoder decoder;
  std::vector<net::Frame> frames;
  std::size_t fed = 0;
  while (true) {
    net::Frame frame;
    const net::DecodeStatus status = decoder.next(frame);
    if (status == net::DecodeStatus::kFrame) {
      frames.push_back(std::move(frame));
    } else if (status == net::DecodeStatus::kError) {
      EXPECT_NE(decoder.error(), net::FrameError::kNone);
      if (!decoder.can_resync()) break;
      decoder.resync();
    } else if (fed < bytes.size()) {
      const std::size_t chunk = 1 + rng.index(bytes.size() - fed);
      decoder.feed(bytes.data() + fed, chunk);
      fed += chunk;
    } else {
      break;
    }
  }
  return frames;
}

TEST(DecoderMutation, FrameStreamYieldsFramesOrFrameErrors) {
  std::string original = net::encode_frame(net::FrameType::kHello, "");
  for (const char* line : {"1\t2010-10-19T10:00:00Z\t30.25\t-97.75\t5",
                           "2\t2010-10-19T10:30:00Z\t30.25\t-97.75\t5"})
    original += net::encode_frame(net::FrameType::kCheckin, line);
  original += net::encode_frame(net::FrameType::kCommit, "");
  original += net::encode_frame_u64(net::FrameType::kAck, 2);
  util::Rng rng(kSeed + 8);
  ASSERT_EQ(decode_stream(original, rng).size(), 5u);

  std::vector<Mutant> mutants = random_mutants(original, rng);
  // Payload lengths sit outside the CRC: every false value must surface
  // as a FrameError or a torn tail, never as a read past the buffer.
  for (std::size_t at = 0; at < original.size();
       at += net::kFrameHeaderBytes + read_at<std::uint32_t>(original, at + 8))
    for (const std::uint32_t len :
         {0u, 1u, 7u, 9u, std::uint32_t{net::kMaxFramePayload},
          std::uint32_t{net::kMaxFramePayload} + 1, 0x7fffffffu,
          0xffffffffu}) {
      std::string bytes = original;
      write_at(bytes, at + 8, len);
      mutants.push_back({"length@" + std::to_string(at), bytes});
    }

  std::size_t damaged = 0;
  for (const Mutant& mutant : mutants) {
    try {
      const std::vector<net::Frame> frames = decode_stream(mutant.bytes, rng);
      damaged += frames.size() != 5;
      for (const net::Frame& frame : frames)
        EXPECT_LE(frame.payload.size(), net::kMaxFramePayload) << mutant.kind;
    } catch (const std::exception& e) {
      ADD_FAILURE() << mutant.kind << " mutant (" << mutant.bytes.size()
                    << " bytes) threw: " << e.what();
    }
  }
  EXPECT_GT(damaged, mutants.size() / 2);
}

}  // namespace
}  // namespace fs
