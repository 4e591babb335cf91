// The durable-file layer: the one way checkpoints and stream snapshots
// reach disk.
//
// atomic_publish writes `<path>.tmp`, fsyncs it, renames it over `path` and
// fsyncs the parent directory, so a power loss leaves either the previous
// file or the complete new one under the name. Every failure is an IoError
// and removes the tmp. A tmp left by a dead process is truncated and
// overwritten by the next publish.
//
// Sealed envelope (host-endian): char[4] tag, u64 version, a CRC32 region
// of caller records, then the region's CRC32 as a u64. read_sealed checks
// tag, version and CRC before decoding, and decodes through a reader
// bounded to the region, so no length or count can allocate past the bytes
// left. Every defect it finds throws CorruptCheckpoint.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

#include "util/binary_io.h"

namespace fs::util {

/// Error-action failpoints a publisher names for its commit window.
struct PublishFaults {
  const char* write = nullptr;   // tmp open, payload unwritten: IoError
  const char* rename = nullptr;  // tmp synced, not renamed: IoError
};

/// Atomically replaces `path` with the bytes `write` streams out. An
/// exception from `write` propagates after the tmp is removed.
void atomic_publish(const std::string& path,
                    const std::function<void(std::ostream&)>& write,
                    const PublishFaults& faults = {});

/// Reads the whole file at `path`; throws IoError if it cannot be opened.
std::string read_file(const std::string& path);

/// Writes `tag`, `version`, the records `body` writes, and their CRC32.
void write_sealed(std::ostream& out, const char (&tag)[5],
                  std::uint64_t version,
                  const std::function<void(BinaryWriter&)>& body);

/// Opens the sealed envelope in `bytes` and runs `body` over its region,
/// which `body` must consume exactly. Throws CorruptCheckpoint on a short
/// file, a wrong tag or version, a CRC mismatch, a read past the region or
/// bytes left unread.
void read_sealed(std::string bytes, const char (&tag)[5],
                 std::uint64_t version,
                 const std::function<void(BinaryReader&)>& body);

}  // namespace fs::util
