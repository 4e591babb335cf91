// On-disk layout of the columnar check-in store (`.fsst`).
//
// The store is the out-of-core twin of data::Dataset: every check-in as
// fixed-width columns, sorted by (cell, slot) so each grid cell's rows are
// contiguous, memory-mapped read-only at attack time so the working set is
// resident pages, not vectors.
//
//   +--------------------------------------------------------------+
//   | StoreHeader (256 B, fixed)     crc32 over bytes [0, 252)     |
//   +--------------------------------------------------------------+
//   | user  u32[n]  | poi  u32[n] | cell u32[n] | slot u32[n]      |
//   | time  i64[n]  | lat  f64[n] | lng  f64[n]      (row columns) |
//   +--------------------------------------------------------------+
//   | poi_lat f64[p] | poi_lng f64[p] | poi_category u16[p]        |
//   +--------------------------------------------------------------+
//   | edges u32[2*e]   (canonical a<b pairs, sorted)               |
//   +--------------------------------------------------------------+
//   | block_crc u32[ceil(payload/1MiB)] | section_crc u32          |
//   +--------------------------------------------------------------+
//
// Every section starts 64-byte aligned (deterministic padding of zeros), so
// mapped column pointers satisfy any SIMD alignment a kernel may want. All
// offsets are pure functions of the header counts (see StoreLayout), pinned
// by kLayoutVersion: bumping the version is the only way the byte layout
// may change. Integers are host-endian; the endian marker in the header
// rejects files from a foreign-endian machine instead of reading swapped
// numbers.
//
// Integrity: the header carries its own CRC32; the payload (everything
// between the header and the checksum section) is covered by per-1MiB-block
// CRC32s, and the checksum section itself by a final CRC32 — so truncation
// (exact-size check), a flipped bit in any column, and a flipped bit in the
// checksum section are all rejected with fs::CorruptStore before a single
// row is trusted.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fs::store {

inline constexpr std::uint32_t kMagic = 0x54535346u;  // "FSST" little-endian
inline constexpr std::uint32_t kLayoutVersion = 1;
inline constexpr std::uint32_t kEndianMarker = 0x01020304u;
inline constexpr std::size_t kHeaderBytes = 256;
inline constexpr std::size_t kSectionAlign = 64;
/// Granularity of payload checksums. Small enough that verifying a tiny
/// store is cheap, large enough that the checksum section stays negligible
/// (4 B per MiB).
inline constexpr std::size_t kBlockBytes = 1u << 20;
/// Number of quarantine-census counters persisted from data::LoadReport.
inline constexpr std::size_t kCensusCounters = 12;

/// Fixed 256-byte header. Field order and widths are frozen under
/// kLayoutVersion; `reserved` absorbs future fields without moving offsets.
struct StoreHeader {
  std::uint32_t magic = kMagic;
  std::uint32_t layout_version = kLayoutVersion;
  std::uint32_t endian = kEndianMarker;
  std::uint32_t header_bytes = kHeaderBytes;
  std::uint64_t row_count = 0;
  std::uint64_t user_count = 0;
  std::uint64_t poi_count = 0;
  std::uint64_t edge_count = 0;
  std::int64_t window_begin = 0;  // half-open observation window
  std::int64_t window_end = 0;
  std::uint64_t grid_count = 0;   // quadtree leaves at convert time
  std::uint64_t slot_count = 0;
  std::uint64_t sigma = 0;        // division parameters baked into cell/slot
  std::int64_t tau_seconds = 0;
  std::uint64_t block_bytes = kBlockBytes;
  /// FNV-1a over the (cell, slot) sequence in row order: certifies the
  /// (cell, slot) sort order.
  std::uint64_t sort_fingerprint = 0;
  /// data::LoadReport counters in declaration order, so the quarantine
  /// census of the original SNAP load survives the conversion.
  std::uint64_t census[kCensusCounters] = {};
  std::uint8_t reserved[44] = {};
  /// crc32 over the preceding 252 bytes.
  std::uint32_t header_crc = 0;
};
static_assert(sizeof(StoreHeader) == kHeaderBytes,
              "StoreHeader layout is frozen at 256 bytes");

inline constexpr std::size_t align_up(std::size_t offset) {
  return (offset + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

/// Byte offsets of every section, derived purely from the header counts.
/// Writer and reader both call `compute`, so there is exactly one place
/// that knows the layout.
struct StoreLayout {
  std::size_t user_off = 0, poi_off = 0, cell_off = 0, slot_off = 0;
  std::size_t time_off = 0, lat_off = 0, lng_off = 0;
  std::size_t poi_lat_off = 0, poi_lng_off = 0, poi_cat_off = 0;
  std::size_t edges_off = 0;
  std::size_t payload_end = 0;  // first byte after the last data section
  std::size_t crc_off = 0;      // == payload_end (crc section is unaligned)
  std::size_t block_count = 0;  // payload blocks covered by crc_off[]
  std::size_t file_bytes = 0;   // exact expected file size

  static StoreLayout compute(std::uint64_t rows, std::uint64_t pois,
                             std::uint64_t edges) {
    const auto n = static_cast<std::size_t>(rows);
    const auto p = static_cast<std::size_t>(pois);
    const auto e = static_cast<std::size_t>(edges);
    StoreLayout out;
    std::size_t at = kHeaderBytes;
    const auto section = [&at](std::size_t bytes) {
      at = align_up(at);
      const std::size_t off = at;
      at += bytes;
      return off;
    };
    out.user_off = section(n * sizeof(std::uint32_t));
    out.poi_off = section(n * sizeof(std::uint32_t));
    out.cell_off = section(n * sizeof(std::uint32_t));
    out.slot_off = section(n * sizeof(std::uint32_t));
    out.time_off = section(n * sizeof(std::int64_t));
    out.lat_off = section(n * sizeof(double));
    out.lng_off = section(n * sizeof(double));
    out.poi_lat_off = section(p * sizeof(double));
    out.poi_lng_off = section(p * sizeof(double));
    out.poi_cat_off = section(p * sizeof(std::uint16_t));
    out.edges_off = section(2 * e * sizeof(std::uint32_t));
    out.payload_end = at;
    out.crc_off = at;
    const std::size_t payload_bytes = out.payload_end - kHeaderBytes;
    out.block_count = (payload_bytes + kBlockBytes - 1) / kBlockBytes;
    out.file_bytes = out.crc_off +
                     (out.block_count + 1) * sizeof(std::uint32_t);
    return out;
  }
};

}  // namespace fs::store
