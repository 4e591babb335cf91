// Memory-mapped read access to a columnar check-in store.
//
// `MappedStore::open` maps the file read-only, validates it (header CRC,
// layout version, exact size, sort fingerprint, per-block payload CRCs —
// see format.h), and exposes the columns as spans over the mapping. Nothing
// is copied until a caller asks for a materialized `Dataset`; until then the
// working set is whatever pages the kernel keeps resident, which
// `resident_bytes()` measures (mincore) and `release_pages()` trims
// (MADV_DONTNEED) — the numbers `--max-memory-mb` accounting charges for a
// store-backed run instead of the file size.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "data/dataset.h"
#include "data/loader.h"
#include "store/format.h"

namespace fs::store {

enum class Verify {
  /// Header CRC + layout/version/size checks only. O(1) pages touched;
  /// for metadata queries (`stats`) and repeated opens of a store that a
  /// full verify already admitted this run.
  kHeaderOnly,
  /// Everything kHeaderOnly checks, plus the checksum-section CRC, every
  /// payload block CRC, and the (cell, slot) sort fingerprint. Touches every
  /// page once (sequential readahead), then the pages can be dropped again.
  kFull,
};

class MappedStore {
 public:
  /// Maps and validates `path`. Throws fs::IoError if the file cannot be
  /// opened or mapped, fs::CorruptStore if validation fails.
  static MappedStore open(const std::string& path, Verify verify = Verify::kFull);

  MappedStore(MappedStore&& other) noexcept;
  MappedStore& operator=(MappedStore&& other) noexcept;
  MappedStore(const MappedStore&) = delete;
  MappedStore& operator=(const MappedStore&) = delete;
  ~MappedStore();

  const StoreHeader& header() const {
    return *reinterpret_cast<const StoreHeader*>(base_);
  }
  std::size_t row_count() const { return header().row_count; }
  std::size_t user_count() const { return header().user_count; }
  std::size_t poi_count() const { return header().poi_count; }
  std::size_t edge_count() const { return header().edge_count; }
  std::size_t file_bytes() const { return bytes_; }
  const std::string& path() const { return path_; }

  // Row columns, sorted by (cell, slot); all spans have row_count() entries.
  std::span<const std::uint32_t> users() const { return col_u32(layout_.user_off); }
  std::span<const std::uint32_t> pois() const { return col_u32(layout_.poi_off); }
  std::span<const std::uint32_t> cells() const { return col_u32(layout_.cell_off); }
  std::span<const std::uint32_t> slots() const { return col_u32(layout_.slot_off); }
  std::span<const std::int64_t> times() const {
    return {ptr<std::int64_t>(layout_.time_off), row_count()};
  }
  std::span<const double> lats() const { return {ptr<double>(layout_.lat_off), row_count()}; }
  std::span<const double> lngs() const { return {ptr<double>(layout_.lng_off), row_count()}; }

  // POI table, indexable by PoiId.
  std::span<const double> poi_lats() const {
    return {ptr<double>(layout_.poi_lat_off), poi_count()};
  }
  std::span<const double> poi_lngs() const {
    return {ptr<double>(layout_.poi_lng_off), poi_count()};
  }
  std::span<const std::uint16_t> poi_categories() const {
    return {ptr<std::uint16_t>(layout_.poi_cat_off), poi_count()};
  }

  /// Canonical (a < b) friendship pairs, flattened: 2 * edge_count() ids.
  std::span<const std::uint32_t> edges() const {
    return {ptr<std::uint32_t>(layout_.edges_off), 2 * edge_count()};
  }

  /// The quarantine census of the SNAP load this store was converted from.
  data::LoadReport load_report() const;

  /// Materializes the full in-memory Dataset. Dataset::build re-sorts by
  /// (user, time, poi) — a total order over SNAP records — so the result is
  /// byte-identical to loading the original file directly, regardless of
  /// the store's (cell, slot) row order.
  data::Dataset to_dataset() const;

  /// Bytes of the mapping currently resident in RAM (mincore census).
  /// Falls back to file size if the kernel refuses the query.
  std::size_t resident_bytes() const;

  /// Advises the kernel the mapping's pages are no longer needed
  /// (MADV_DONTNEED); the next access faults them back in from disk.
  void release_pages() const;

 private:
  MappedStore() = default;
  void validate(Verify verify) const;

  template <typename T>
  const T* ptr(std::size_t offset) const {
    return reinterpret_cast<const T*>(static_cast<const char*>(base_) + offset);
  }
  std::span<const std::uint32_t> col_u32(std::size_t offset) const {
    return {ptr<std::uint32_t>(offset), row_count()};
  }

  void* base_ = nullptr;
  std::size_t bytes_ = 0;
  StoreLayout layout_;
  std::string path_;
};

/// FNV-1a over a (cell, slot) sequence; the writer stamps it into the
/// header, the reader recomputes it under Verify::kFull.
std::uint64_t sort_fingerprint(std::span<const std::uint32_t> cells,
                               std::span<const std::uint32_t> slots);

}  // namespace fs::store
