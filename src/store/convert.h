// SNAP → columnar store conversion.
//
// Conversion reuses the batch loader end to end, so the store inherits the
// exact quarantine semantics of `--strict`/`--permissive` loading — same
// densification, same activity floor, same census — and then bakes a
// spatial-temporal assignment (quadtree cell, time slot) into every row,
// sorts by (cell, slot), and publishes the checksummed columnar file
// through util::atomic_publish. A crash at any point leaves either the old
// file or a stray tmp — never a final path that fails validation.
#pragma once

#include <cstdint>
#include <string>

#include "data/dataset.h"
#include "data/loader.h"
#include "geo/time_slots.h"

namespace fs::store {

struct ConvertOptions {
  /// Quadtree sigma (max POIs per leaf) for the cell column.
  std::size_t sigma = 45;
  /// Time-slot length (tau) for the slot column.
  geo::Timestamp tau_seconds = geo::kSecondsPerDay;
  /// Loader semantics (strictness, activity floor, user cap, governance);
  /// passed through to load_checkins_snap unchanged.
  data::LoadOptions load;
};

struct ConvertStats {
  std::size_t rows = 0;
  std::size_t users = 0;
  std::size_t pois = 0;
  std::size_t edges = 0;
  std::size_t grid_count = 0;
  std::size_t slot_count = 0;
  std::size_t file_bytes = 0;
};

/// Writes `ds` (+ the load census that produced it) as a store at `path`.
/// The division/slotting is built here from the options, so a convert and
/// a later attack with the same preset agree on the spatial-temporal grid.
ConvertStats write_store(const data::Dataset& ds,
                         const data::LoadReport& report,
                         const std::string& path,
                         const ConvertOptions& options);

/// Full pipeline: SNAP files → loader (quarantine semantics per
/// options.load) → store at `store_path`. Fills `report` when non-null.
ConvertStats convert_snap_to_store(const std::string& checkins_path,
                                   const std::string& edges_path,
                                   const std::string& store_path,
                                   const ConvertOptions& options,
                                   data::LoadReport* report = nullptr);

}  // namespace fs::store
