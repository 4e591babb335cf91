// Joint Occurrence Cuboid construction (Definitions 8-9, Fig 3).
//
// Both users' trajectories are cast into the spatial-temporal division; for
// every (grid, slot) cell the cuboid stores three indicators: the users'
// check-in counts n_a and n_b, and the number of POIs visited by BOTH users
// in that cell, n_ab. The flattened cuboid (I*J*3 values) is the input to
// the supervised autoencoder.
//
// A cuboid is almost all zeros (~1.5 % of the cells are set on the bench
// presets), so the engine keeps it as its non-zero (column, value)
// entries in an nn::SparseRows store. One emitter produces them, in
// ascending column order: the n_a, n_b and n_ab channels one after the
// other, each ascending by cell, each count summed as an integer before
// the log1p. The dense build_joc is a scatter of the same entries.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "geo/spatial_division.h"
#include "geo/time_slots.h"
#include "nn/sparse.h"
#include "util/runtime.h"

namespace fs::core {

/// Per-user occupancy index: check-ins aggregated by (cell, slot, POI),
/// sorted for pairwise merging. Built once per division/tau setting and
/// reused across all pairs — JOC construction is the hot path.
class OccupancyIndex {
 public:
  OccupancyIndex(const data::Dataset& dataset,
                 const geo::SpatialDivision& division,
                 const geo::TimeSlotting& slots);

  struct Entry {
    std::uint32_t cellslot;  // grid * slot_count + slot
    data::PoiId poi;
    std::uint32_t count;
  };

  const std::vector<Entry>& user_entries(data::UserId user) const;

  std::size_t grid_count() const { return grid_count_; }
  std::size_t slot_count() const { return slot_count_; }

  /// Flattened JOC dimensionality: I * J * 3.
  std::size_t joc_dim() const { return grid_count_ * slot_count_ * 3; }

 private:
  std::size_t grid_count_;
  std::size_t slot_count_;
  std::vector<std::vector<Entry>> per_user_;
};

struct JocOptions {
  /// log1p-compress the three indicators: check-in counts are heavy-tailed
  /// and raw counts destabilize autoencoder training. Monotone per cell, so
  /// it preserves which cells carry signal.
  bool log_scale = true;
  /// Optional governance: build_joc_matrix runs a cooperative cancellation
  /// point every few hundred rows (a partial JOC store is unusable, so
  /// cancellation and deadline expiry abort with a typed error), and
  /// charges the store against the memory budget.
  runtime::ExecutionContext* context = nullptr;
};

/// Non-zero entries of the JOC of (a, b).
std::size_t joc_nnz(const OccupancyIndex& index, data::UserId a,
                    data::UserId b);

/// Writes the JOC of (a, b) as its non-zero entries, columns strictly
/// ascending, into `cols` and `values` (room for joc_nnz(index, a, b)
/// each); returns how many it wrote.
std::size_t build_joc_entries(const OccupancyIndex& index, data::UserId a,
                              data::UserId b, std::uint32_t* cols,
                              double* values, const JocOptions& options = {});

/// Dense adapter: the flattened JOC of (a, b) into `out` (size joc_dim()),
/// the entries of build_joc_entries scattered over zeros.
void build_joc(const OccupancyIndex& index, data::UserId a, data::UserId b,
               double* out, const JocOptions& options = {});

/// The JOC store for a list of pairs, one row per pair, byte-identical at
/// any thread count. Every row's non-zeros are counted first; then, with
/// `charge` given, the store's exact bytes are charged against
/// options.context (`core.joc.matrix`) into *charge, which the caller keeps
/// as long as the store: an over-budget run throws BudgetError before the
/// store is allocated. Then the rows are filled in parallel.
nn::SparseRows build_joc_matrix(const OccupancyIndex& index,
                                const std::vector<data::UserPair>& pairs,
                                const JocOptions& options = {},
                                runtime::MemoryCharge* charge = nullptr);

}  // namespace fs::core
