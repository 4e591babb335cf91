// Inverted spatial-temporal co-occurrence index (the blocking substrate).
//
// The attack's natural candidate universe is all O(n^2) user pairs, but
// mobility-based link inference hinges on who ever co-occurs: pairs sharing
// no (grid, slot) cell of the spatial-temporal division are overwhelmingly
// non-friends (Table II: 81-92 % of non-friends share no common location).
// The CellIndex turns the division into two retrieval structures:
//
//   * a per-user *cell profile* — the sorted, de-duplicated list of
//     (grid, slot) cells the user ever checked into — for O(|A| + |B|)
//     pairwise co-occurrence tests with a slot tolerance; and
//   * an inverted (grid, slot[, poi]) -> users index, so candidate pairs
//     can be *generated* from co-occupancy instead of enumerated densely.
//
// Both are pure functions of (dataset, division, slots); the signature()
// fingerprint keys downstream caches so they invalidate exactly when the
// division, tau, or the data change.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "geo/spatial_division.h"
#include "geo/time_slots.h"
#include "util/runtime.h"

namespace fs::block {

class CellIndex {
 public:
  /// One check-in group: the user visited `poi` inside cell `cellslot`
  /// (grid * slot_count + slot) at least once.
  struct PoiVisit {
    std::uint32_t cellslot = 0;
    data::PoiId poi = 0;

    friend bool operator==(const PoiVisit&, const PoiVisit&) = default;
    friend auto operator<=>(const PoiVisit&, const PoiVisit&) = default;
  };

  /// Builds the index. The per-user profile pass fans out over fs::par
  /// (users are disjoint slots, so the result is byte-identical at any
  /// thread count); the inverted index is assembled sequentially.
  CellIndex(const data::Dataset& dataset, const geo::SpatialDivision& division,
            const geo::TimeSlotting& slots,
            runtime::ExecutionContext* context = nullptr);

  std::size_t user_count() const { return cell_profiles_.size(); }
  std::size_t grid_count() const { return grid_count_; }
  std::size_t slot_count() const { return slot_count_; }

  /// Sorted unique (grid, slot) cells the user ever checked into.
  std::span<const std::uint32_t> cell_profile(data::UserId user) const {
    return cell_profiles_.at(user);
  }

  /// Sorted unique (cellslot, poi) visits of the user.
  std::span<const PoiVisit> poi_visits(data::UserId user) const {
    return poi_visits_.at(user);
  }

  /// Users with at least one check-in inside `cellslot`, sorted ascending.
  /// Empty span for unoccupied cells.
  std::span<const data::UserId> users_in_cell(std::uint32_t cellslot) const;

  /// Occupied cellslots, sorted ascending (the inverted index's keys).
  std::span<const std::uint32_t> occupied_cells() const { return occupied_; }

  /// True when a and b share a grid cell in slots at most `slot_tolerance`
  /// apart — the blocking predicate. Tolerance 0 is exact-(cell, slot)
  /// co-occurrence, the same granularity the JOC's n_ab channel uses.
  bool cooccur(data::UserId a, data::UserId b, int slot_tolerance) const;

  /// True when a and b visited the same POI inside the same (cell, slot) —
  /// the "strong" co-occurrence that makes the pair's JOC carry n_ab mass.
  bool strong_cooccur(data::UserId a, data::UserId b) const;

  /// FNV-1a fingerprint of the full index content (profiles + dimensions).
  /// Two datasets cast into the same division and slotting collide only if
  /// their binned occupancy is identical, which is exactly when cached
  /// per-pair features are reusable.
  std::uint64_t signature() const { return signature_; }

 private:
  /// Derives cell_profiles_, the CSR inverted index, and the signature from
  /// poi_visits_ (which must be sorted unique per user).
  void finalize_from_visits();

  std::size_t grid_count_ = 0;
  std::size_t slot_count_ = 0;
  std::vector<std::vector<std::uint32_t>> cell_profiles_;
  std::vector<std::vector<PoiVisit>> poi_visits_;
  // Inverted index in CSR form over occupied cellslots.
  std::vector<std::uint32_t> occupied_;       // sorted occupied cellslot ids
  std::vector<std::size_t> cell_offsets_;     // occupied_.size() + 1
  std::vector<data::UserId> cell_users_;      // concatenated sorted user lists
  std::uint64_t signature_ = 0;
};

}  // namespace fs::block
