// The occupancy index: every check-in binned into the spatial-temporal
// division, once per run. Both the JOCs (Definitions 8-9) and blocking read
// it, so "which user checked into which POI in which (grid, slot) cell" is
// defined in exactly one place.
//
// Per user it holds two sorted lists:
//
//   * the (cellslot, POI, count) entries — the check-ins aggregated by
//     (grid, slot, POI), sorted by (cellslot, POI) for pairwise merging.
//     The JOC emitter sums them into n_a / n_b and merges two users' lists
//     for n_ab; the strong co-occurrence test merges them likewise; and
//   * the *cell profile* — the entries with the POI dimension collapsed,
//     the sorted unique (grid, slot) cells the user ever checked into — for
//     O(|A| + |B|) cell co-occurrence tests with a slot tolerance.
//
// Mobility-based link inference hinges on who ever co-occurs: pairs sharing
// no (grid, slot) cell are overwhelmingly non-friends (Table II: 81-92 % of
// non-friends share no common location), which is what blocking exploits.
//
// The index is a pure function of (dataset, division, slots).
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
  /// The user checked into `poi` inside cell `cellslot`
  /// (grid * slot_count + slot) `count` times.
  struct Entry {
    std::uint32_t cellslot = 0;
    data::PoiId poi = 0;
    std::uint32_t count = 0;
  };

  /// Builds the index. The per-user pass fans out over fs::par (users are
  /// disjoint slots, so the result is byte-identical at any thread count).
  /// Throws BudgetError when joc_dim() exceeds 2^32: cellslots and JOC
  /// columns travel as uint32.
  CellIndex(const data::Dataset& dataset, const geo::SpatialDivision& division,
            const geo::TimeSlotting& slots,
            runtime::ExecutionContext* context = nullptr);

  std::size_t user_count() const { return entries_.size(); }
  std::size_t grid_count() const { return grid_count_; }
  std::size_t slot_count() const { return slot_count_; }

  /// Flattened JOC dimensionality: I * J * 3.
  std::size_t joc_dim() const { return grid_count_ * slot_count_ * 3; }

  /// The user's (cellslot, poi, count) entries, sorted by (cellslot, poi),
  /// one per distinct pair.
  std::span<const Entry> entries(data::UserId user) const {
    return entries_.at(user);
  }

  /// Sorted unique (grid, slot) cells the user ever checked into.
  std::span<const std::uint32_t> cell_profile(data::UserId user) const {
    return cell_profiles_.at(user);
  }

  /// True when a and b share a grid cell in slots at most `slot_tolerance`
  /// apart — the blocking predicate. Tolerance 0 is exact-(cell, slot)
  /// co-occurrence, the same granularity the JOC's n_ab channel uses.
  bool cooccur(data::UserId a, data::UserId b, int slot_tolerance) const;

  /// True when a and b visited the same POI inside the same (cell, slot) —
  /// the "strong" co-occurrence that makes the pair's JOC carry n_ab mass.
  bool strong_cooccur(data::UserId a, data::UserId b) const;

  /// FNV-1a fingerprint of the dimensions and every user's (cellslot, poi)
  /// list; the counts are not mixed in. Two datasets cast into the same
  /// division and slotting collide only if they visit the same POIs in the
  /// same cells.
  std::uint64_t signature() const { return signature_; }

 private:
  std::size_t grid_count_ = 0;
  std::size_t slot_count_ = 0;
  std::vector<std::vector<Entry>> entries_;
  std::vector<std::vector<std::uint32_t>> cell_profiles_;
  std::uint64_t signature_ = 0;
};

}  // namespace fs::block
