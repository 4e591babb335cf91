#include "block/cell_index.h"

#include <algorithm>

#include "obs/trace.h"
#include "par/par.h"

namespace fs::block {

namespace {

/// Windowed two-pointer merge over sorted cellslot lists: a match is two
/// entries in the same grid whose slots differ by at most `tolerance`.
bool profiles_cooccur(std::span<const std::uint32_t> a,
                      std::span<const std::uint32_t> b,
                      std::size_t slot_count, int tolerance) {
  const auto tol = static_cast<std::uint32_t>(tolerance);
  std::size_t lo = 0;
  for (const std::uint32_t ca : a) {
    const std::uint32_t grid = ca / slot_count;
    const std::uint32_t window_begin = ca >= tol ? ca - tol : 0;
    while (lo < b.size() && b[lo] < window_begin) ++lo;
    for (std::size_t j = lo; j < b.size() && b[j] <= ca + tol; ++j)
      if (b[j] / slot_count == grid) return true;
  }
  return false;
}

}  // namespace

CellIndex::CellIndex(const data::Dataset& dataset,
                     const geo::SpatialDivision& division,
                     const geo::TimeSlotting& slots,
                     runtime::ExecutionContext* context)
    : grid_count_(division.cell_count()),
      slot_count_(slots.slot_count()),
      cell_profiles_(dataset.user_count()),
      poi_visits_(dataset.user_count()) {
  obs::Span span("block.cell_index.build");
  span.arg("users", static_cast<double>(dataset.user_count()));

  // Per-user profiles: each user writes only its own slot, so the region is
  // byte-identical at any thread count. Binning dominates the build cost.
  par::ParallelOptions popts;
  popts.context = context;
  popts.what = "block.cell_index.profiles";
  popts.grain = 16;
  par::parallel_for(dataset.user_count(), popts, [&](std::size_t u) {
    const auto user = static_cast<data::UserId>(u);
    auto& visits = poi_visits_[u];
    visits.reserve(dataset.trajectory(user).size());
    for (const data::CheckIn& c : dataset.trajectory(user)) {
      const std::size_t grid = division.cell_of(c.location);
      const std::size_t slot = slots.slot_of(c.time);
      visits.push_back(PoiVisit{
          static_cast<std::uint32_t>(grid * slot_count_ + slot), c.poi});
    }
    std::sort(visits.begin(), visits.end());
    visits.erase(std::unique(visits.begin(), visits.end()), visits.end());
  });

  finalize_from_visits();
  span.arg("occupied_cells", static_cast<double>(occupied_.size()));
}

void CellIndex::finalize_from_visits() {
  // Profiles are the visit lists with the POI dimension collapsed; visits
  // are sorted by (cellslot, poi), so a run of equal cellslots is adjacent.
  for (std::size_t u = 0; u < poi_visits_.size(); ++u) {
    auto& profile = cell_profiles_[u];
    profile.clear();
    profile.reserve(poi_visits_[u].size());
    for (const PoiVisit& v : poi_visits_[u])
      if (profile.empty() || profile.back() != v.cellslot)
        profile.push_back(v.cellslot);
  }

  // Inverted cellslot -> users index (CSR over occupied cells). Sequential
  // and deterministic: users ascend, so each cell's list is born sorted.
  std::vector<std::pair<std::uint32_t, data::UserId>> postings;
  std::size_t total = 0;
  for (const auto& profile : cell_profiles_) total += profile.size();
  postings.reserve(total);
  for (data::UserId u = 0; u < cell_profiles_.size(); ++u)
    for (std::uint32_t cell : cell_profiles_[u]) postings.push_back({cell, u});
  std::sort(postings.begin(), postings.end());

  cell_users_.reserve(postings.size());
  for (const auto& [cell, user] : postings) {
    if (occupied_.empty() || occupied_.back() != cell) {
      occupied_.push_back(cell);
      cell_offsets_.push_back(cell_users_.size());
    }
    cell_users_.push_back(user);
  }
  cell_offsets_.push_back(cell_users_.size());

  // Content fingerprint: dimensions plus every profile entry.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(grid_count_);
  mix(slot_count_);
  mix(cell_profiles_.size());
  for (const auto& visits : poi_visits_) {
    mix(visits.size());
    for (const PoiVisit& v : visits) {
      mix(v.cellslot);
      mix(v.poi);
    }
  }
  signature_ = h;
}

std::span<const data::UserId> CellIndex::users_in_cell(
    std::uint32_t cellslot) const {
  const auto it =
      std::lower_bound(occupied_.begin(), occupied_.end(), cellslot);
  if (it == occupied_.end() || *it != cellslot) return {};
  const auto idx = static_cast<std::size_t>(it - occupied_.begin());
  return {cell_users_.data() + cell_offsets_[idx],
          cell_offsets_[idx + 1] - cell_offsets_[idx]};
}

bool CellIndex::cooccur(data::UserId a, data::UserId b,
                        int slot_tolerance) const {
  return profiles_cooccur(cell_profile(a), cell_profile(b), slot_count_,
                          slot_tolerance);
}

bool CellIndex::strong_cooccur(data::UserId a, data::UserId b) const {
  const auto va = poi_visits(a);
  const auto vb = poi_visits(b);
  std::size_t ia = 0, ib = 0;
  while (ia < va.size() && ib < vb.size()) {
    if (va[ia] < vb[ib]) {
      ++ia;
    } else if (vb[ib] < va[ia]) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace fs::block
