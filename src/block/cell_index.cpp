#include "block/cell_index.h"

#include <algorithm>
#include <string>

#include "obs/trace.h"
#include "par/par.h"
#include "util/error.h"

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

bool entry_less(const CellIndex::Entry& x, const CellIndex::Entry& y) {
  if (x.cellslot != y.cellslot) return x.cellslot < y.cellslot;
  return x.poi < y.poi;
}

}  // namespace

CellIndex::CellIndex(const data::Dataset& dataset,
                     const geo::SpatialDivision& division,
                     const geo::TimeSlotting& slots,
                     runtime::ExecutionContext* context)
    : grid_count_(division.cell_count()), slot_count_(slots.slot_count()) {
  // Cells travel as uint32, here and as JOC columns; no memory budget
  // could hold an autoencoder that wide anyway.
  if (joc_dim() > std::size_t{0xffffffff})
    throw BudgetError("block.cell_index: JOC width " +
                      std::to_string(joc_dim()) + " exceeds 2^32 columns");
  obs::Span span("block.cell_index.build");
  span.arg("users", static_cast<double>(dataset.user_count()));
  entries_.resize(dataset.user_count());
  cell_profiles_.resize(dataset.user_count());

  // Each user writes only its own slots, so the region is byte-identical at
  // any thread count. Binning dominates the build cost.
  par::ParallelOptions popts;
  popts.context = context;
  popts.what = "block.cell_index.profiles";
  popts.grain = 16;
  par::parallel_for(dataset.user_count(), popts, [&](std::size_t u) {
    const auto user = static_cast<data::UserId>(u);
    auto& entries = entries_[u];
    entries.reserve(dataset.trajectory(user).size());
    for (const data::CheckIn& c : dataset.trajectory(user)) {
      const std::size_t grid = division.cell_of(c.location);
      const std::size_t slot = slots.slot_of(c.time);
      entries.push_back(Entry{
          static_cast<std::uint32_t>(grid * slot_count_ + slot), c.poi, 1});
    }
    std::sort(entries.begin(), entries.end(), entry_less);
    // Collapse duplicates into counts.
    std::size_t write = 0;
    for (std::size_t read = 0; read < entries.size(); ++read) {
      if (write > 0 && !entry_less(entries[write - 1], entries[read])) {
        ++entries[write - 1].count;
      } else {
        entries[write++] = entries[read];
      }
    }
    entries.resize(write);
    // The profile is the entries with the POI dimension collapsed; a run
    // of equal cellslots is adjacent.
    auto& profile = cell_profiles_[u];
    for (const Entry& e : entries)
      if (profile.empty() || profile.back() != e.cellslot)
        profile.push_back(e.cellslot);
  });

  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(grid_count_);
  mix(slot_count_);
  mix(entries_.size());
  for (const auto& entries : entries_) {
    mix(entries.size());
    for (const Entry& e : entries) {
      mix(e.cellslot);
      mix(e.poi);
    }
  }
  signature_ = h;
}

bool CellIndex::cooccur(data::UserId a, data::UserId b,
                        int slot_tolerance) const {
  return profiles_cooccur(cell_profile(a), cell_profile(b), slot_count_,
                          slot_tolerance);
}

bool CellIndex::strong_cooccur(data::UserId a, data::UserId b) const {
  const auto ea = entries(a);
  const auto eb = entries(b);
  std::size_t ia = 0, ib = 0;
  while (ia < ea.size() && ib < eb.size()) {
    if (entry_less(ea[ia], eb[ib])) {
      ++ia;
    } else if (entry_less(eb[ib], ea[ia])) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace fs::block
