#include "core/joc.h"

#include <cmath>
#include <cstring>
#include <span>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/par.h"

namespace fs::core {

namespace {

/// Calls sink(column, count) for every non-zero cell of the JOC of (a, b),
/// columns ascending: n_a by cell, then n_b, then n_ab.
template <typename Sink>
void emit_joc(const block::CellIndex& index, data::UserId a, data::UserId b,
              Sink&& sink) {
  const std::size_t cells = index.grid_count() * index.slot_count();
  const auto ea = index.entries(a);
  const auto eb = index.entries(b);
  // n_a, n_b: entries are sorted by cell, so a cell's counts are adjacent.
  const auto counts = [&](std::span<const block::CellIndex::Entry> entries,
                          std::size_t base) {
    for (std::size_t i = 0; i < entries.size();) {
      const std::uint32_t cell = entries[i].cellslot;
      std::uint64_t sum = 0;
      for (; i < entries.size() && entries[i].cellslot == cell; ++i)
        sum += entries[i].count;
      sink(base + cell, sum);
    }
  };
  counts(ea, 0);
  counts(eb, cells);

  // n_ab: POIs present in BOTH users' entry lists for the same cell. The
  // merge meets them in ascending (cell, POI) order.
  std::size_t ia = 0, ib = 0;
  std::uint32_t open = 0;
  std::uint64_t shared = 0;
  while (ia < ea.size() && ib < eb.size()) {
    const auto ka = std::make_pair(ea[ia].cellslot, ea[ia].poi);
    const auto kb = std::make_pair(eb[ib].cellslot, eb[ib].poi);
    if (ka < kb) {
      ++ia;
    } else if (kb < ka) {
      ++ib;
    } else {
      if (shared > 0 && ka.first != open) {
        sink(2 * cells + open, shared);
        shared = 0;
      }
      open = ka.first;
      ++shared;
      ++ia;
      ++ib;
    }
  }
  if (shared > 0) sink(2 * cells + open, shared);
}

/// A cell's stored value. Integer counts are exact in a double, so log1p
/// sees the summed count.
double joc_value(std::uint64_t count, const JocOptions& options) {
  const auto v = static_cast<double>(count);
  return options.log_scale ? std::log1p(v) : v;
}

}  // namespace

std::size_t joc_nnz(const block::CellIndex& index, data::UserId a,
                    data::UserId b) {
  std::size_t count = 0;
  emit_joc(index, a, b, [&](std::size_t, std::uint64_t) { ++count; });
  return count;
}

std::size_t build_joc_entries(const block::CellIndex& index, data::UserId a,
                              data::UserId b, std::uint32_t* cols,
                              double* values, const JocOptions& options) {
  std::size_t count = 0;
  emit_joc(index, a, b, [&](std::size_t col, std::uint64_t n) {
    cols[count] = static_cast<std::uint32_t>(col);
    values[count] = joc_value(n, options);
    ++count;
  });
  return count;
}

void build_joc(const block::CellIndex& index, data::UserId a, data::UserId b,
               double* out, const JocOptions& options) {
  std::memset(out, 0, index.joc_dim() * sizeof(double));
  emit_joc(index, a, b, [&](std::size_t col, std::uint64_t n) {
    out[col] = joc_value(n, options);
  });
}

nn::SparseRows build_joc_matrix(const block::CellIndex& index,
                                const std::vector<data::UserPair>& pairs,
                                const JocOptions& options,
                                runtime::MemoryCharge* charge) {
  obs::Span span("core.joc.fill");
  span.arg("rows", static_cast<double>(pairs.size()));
  // Each row is an independent cuboid; rows fan out across the pool with a
  // cancellation probe per chunk (a partial JOC store is unusable, so the
  // probe is the hard checkpoint() flavour). A row is counted, then
  // filled into its own slot, so the store is the same at any thread count.
  par::ParallelOptions popts;
  popts.context = options.context;
  popts.what = "core.joc.fill";
  popts.grain = 256;
  std::vector<std::size_t> sizes(pairs.size());
  par::parallel_for(pairs.size(), popts, [&](std::size_t r) {
    sizes[r] = joc_nnz(index, pairs[r].first, pairs[r].second);
  });
  std::size_t nnz = 0;
  for (std::size_t size : sizes) nnz += size;
  if (charge != nullptr)
    *charge = runtime::MemoryCharge(
        options.context,
        (pairs.size() + 1) * sizeof(std::uint64_t) +
            nnz * (sizeof(std::uint32_t) + sizeof(double)),
        "core.joc.matrix");
  nn::SparseRows store = nn::SparseRows::with_row_sizes(index.joc_dim(), sizes);
  par::parallel_for(pairs.size(), popts, [&](std::size_t r) {
    build_joc_entries(index, pairs[r].first, pairs[r].second,
                      store.row_index(r), store.row_values(r), options);
  });
  span.arg("nnz", static_cast<double>(nnz));
  // Batched at loop exit so the per-row path stays free of atomics.
  obs::metrics()
      .counter("core.joc.rows_total", {}, "JOC feature rows built")
      .add(pairs.size());
  obs::metrics()
      .counter("core.joc.cells_total", {},
               "non-zero JOC cells stored (one per entry)")
      .add(nnz);
  return store;
}

}  // namespace fs::core
