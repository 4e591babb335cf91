// Deterministic parallel-for and ordered reduce over the fs::par pool.
//
// Determinism contract: the work decomposition is a pure function of the
// iteration count and the grain — NEVER of the thread count — so an
// N-thread run executes exactly the same chunks as a 1-thread run. Chunks
// are dispatched dynamically (whichever participant is free takes the next
// chunk index), which is safe because:
//
//   * parallel_for bodies write only to slots owned by their own indices,
//     so scheduling order cannot change the output;
//   * ordered_reduce stores one partial per chunk and combines them on the
//     calling thread in ascending chunk-index order, so floating-point
//     association is fixed;
//   * randomized chunk bodies draw from chunk_rng(seed, chunk_index),
//     a stream derived from data that does not depend on scheduling.
//
// Together these make an N-thread run byte-identical to a 1-thread run,
// which composes with the checkpoint/resume equivalence guarantee: a run
// interrupted and resumed under a different --threads still reproduces the
// uninterrupted result bit for bit.
//
// Governance: when ParallelOptions.context is set, every chunk starts with
// a hard cooperative cancellation probe (CancelledError on cancellation,
// BudgetError past the deadline). The first chunk exception — "first" by
// chunk index, for cross-thread-count stability — aborts the region: the
// remaining chunks are skipped and the exception rethrows on the calling
// thread once all participants have drained. Per-worker scratch declared
// via scratch_bytes_per_worker is charged against the context's memory
// budget up front on the calling thread (workers never touch the
// accounting, keeping budget errors deterministic).
//
// Observability: regions and chunks feed par.regions_total,
// par.chunks_total, par.chunks_stolen_total (chunks executed by pool
// workers rather than the caller), the par.queue_depth high-water gauge,
// and the span.par.chunk_ms histogram; with the tracer enabled each pooled
// region records one "par.region" trace span whose args carry its chunk
// count and the sum and max of its chunk times (chunk_ms_sum,
// chunk_ms_max). With neither on, a chunk reads no clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "par/pool.h"
#include "util/rng.h"
#include "util/runtime.h"

namespace fs::par {

struct ParallelOptions {
  /// Optional governance: cancellation/deadline probed at every chunk
  /// start; scratch charged against the memory budget.
  runtime::ExecutionContext* context = nullptr;
  /// Label used for cancellation probes and trace spans (a string literal).
  const char* what = "par.region";
  /// Items per chunk; 0 picks max(1, n / 64). Must not be derived from the
  /// thread count, or the determinism contract breaks.
  std::size_t grain = 0;
  /// Estimated scratch bytes each participant allocates; charged as
  /// scratch * threads against the context's memory budget for the
  /// region's duration.
  std::size_t scratch_bytes_per_worker = 0;
  /// When false, chunk probes check cancellation only: an expired deadline
  /// never aborts the region. For regions that must run to completion for
  /// any result to exist at all (e.g. seeding G0 in phase 1) — the caller
  /// degrades at its own phase boundary instead, preserving the
  /// budget-exhausted-runs-still-exit-0 contract.
  bool hard_deadline = true;
};

/// One contiguous chunk of the iteration space.
struct ChunkRange {
  std::size_t index = 0;  // chunk index (stable across thread counts)
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Participant running the chunk, in [0, threads()): 0 is the calling
  /// thread (and every chunk of an inline region). Only for indexing
  /// per-worker scratch — output must never depend on it.
  std::size_t worker = 0;
};

/// The chunk decomposition parallel_for_chunks will use: how many chunks
/// [0, n) splits into under `grain` (0 = auto). Pure function of (n, grain).
std::size_t chunk_count(std::size_t n, std::size_t grain);

/// Grain sizing helper: the smallest chunk length whose estimated cost
/// reaches target_ops, given a per-item cost estimate. Deliberately a
/// function of the workload shape only — callers must not feed thread
/// counts into this.
inline std::size_t grain_for(std::size_t per_item_ops,
                             std::size_t target_ops = std::size_t{1} << 15) {
  if (per_item_ops == 0) per_item_ops = 1;
  const std::size_t grain = target_ops / per_item_ops;
  return grain > 0 ? grain : 1;
}

/// An RNG stream for one chunk, derived from (seed, chunk_index) alone so
/// randomized chunk bodies reproduce regardless of which thread runs them.
inline util::Rng chunk_rng(std::uint64_t seed, std::size_t chunk_index) {
  std::uint64_t state =
      seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(chunk_index) + 1));
  return util::Rng(util::splitmix64(state));
}

/// Runs `body(chunk)` over the fixed decomposition of [0, n). Blocks until
/// every chunk has run (or the region aborted on an exception). Runs
/// inline — same chunks, same order — when the pool has one thread, when
/// there is a single chunk, or when called from inside another parallel
/// region (regions never nest onto the pool).
void parallel_for_chunks(std::size_t n, const ParallelOptions& options,
                         const std::function<void(const ChunkRange&)>& body);

/// Element-wise parallel for: body(i) for i in [0, n). The body is invoked
/// through a per-chunk trampoline, so per-element dispatch overhead is one
/// indirect call per chunk, not per element.
template <typename Body>
void parallel_for(std::size_t n, const ParallelOptions& options,
                  Body&& body) {
  parallel_for_chunks(n, options, [&body](const ChunkRange& chunk) {
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) body(i);
  });
}

/// Ordered deterministic reduce: `map(chunk)` produces one partial per
/// chunk (in parallel); partials are combined on the calling thread in
/// ascending chunk-index order via `acc = combine(std::move(acc),
/// std::move(partial))`. Floating-point association is therefore fixed by
/// (n, grain) and independent of the thread count.
template <typename T, typename Map, typename Combine>
T ordered_reduce(std::size_t n, T init, const ParallelOptions& options,
                 Map&& map, Combine&& combine) {
  std::vector<std::optional<T>> partials(chunk_count(n, options.grain));
  parallel_for_chunks(n, options, [&](const ChunkRange& chunk) {
    partials[chunk.index].emplace(map(chunk));
  });
  T acc = std::move(init);
  for (auto& partial : partials)
    acc = combine(std::move(acc), std::move(*partial));
  return acc;
}

}  // namespace fs::par
