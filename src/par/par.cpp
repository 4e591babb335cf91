#include "par/par.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fs::par {

namespace {

/// Set while a thread is executing chunks of some region; nested
/// parallel_for calls from such a thread run inline instead of re-entering
/// the pool (which would deadlock a fork-join pool).
thread_local bool t_in_region = false;

std::size_t resolve_grain(std::size_t n, std::size_t grain) {
  if (grain == 0) grain = n / 64;
  return grain > 0 ? grain : 1;
}

}  // namespace

std::size_t chunk_count(std::size_t n, std::size_t grain) {
  if (n == 0) return 0;
  grain = resolve_grain(n, grain);
  return (n + grain - 1) / grain;
}

void parallel_for_chunks(std::size_t n, const ParallelOptions& options,
                         const std::function<void(const ChunkRange&)>& body) {
  if (n == 0) return;
  const std::size_t grain = resolve_grain(n, options.grain);
  const std::size_t chunks = (n + grain - 1) / grain;
  runtime::ExecutionContext* const ctx = options.context;

  const auto probe = [&options, ctx] {
    if (ctx == nullptr) return;
    if (options.hard_deadline)
      ctx->checkpoint(options.what);
    else
      ctx->throw_if_cancelled(options.what);
  };

  const auto make_chunk = [n, grain](std::size_t index, std::size_t worker) {
    ChunkRange chunk;
    chunk.index = index;
    chunk.worker = worker;
    chunk.begin = index * grain;
    chunk.end = chunk.begin + grain < n ? chunk.begin + grain : n;
    return chunk;
  };

  // Inline path: one chunk, a one-thread pool, or a nested call. Same
  // decomposition, ascending chunk order — byte-identical to the pooled
  // path by construction, and the pool is never touched (so `--threads 1`
  // spawns no threads at all).
  if (chunks == 1 || t_in_region || threads() == 1) {
    for (std::size_t index = 0; index < chunks; ++index) {
      probe();
      body(make_chunk(index, 0));
    }
    return;
  }

  ThreadPool& workers = pool();
  // Per-worker scratch is charged once, here, on the calling thread: budget
  // violations must surface deterministically, not as a race between
  // workers hitting the limit.
  const runtime::MemoryCharge scratch_charge(
      ctx, options.scratch_bytes_per_worker * workers.threads(),
      options.what);

  const bool observe = obs::metrics_enabled();
  const bool trace = obs::tracer().enabled();
  // Chunks are timed only for a consumer: the span.par.chunk_ms histogram
  // or the region's trace event. Otherwise a chunk reads no clock.
  const bool timed = observe || trace;
  obs::Histogram* chunk_ms =
      observe ? &obs::metrics().histogram(
                    "span.par.chunk_ms", obs::default_duration_buckets_ms(),
                    {}, "per-chunk wall time inside parallel regions")
              : nullptr;
  if (observe) {
    obs::metrics()
        .counter("par.regions_total", {}, "parallel regions executed")
        .add(1);
    obs::metrics()
        .counter("par.chunks_total", {}, "chunks dispatched across regions")
        .add(chunks);
    obs::metrics()
        .gauge("par.queue_depth", {},
               "chunk count of the widest region so far (high-water)")
        .set_max(static_cast<double>(chunks));
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> aborted{false};
  std::atomic<std::uint64_t> stolen{0};
  // First error by CHUNK INDEX, not by wall-clock arrival: which exception
  // the caller sees must not depend on scheduling.
  std::mutex error_mu;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  // The trace keeps one "par.region" event per pooled region, not one per
  // chunk: a per-chunk event log grows with the work and, at paper scale,
  // outweighs the run it traces. Each slot folds its own chunk times.
  struct alignas(64) ChunkTimes {
    double sum_ms = 0.0;
    double max_ms = 0.0;
  };
  std::vector<ChunkTimes> chunk_times(trace ? workers.threads() : 0);
  std::optional<obs::Span> region;
  if (trace) region.emplace("par.region");

  const auto record_error = [&](std::size_t index) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (index < error_index) {
      error_index = index;
      error = std::current_exception();
    }
    aborted.store(true, std::memory_order_relaxed);
  };

  workers.run([&](std::size_t slot) {
    t_in_region = true;
    for (;;) {
      const std::size_t index =
          next.fetch_add(1, std::memory_order_relaxed);
      if (index >= chunks || aborted.load(std::memory_order_relaxed)) break;
      if (slot != 0) stolen.fetch_add(1, std::memory_order_relaxed);
      try {
        probe();
        const double start_us = timed ? obs::trace_now_us() : 0.0;
        body(make_chunk(index, slot));
        if (timed) {
          const double ms = (obs::trace_now_us() - start_us) * 1e-3;
          if (chunk_ms != nullptr) chunk_ms->observe(ms);
          if (trace) {
            ChunkTimes& times = chunk_times[slot];
            times.sum_ms += ms;
            times.max_ms = std::max(times.max_ms, ms);
          }
        }
      } catch (...) {
        record_error(index);
        break;
      }
    }
    t_in_region = false;
  });

  if (observe)
    obs::metrics()
        .counter("par.chunks_stolen_total", {},
                 "chunks executed by pool workers instead of the caller")
        .add(stolen.load(std::memory_order_relaxed));
  if (region) {
    ChunkTimes total;
    for (const ChunkTimes& times : chunk_times) {
      total.sum_ms += times.sum_ms;
      total.max_ms = std::max(total.max_ms, times.max_ms);
    }
    region->arg("chunks", static_cast<double>(chunks));
    region->arg("chunk_ms_sum", total.sum_ms);
    region->arg("chunk_ms_max", total.max_ms);
    region->end();
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace fs::par
