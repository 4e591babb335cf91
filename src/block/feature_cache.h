// Memoized per-pair feature store: JOC rows and presence features, keyed by
// user pair under a (division, tau, model) signature.
//
// The attack engine does not use it: FriendSeeker::run keeps each JOC and
// presence row once, in its scored-row matrices. The class is read only by
// the benchmark's layer drive (`drive_layers` in benchmark/src/attack.cpp),
// which still re-implements the old cache-backed call order, and goes away
// with that drive.
//
// Storage is a chunked arena: rows live in fixed-size blocks whose
// addresses never move as the cache grows, so `find_*` pointers handed to
// parallel readers stay valid while the region runs. Each new block is
// charged against the bound ExecutionContext's memory budget (BudgetError
// propagates to the caller before the allocation happens).
//
// Concurrency contract: find_* are safe from parallel regions (lookups are
// const; hit/miss counters are relaxed atomics). insert_* and prepare()
// are single-threaded.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "util/runtime.h"

namespace fs::block {

class FeatureCache {
 public:
  struct Stats {
    std::uint64_t joc_hits = 0;
    std::uint64_t joc_misses = 0;
    std::uint64_t presence_hits = 0;
    std::uint64_t presence_misses = 0;
    std::size_t joc_rows = 0;
    std::size_t presence_rows = 0;
    std::size_t bytes = 0;

    std::uint64_t hits() const { return joc_hits + presence_hits; }
    std::uint64_t misses() const { return joc_misses + presence_misses; }
    double hit_rate() const {
      const std::uint64_t total = hits() + misses();
      return total == 0 ? 0.0
                        : static_cast<double>(hits()) /
                              static_cast<double>(total);
    }
  };

  FeatureCache() = default;

  /// Binds the cache to a signature, row widths and a context (may be
  /// null), which is charged for every block allocated from now on. Rows
  /// survive only when all four match the previous binding; otherwise the
  /// arenas drop and their charges release. Counters are never reset.
  void prepare(std::uint64_t signature, std::size_t joc_width,
               std::size_t presence_width,
               runtime::ExecutionContext* context);

  std::uint64_t signature() const { return signature_; }
  std::size_t joc_width() const { return joc_.width; }
  std::size_t presence_width() const { return presence_.width; }

  /// Cached JOC row of the pair, or nullptr. Counts one hit or miss.
  const double* find_joc(const data::UserPair& pair) const {
    return joc_.find(pair);
  }
  /// Allocates (and indexes) the pair's JOC row; the caller fills it. The
  /// pair must not be present. May throw BudgetError on a new block.
  double* insert_joc(const data::UserPair& pair) { return joc_.insert(pair); }

  const double* find_presence(const data::UserPair& pair) const {
    return presence_.find(pair);
  }
  double* insert_presence(const data::UserPair& pair) {
    return presence_.insert(pair);
  }

  /// Arena bytes currently held (blocks, not map overhead).
  std::size_t bytes() const { return joc_.bytes() + presence_.bytes(); }

  Stats stats() const;

 private:
  struct PairHash {
    std::size_t operator()(const data::UserPair& p) const noexcept {
      std::uint64_t v = (static_cast<std::uint64_t>(p.first) << 32) |
                        static_cast<std::uint64_t>(p.second);
      // splitmix64 finalizer.
      v ^= v >> 30;
      v *= 0xbf58476d1ce4e5b9ULL;
      v ^= v >> 27;
      v *= 0x94d049bb133111ebULL;
      v ^= v >> 31;
      return static_cast<std::size_t>(v);
    }
  };

  struct RowStore {
    std::size_t width = 0;
    std::size_t rows_per_block = 0;
    std::size_t rows = 0;
    std::vector<std::unique_ptr<double[]>> blocks;
    std::vector<runtime::MemoryCharge> charges;
    std::unordered_map<data::UserPair, std::uint32_t, PairHash> of_pair;
    runtime::ExecutionContext* context = nullptr;
    const char* charge_label = "block.cache";
    mutable std::atomic<std::uint64_t> hits{0};
    mutable std::atomic<std::uint64_t> misses{0};

    void reset(std::size_t new_width, runtime::ExecutionContext* new_context);
    const double* find(const data::UserPair& pair) const;
    double* insert(const data::UserPair& pair);
    double* row(std::uint32_t index) const;
    std::size_t bytes() const {
      return blocks.size() * rows_per_block * width * sizeof(double);
    }
  };

  std::uint64_t signature_ = 0;
  bool bound_ = false;
  RowStore joc_;
  RowStore presence_;
};

}  // namespace fs::block
