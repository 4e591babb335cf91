#include "block/feature_cache.h"

#include <algorithm>
#include <utility>

namespace fs::block {

namespace {

// Blocks target ~256 KiB of row payload so budget charges are granular
// enough to trip a tight --max-memory-mb before the arena balloons, but a
// tiny run still fits in one or two blocks.
constexpr std::size_t kTargetBlockBytes = 256 * 1024;

std::size_t rows_per_block_for(std::size_t width) {
  if (width == 0) return 0;
  const std::size_t rows = kTargetBlockBytes / (width * sizeof(double));
  return std::max<std::size_t>(rows, 16);
}

}  // namespace

void FeatureCache::RowStore::reset(std::size_t new_width,
                                   runtime::ExecutionContext* new_context) {
  blocks.clear();
  charges.clear();  // releases every block's MemoryCharge
  of_pair.clear();
  rows = 0;
  width = new_width;
  rows_per_block = rows_per_block_for(new_width);
  context = new_context;
}

double* FeatureCache::RowStore::row(std::uint32_t index) const {
  return blocks[index / rows_per_block].get() +
         (index % rows_per_block) * width;
}

const double* FeatureCache::RowStore::find(const data::UserPair& pair) const {
  const auto it = of_pair.find(pair);
  if (it == of_pair.end()) {
    misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits.fetch_add(1, std::memory_order_relaxed);
  return row(it->second);
}

double* FeatureCache::RowStore::insert(const data::UserPair& pair) {
  if (rows == blocks.size() * rows_per_block) {
    const std::size_t block_bytes = rows_per_block * width * sizeof(double);
    // Charge before allocating so BudgetError fires with the arena intact.
    runtime::MemoryCharge charge(context, block_bytes, charge_label);
    blocks.push_back(std::make_unique<double[]>(rows_per_block * width));
    charges.push_back(std::move(charge));
  }
  const auto index = static_cast<std::uint32_t>(rows++);
  of_pair.emplace(pair, index);
  return row(index);
}

void FeatureCache::prepare(std::uint64_t signature, std::size_t joc_width,
                           std::size_t presence_width,
                           runtime::ExecutionContext* context) {
  const bool same_binding = bound_ && signature_ == signature;
  if (!same_binding || joc_.width != joc_width || joc_.context != context)
    joc_.reset(joc_width, context);
  if (!same_binding || presence_.width != presence_width ||
      presence_.context != context)
    presence_.reset(presence_width, context);
  signature_ = signature;
  bound_ = true;
  joc_.charge_label = "block.cache.joc";
  presence_.charge_label = "block.cache.presence";
}

FeatureCache::Stats FeatureCache::stats() const {
  Stats s;
  s.joc_hits = joc_.hits.load(std::memory_order_relaxed);
  s.joc_misses = joc_.misses.load(std::memory_order_relaxed);
  s.presence_hits = presence_.hits.load(std::memory_order_relaxed);
  s.presence_misses = presence_.misses.load(std::memory_order_relaxed);
  s.joc_rows = joc_.rows;
  s.presence_rows = presence_.rows;
  s.bytes = bytes();
  return s;
}

}  // namespace fs::block
