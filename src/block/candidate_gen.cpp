#include "block/candidate_gen.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/par.h"

namespace fs::block {

namespace {

/// Pairs per chunk of filter_universe: a constant, so the chunks are the
/// same at every thread count.
constexpr std::size_t kFilterChunkPairs = 64;

}  // namespace

graph::Graph strong_cooccurrence_graph(const CellIndex& index) {
  obs::Span span("block.strong_graph.build");
  // Invert per-user (cellslot, poi) visits into (cellslot, poi) -> users
  // groups; every pair inside a group shares that exact visit. Group sizes
  // are bounded by per-POI-per-slot popularity, so the join never touches
  // the O(n^2) pair space.
  std::vector<std::pair<CellIndex::PoiVisit, data::UserId>> postings;
  std::size_t total = 0;
  for (data::UserId u = 0; u < index.user_count(); ++u)
    total += index.poi_visits(u).size();
  postings.reserve(total);
  for (data::UserId u = 0; u < index.user_count(); ++u)
    for (const CellIndex::PoiVisit& v : index.poi_visits(u))
      postings.push_back({v, u});
  std::sort(postings.begin(), postings.end());

  graph::Graph g(index.user_count());
  std::size_t begin = 0;
  while (begin < postings.size()) {
    std::size_t end = begin + 1;
    while (end < postings.size() && postings[end].first == postings[begin].first)
      ++end;
    for (std::size_t i = begin; i < end; ++i)
      for (std::size_t j = i + 1; j < end; ++j)
        g.add_edge(postings[i].second, postings[j].second);
    begin = end;
  }
  span.arg("edges", static_cast<double>(g.edge_count()));
  return g;
}

bool within_hops(const graph::Graph& g, graph::NodeId a, graph::NodeId b,
                 int hops, std::vector<int>& depth_scratch,
                 std::vector<graph::NodeId>& queue_scratch) {
  if (a == b) return true;
  if (hops <= 0) return false;
  depth_scratch.resize(g.node_count(), -1);
  queue_scratch.clear();
  queue_scratch.push_back(a);
  depth_scratch[a] = 0;
  bool found = false;
  for (std::size_t head = 0; head < queue_scratch.size() && !found; ++head) {
    const graph::NodeId v = queue_scratch[head];
    const int depth = depth_scratch[v];
    if (depth >= hops) break;  // queue is depth-ordered
    for (graph::NodeId w : g.neighbors(v)) {
      if (depth_scratch[w] >= 0) continue;
      if (w == b) {
        found = true;
        break;
      }
      depth_scratch[w] = depth + 1;
      queue_scratch.push_back(w);
    }
  }
  for (const graph::NodeId v : queue_scratch) depth_scratch[v] = -1;
  depth_scratch[a] = -1;
  return found;
}

std::vector<char> filter_universe(const CellIndex& index,
                                  const graph::Graph& strong,
                                  const std::vector<data::UserPair>& universe,
                                  const BlockingConfig& config,
                                  BlockingStats* stats) {
  obs::Span span("block.universe.filter");
  // Pairs fan out over the pool in fixed chunks. Each participant reuses
  // its own BFS scratch; a chunk writes keep[i] for its own indices only,
  // and the tier tallies are summed after the region, so the mask and the
  // counts are the same at any thread count.
  struct alignas(64) FilterWorker {
    std::vector<int> depth;
    std::vector<graph::NodeId> queue;
    std::size_t cell_kept = 0;
    std::size_t hop_kept = 0;
  };
  std::vector<FilterWorker> workers(par::threads());
  std::vector<char> keep(universe.size(), 0);
  par::ParallelOptions options;
  options.what = "block.universe.filter";
  options.grain = kFilterChunkPairs;
  par::parallel_for_chunks(
      universe.size(), options, [&](const par::ChunkRange& chunk) {
        FilterWorker& worker = workers[chunk.worker];
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          const auto [a, b] = universe[i];
          if (index.cooccur(a, b, config.slot_tolerance)) {
            keep[i] = 1;
            ++worker.cell_kept;
          } else if (config.hop_expansion > 0 &&
                     within_hops(strong, a, b, config.hop_expansion,
                                 worker.depth, worker.queue)) {
            keep[i] = 1;
            ++worker.hop_kept;
          }
        }
      });
  std::size_t cell_kept = 0;
  std::size_t hop_kept = 0;
  for (const FilterWorker& worker : workers) {
    cell_kept += worker.cell_kept;
    hop_kept += worker.hop_kept;
  }
  if (stats != nullptr) {
    stats->universe_pairs = universe.size();
    stats->cell_candidates = cell_kept;
    stats->hop_candidates = hop_kept;
    stats->scored_pairs = cell_kept + hop_kept;
    stats->pruned_pairs = universe.size() - stats->scored_pairs;
  }
  span.arg("kept", static_cast<double>(cell_kept + hop_kept));
  return keep;
}

}  // namespace fs::block
