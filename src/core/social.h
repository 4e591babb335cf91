// Phase 2 features: social-proximity vectors from k-hop reachable subgraphs
// (Section III-C.2, Fig 6).
//
// For a pair (a, b), the k-hop reachable subgraph is decomposed by path
// length; the presence features h of the edges on same-length paths are
// summed, and the per-length sums are concatenated — yielding a
// (k-1) * d social-proximity vector s. The composite phase-2 feature is
// v = h_(a,b) ⊕ s_(a,b).
//
// Both variants walk the paths with graph::enumerate_khop_paths and add a
// path's edge features into its length slot the moment the path is found,
// a→b in edge order — the same sequence of `+=` per element whichever way
// the rows are supplied, so the two give byte-identical vectors. The adds
// run on kern::accumulate, whose bits are the scalar loop's on every ISA
// path.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "graph/khop.h"

namespace fs::core {

/// Supplies the presence feature of an edge (i, j); returns false when the
/// pair has no feature available (edge outside the candidate universe). A
/// missing edge contributes nothing to the sum.
using EdgeFeatureFn =
    std::function<bool(data::UserId, data::UserId, std::vector<double>&)>;

struct SocialFeatureConfig {
  int k = 3;
  std::size_t feature_dim = 64;  // must equal the presence feature dim
  graph::KHopOptions khop;       // khop.k is overwritten with k
};

/// The presence row of every adjacency slot of one graph: row(u, j) is the
/// feature of edge (u, neighbors(u)[j]), or null when that edge has none
/// (it then contributes nothing to a sum). Both slots of an edge resolve
/// to the same row. Valid until the graph changes; rebuild() reuses the
/// table's storage.
class EdgeFeatureTable {
 public:
  /// Resolves the row of edge (u, v), or null.
  using RowFn = std::function<const double*(data::UserId, data::UserId)>;

  /// Bytes a table over `node_count` nodes and `edge_count` edges holds.
  static std::size_t bytes_for(std::size_t node_count,
                               std::size_t edge_count);

  /// Sizes the storage for graphs of up to that shape, so rebuilds within
  /// it never allocate.
  void reserve(std::size_t node_count, std::size_t edge_count);

  /// Re-resolves every adjacency slot of `g` through `row_of` (once per
  /// slot, in adjacency order); every row must be `width` doubles.
  void rebuild(const graph::Graph& g, std::size_t width, const RowFn& row_of);

  std::size_t width() const { return width_; }

  /// True when the table was built over a graph of `g`'s shape.
  bool matches(const graph::Graph& g) const {
    return offset_.size() == g.node_count() + 1 &&
           rows_.size() == 2 * g.edge_count();
  }

  const double* row(graph::NodeId u, std::uint32_t j) const {
    return rows_[offset_[u] + j];
  }

 private:
  std::size_t width_ = 0;
  std::vector<std::size_t> offset_;  // node u's slots start at offset_[u]
  std::vector<const double*> rows_;
};

/// Computes s_(a,b) on graph `g`. The returned vector has
/// (k - 1) * feature_dim entries: slot 0 sums edge features over length-2
/// paths, slot 1 over length-3 paths, and so on.
std::vector<double> social_proximity_feature(const graph::Graph& g,
                                             data::UserId a, data::UserId b,
                                             const SocialFeatureConfig& config,
                                             const EdgeFeatureFn& edge_feature);

/// Scratch-reusing variant for hot loops: `out` is resized and zeroed,
/// `edge_scratch` is handed to `edge_feature` so the per-edge vector is
/// allocated once per worker instead of once per pair.
void social_proximity_feature(const graph::Graph& g, data::UserId a,
                              data::UserId b,
                              const SocialFeatureConfig& config,
                              const EdgeFeatureFn& edge_feature,
                              std::vector<double>& out,
                              std::vector<double>& edge_scratch);

/// Table-driven variant for the phase-2 hot loop: edge rows come from
/// `table` (built over `g`, width config.feature_dim) and the search runs
/// on the caller's `scratch`. Writes s_(a,b) into `out`, which must hold
/// (k - 1) * feature_dim doubles, and returns the enumeration's tallies.
graph::KHopStats social_proximity_feature(const graph::Graph& g,
                                          data::UserId a, data::UserId b,
                                          const SocialFeatureConfig& config,
                                          const EdgeFeatureTable& table,
                                          graph::KHopScratch& scratch,
                                          std::span<double> out);

/// Heuristic alternative for the ablation: [common neighbors, Jaccard,
/// Adamic-Adar, Katz, path counts per length 2..k], zero-padded/truncated
/// to the same width as the paper's feature for drop-in comparison.
std::vector<double> heuristic_social_feature(const graph::Graph& g,
                                             data::UserId a, data::UserId b,
                                             const SocialFeatureConfig& config);

/// Scratch-reusing variant of heuristic_social_feature; returns the path
/// census's enumeration tallies.
graph::KHopStats heuristic_social_feature(const graph::Graph& g,
                                          data::UserId a, data::UserId b,
                                          const SocialFeatureConfig& config,
                                          std::vector<double>& out);

}  // namespace fs::core
