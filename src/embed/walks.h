// Weighted graphs and random-walk corpus generation — the substrate under
// the two graph-embedding baselines (walk2friends' user-location bipartite
// walks, Yu et al.'s meeting-graph walks).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace fs::embed {

using VocabId = std::uint32_t;

/// Adjacency-list weighted graph over dense vocabulary ids. Nodes can model
/// anything (users, POIs); bipartite graphs simply place the two node kinds
/// in disjoint id ranges.
class WeightedGraph {
 public:
  explicit WeightedGraph(std::size_t node_count)
      : adjacency_(node_count) {}

  std::size_t node_count() const { return adjacency_.size(); }

  /// Adds weight to the (a, b) edge in both directions, creating it if
  /// absent. Weight must be positive.
  void add_weight(VocabId a, VocabId b, double weight);

  struct Neighbor {
    VocabId node;
    double weight;
  };

  const std::vector<Neighbor>& neighbors(VocabId v) const {
    return adjacency_.at(v);
  }

  std::size_t degree(VocabId v) const { return adjacency_.at(v).size(); }

  /// One weighted random walk of `length` vertices starting at `start`
  /// (fewer if a dead end is reached).
  std::vector<VocabId> random_walk(VocabId start, std::size_t length,
                                   util::Rng& rng) const;

 private:
  std::vector<std::vector<Neighbor>> adjacency_;
};

struct WalkConfig {
  std::size_t walks_per_node = 10;
  std::size_t walk_length = 24;
};

/// Generates `walks_per_node` walks from every node with outgoing edges.
std::vector<std::vector<VocabId>> generate_walks(const WeightedGraph& graph,
                                                 const WalkConfig& config,
                                                 util::Rng& rng);

}  // namespace fs::embed
