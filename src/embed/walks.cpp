#include "embed/walks.h"

#include <stdexcept>

namespace fs::embed {

void WeightedGraph::add_weight(VocabId a, VocabId b, double weight) {
  if (a >= node_count() || b >= node_count())
    throw std::out_of_range("WeightedGraph::add_weight: node out of range");
  if (weight <= 0.0)
    throw std::invalid_argument("WeightedGraph::add_weight: weight <= 0");
  auto bump = [&](VocabId from, VocabId to) {
    for (Neighbor& n : adjacency_[from]) {
      if (n.node == to) {
        n.weight += weight;
        return;
      }
    }
    adjacency_[from].push_back(Neighbor{to, weight});
  };
  bump(a, b);
  if (a != b) bump(b, a);
}

std::vector<VocabId> WeightedGraph::random_walk(VocabId start,
                                                std::size_t length,
                                                util::Rng& rng) const {
  std::vector<VocabId> walk;
  walk.reserve(length);
  VocabId current = start;
  walk.push_back(current);
  while (walk.size() < length) {
    const auto& nbrs = adjacency_.at(current);
    if (nbrs.empty()) break;
    // Weighted choice; linear scan is fine at social-graph degrees.
    double total = 0.0;
    for (const Neighbor& n : nbrs) total += n.weight;
    double target = rng.uniform() * total;
    VocabId chosen = nbrs.back().node;
    for (const Neighbor& n : nbrs) {
      target -= n.weight;
      if (target < 0.0) {
        chosen = n.node;
        break;
      }
    }
    walk.push_back(chosen);
    current = chosen;
  }
  return walk;
}

std::vector<std::vector<VocabId>> generate_walks(const WeightedGraph& graph,
                                                 const WalkConfig& config,
                                                 util::Rng& rng) {
  std::vector<std::vector<VocabId>> corpus;
  for (VocabId v = 0; v < graph.node_count(); ++v) {
    if (graph.degree(v) == 0) continue;
    for (std::size_t w = 0; w < config.walks_per_node; ++w)
      corpus.push_back(graph.random_walk(v, config.walk_length, rng));
  }
  return corpus;
}

}  // namespace fs::embed
