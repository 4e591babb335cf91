#include "graph/metrics.h"

#include <algorithm>

namespace fs::graph {

double edge_change_ratio(const Graph& previous, const Graph& current) {
  const std::size_t diff = Graph::edge_symmetric_difference(previous, current);
  const std::size_t denom = std::max<std::size_t>(1, current.edge_count());
  return static_cast<double>(diff) / static_cast<double>(denom);
}

double clustering_coefficient(const Graph& g, NodeId v) {
  const auto& nbrs = g.neighbors(v);
  if (nbrs.size() < 2) return 0.0;
  std::size_t closed = 0;
  for (std::size_t i = 0; i < nbrs.size(); ++i)
    for (std::size_t j = i + 1; j < nbrs.size(); ++j)
      if (g.has_edge(nbrs[i], nbrs[j])) ++closed;
  const std::size_t possible = nbrs.size() * (nbrs.size() - 1) / 2;
  return static_cast<double>(closed) / static_cast<double>(possible);
}

double average_clustering(const Graph& g) {
  if (g.node_count() == 0) return 0.0;
  double total = 0.0;
  for (NodeId v = 0; v < g.node_count(); ++v)
    total += clustering_coefficient(g, v);
  return total / static_cast<double>(g.node_count());
}

DegreeStats degree_stats(const Graph& g) {
  DegreeStats stats;
  if (g.node_count() == 0) return stats;
  stats.min = g.degree(0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const std::size_t d = g.degree(v);
    stats.mean += static_cast<double>(d);
    stats.min = std::min(stats.min, d);
    stats.max = std::max(stats.max, d);
    if (d == 0) ++stats.isolated;
  }
  stats.mean /= static_cast<double>(g.node_count());
  return stats;
}

}  // namespace fs::graph
