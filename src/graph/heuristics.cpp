#include "graph/heuristics.h"

#include <cmath>
#include <vector>

namespace fs::graph {

double common_neighbors_score(const Graph& g, NodeId a, NodeId b) {
  return static_cast<double>(g.common_neighbor_count(a, b));
}

double jaccard_score(const Graph& g, NodeId a, NodeId b) {
  const std::size_t common = g.common_neighbor_count(a, b);
  const std::size_t unioned = g.degree(a) + g.degree(b) - common;
  if (unioned == 0) return 0.0;
  return static_cast<double>(common) / static_cast<double>(unioned);
}

double adamic_adar_score(const Graph& g, NodeId a, NodeId b) {
  double score = 0.0;
  for (NodeId z : g.common_neighbors(a, b)) {
    const std::size_t deg = g.degree(z);
    if (deg > 1) score += 1.0 / std::log(static_cast<double>(deg));
  }
  return score;
}

double katz_score(const Graph& g, NodeId a, NodeId b, double beta,
                  int max_len) {
  // walks[v] = number of length-l walks from a to v, updated iteratively.
  std::vector<double> walks(g.node_count(), 0.0);
  std::vector<double> next(g.node_count(), 0.0);
  walks[a] = 1.0;
  double score = 0.0;
  double beta_pow = 1.0;
  for (int len = 1; len <= max_len; ++len) {
    std::fill(next.begin(), next.end(), 0.0);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (walks[v] == 0.0) continue;
      for (NodeId w : g.neighbors(v)) next[w] += walks[v];
    }
    walks.swap(next);
    beta_pow *= beta;
    score += beta_pow * walks[b];
  }
  return score;
}

}  // namespace fs::graph
