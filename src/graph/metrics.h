// Whole-graph measurements: convergence tracking for the iterative phase and
// small-world diagnostics for the synthetic world.
#pragma once

#include <cstddef>

#include "graph/graph.h"

namespace fs::graph {

/// Fraction of edges changed between consecutive refinement iterations:
/// |E(x) Δ E(y)| / max(1, |E(y)|). The paper stops when this drops
/// below 1 %.
double edge_change_ratio(const Graph& previous, const Graph& current);

/// Local clustering coefficient of v (0 when degree < 2).
double clustering_coefficient(const Graph& g, NodeId v);

/// Mean local clustering coefficient over all nodes.
double average_clustering(const Graph& g);

struct DegreeStats {
  double mean = 0.0;
  std::size_t min = 0;
  std::size_t max = 0;
  std::size_t isolated = 0;  // degree-0 nodes
};

DegreeStats degree_stats(const Graph& g);

}  // namespace fs::graph
