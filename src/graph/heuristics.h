// Classical link-prediction heuristics.
//
// These serve two roles: (i) the phase-2 ablation that pits the k-hop
// reachable subgraph against conventional structural features, and (ii)
// sanity baselines in tests.
#pragma once

#include "graph/graph.h"

namespace fs::graph {

/// |N(a) ∩ N(b)|.
double common_neighbors_score(const Graph& g, NodeId a, NodeId b);

/// |N(a) ∩ N(b)| / |N(a) ∪ N(b)|; 0 when both degrees are 0.
double jaccard_score(const Graph& g, NodeId a, NodeId b);

/// Σ_{z ∈ N(a) ∩ N(b)} 1 / log(deg z), skipping degree-1 commons.
double adamic_adar_score(const Graph& g, NodeId a, NodeId b);

/// Truncated Katz index: Σ_{l=1..max_len} beta^l * |walks of length l|.
/// Walk counts are computed by iterated sparse adjacency multiplication of
/// the indicator vector of `a`, so cost is O(max_len * |E|).
double katz_score(const Graph& g, NodeId a, NodeId b, double beta = 0.05,
                  int max_len = 4);

}  // namespace fs::graph
