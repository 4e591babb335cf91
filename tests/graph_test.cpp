#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/heuristics.h"
#include "graph/khop.h"
#include "graph/metrics.h"

namespace fs::graph {
namespace {

// ---------- Graph ----------

TEST(Graph, AddAndQueryEdges) {
  Graph g(5);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.add_edge(1, 2));
  EXPECT_FALSE(g.add_edge(0, 1));  // duplicate
  EXPECT_FALSE(g.add_edge(1, 0));  // same edge, reversed
  EXPECT_FALSE(g.add_edge(2, 2));  // self loop
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Graph, RemoveEdge) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.remove_edge(1, 0));
  EXPECT_FALSE(g.remove_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(Graph, NeighborsSorted) {
  Graph g(6);
  g.add_edge(3, 5);
  g.add_edge(3, 0);
  g.add_edge(3, 4);
  const auto& nbrs = g.neighbors(3);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 3u);
}

TEST(Graph, EdgesCanonicalOrder) {
  Graph g(4);
  g.add_edge(2, 1);
  g.add_edge(3, 0);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  for (const Edge& e : edges) EXPECT_LT(e.a, e.b);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
}

TEST(Graph, OutOfRangeThrows) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 3), std::out_of_range);
  EXPECT_THROW(g.remove_edge(5, 0), std::out_of_range);
  EXPECT_FALSE(g.has_edge(0, 99));  // has_edge is a query: false, not throw
}

TEST(Graph, CommonNeighbors) {
  Graph g(6);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  g.add_edge(1, 4);
  const auto common = g.common_neighbors(0, 1);
  EXPECT_EQ(common, (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(g.common_neighbor_count(0, 1), 2u);
  EXPECT_EQ(g.common_neighbor_count(0, 4), 0u);
}

TEST(Graph, SymmetricDifference) {
  Graph a(4), b(4);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  EXPECT_EQ(Graph::edge_symmetric_difference(a, b), 2u);
  EXPECT_EQ(Graph::edge_symmetric_difference(a, a), 0u);
  Graph c(5);
  EXPECT_THROW(Graph::edge_symmetric_difference(a, c),
               std::invalid_argument);
}

TEST(Graph, FromEdges) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}, {1, 0}});
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
}

// ---------- k-hop reachable subgraph ----------

TEST(KHop, DirectEdgeIsIgnored) {
  Graph g(2);
  g.add_edge(0, 1);
  const KHopSubgraph sub = extract_khop_subgraph(g, 0, 1);
  EXPECT_TRUE(sub.empty());
}

TEST(KHop, FindsTwoHopPath) {
  Graph g(3);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  const KHopSubgraph sub = extract_khop_subgraph(g, 0, 1);
  ASSERT_EQ(sub.path_count_of_length(2), 1u);
  EXPECT_EQ(sub.paths_by_length[0][0], (Path{0, 2, 1}));
  EXPECT_EQ(sub.path_count_of_length(3), 0u);
}

TEST(KHop, ShortPathExcludesItsInteriorFromLongerPaths) {
  // 0-2-1 (length 2) and 0-2-3-1 (length 3 through the same interior 2).
  Graph g(4);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  g.add_edge(2, 3);
  g.add_edge(3, 1);
  const KHopSubgraph sub = extract_khop_subgraph(g, 0, 1);
  EXPECT_EQ(sub.path_count_of_length(2), 1u);
  // The only length-3 path 0-2-3-1 reuses node 2, so it must be pruned.
  EXPECT_EQ(sub.path_count_of_length(3), 0u);
}

TEST(KHop, Figure4Example) {
  // The paper's Fig 4: between a and b,
  //   a-c-b and a-d-b survive as 2-hop paths,
  //   a-f-g-... style longer paths through used vertices are dropped.
  // Construct: a=0, b=1, c=2, d=3, e=4, f=5, g=6, h=7 with
  //   a-c, c-b        (2-path)
  //   a-d, d-b        (2-path)
  //   a-c, c-e, e-b   (3-path through used c -> dropped)
  //   a-f, f-h, h-b   (3-path, fresh vertices -> kept)
  //   f-g, g-h        (4-path a-f-g-h-b shares edge endpoints with the kept
  //                    3-path -> dropped because f, h are consumed)
  Graph g(8);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  g.add_edge(0, 3);
  g.add_edge(3, 1);
  g.add_edge(2, 4);
  g.add_edge(4, 1);
  g.add_edge(0, 5);
  g.add_edge(5, 7);
  g.add_edge(7, 1);
  g.add_edge(5, 6);
  g.add_edge(6, 7);
  KHopOptions options;
  options.k = 4;
  const KHopSubgraph sub = extract_khop_subgraph(g, 0, 1, options);
  EXPECT_EQ(sub.path_count_of_length(2), 2u);  // via c and via d
  ASSERT_EQ(sub.path_count_of_length(3), 1u);  // a-f-h-b
  EXPECT_EQ(sub.paths_by_length[1][0], (Path{0, 5, 7, 1}));
  EXPECT_EQ(sub.path_count_of_length(4), 0u);  // a-f-g-h-b consumed
}

TEST(KHop, PathsOfDifferentLengthsShareNoEdges) {
  // Theorem 1 property 2, checked on random small-world graphs.
  util::Rng rng(61);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = watts_strogatz(60, 6, 0.3, rng);
    const NodeId a = static_cast<NodeId>(rng.index(60));
    NodeId b = static_cast<NodeId>(rng.index(60));
    if (a == b) continue;
    KHopOptions options;
    options.k = 4;
    const KHopSubgraph sub = extract_khop_subgraph(g, a, b, options);
    std::set<Edge> seen;
    for (std::size_t bucket = 0; bucket < sub.paths_by_length.size();
         ++bucket) {
      std::set<Edge> this_length;
      for (const Path& path : sub.paths_by_length[bucket])
        for (std::size_t i = 0; i + 1 < path.size(); ++i)
          this_length.insert(Edge(path[i], path[i + 1]));
      for (const Edge& e : this_length) {
        EXPECT_EQ(seen.count(e), 0u)
            << "edge reused across lengths in trial " << trial;
        seen.insert(e);
      }
    }
  }
}

TEST(KHop, AllRetainedPathsAreInduced) {
  // Theorem 1 property 1: no retained path has a chord in the original
  // graph between non-adjacent path vertices... except via a and b
  // themselves, which stay in the working graph. The guarantee the
  // construction gives is: no chord between interior vertices.
  util::Rng rng(67);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = watts_strogatz(50, 6, 0.2, rng);
    const NodeId a = static_cast<NodeId>(rng.index(50));
    NodeId b = static_cast<NodeId>((a + 1 + rng.index(48)) % 50);
    KHopOptions options;
    options.k = 4;
    const KHopSubgraph sub = extract_khop_subgraph(g, a, b, options);
    for (const auto& bucket : sub.paths_by_length)
      for (const Path& path : bucket)
        for (std::size_t i = 1; i + 1 < path.size(); ++i)
          for (std::size_t j = i + 2; j + 1 < path.size(); ++j)
            EXPECT_FALSE(g.has_edge(path[i], path[j]))
                << "interior chord in retained path";
  }
}

TEST(KHop, PathEndpointsAlwaysAAndB) {
  util::Rng rng(71);
  const Graph g = barabasi_albert(80, 3, rng);
  KHopOptions options;
  options.k = 5;
  const KHopSubgraph sub = extract_khop_subgraph(g, 4, 61, options);
  for (const auto& bucket : sub.paths_by_length)
    for (const Path& path : bucket) {
      EXPECT_EQ(path.front(), 4u);
      EXPECT_EQ(path.back(), 61u);
    }
}

TEST(KHop, RespectsPathCap) {
  // Complete-ish graph: many 2-paths; the cap must bound the output.
  util::Rng rng(73);
  const Graph g = erdos_renyi(40, 0.9, rng);
  KHopOptions options;
  options.k = 3;
  options.max_paths_per_length = 5;
  const KHopSubgraph sub = extract_khop_subgraph(g, 0, 1, options);
  EXPECT_LE(sub.path_count_of_length(2), 5u);
  EXPECT_LE(sub.path_count_of_length(3), 5u);
}

TEST(KHop, RejectsBadArguments) {
  Graph g(3);
  KHopOptions options;
  options.k = 1;
  EXPECT_THROW(extract_khop_subgraph(g, 0, 1, options),
               std::invalid_argument);
  EXPECT_THROW(extract_khop_subgraph(g, 0, 0), std::invalid_argument);
  EXPECT_THROW(extract_khop_subgraph(g, 0, 9), std::out_of_range);
}

TEST(KHop, EdgesAreDeduplicated) {
  Graph g(5);
  // Two 2-paths sharing no edges plus their edges listed once.
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  g.add_edge(0, 3);
  g.add_edge(3, 1);
  const KHopSubgraph sub = extract_khop_subgraph(g, 0, 1);
  const auto edges = sub.edges();
  EXPECT_EQ(edges.size(), 4u);
  const std::set<Edge> distinct(edges.begin(), edges.end());
  EXPECT_EQ(distinct.size(), edges.size());
}

namespace oracle {

/// Independent reference implementation of the k-hop reachable subgraph:
/// enumerate ALL simple a->b paths up to length k on the untouched graph
/// first, then replay the paper's round-by-round exclusion on the lists.
std::vector<std::vector<Path>> khop_reference(const Graph& g, NodeId a,
                                              NodeId b, int k) {
  // Full enumeration of simple paths by length.
  std::vector<std::vector<Path>> all(static_cast<std::size_t>(k - 1));
  Path stack{a};
  std::vector<char> on_stack(g.node_count(), 0);
  on_stack[a] = 1;
  std::function<void()> dfs = [&]() {
    const NodeId v = stack.back();
    if (static_cast<int>(stack.size()) > k) return;
    for (NodeId w : g.neighbors(v)) {
      if (w == b) {
        const int len = static_cast<int>(stack.size());
        if (len >= 2 && len <= k) {
          Path path = stack;
          path.push_back(b);
          all[static_cast<std::size_t>(len - 2)].push_back(path);
        }
        continue;
      }
      if (on_stack[w]) continue;
      stack.push_back(w);
      on_stack[w] = 1;
      dfs();
      on_stack[w] = 0;
      stack.pop_back();
    }
  };
  dfs();

  // Replay the exclusion rounds.
  std::vector<char> excluded(g.node_count(), 0);
  std::vector<std::vector<Path>> kept(static_cast<std::size_t>(k - 1));
  for (int len = 2; len <= k; ++len) {
    auto& bucket = all[static_cast<std::size_t>(len - 2)];
    std::sort(bucket.begin(), bucket.end());
    for (const Path& path : bucket) {
      bool usable = true;
      for (std::size_t i = 1; i + 1 < path.size(); ++i)
        usable &= !excluded[path[i]];
      if (usable) kept[static_cast<std::size_t>(len - 2)].push_back(path);
    }
    for (const Path& path : kept[static_cast<std::size_t>(len - 2)])
      for (std::size_t i = 1; i + 1 < path.size(); ++i)
        excluded[path[i]] = 1;
  }
  return kept;
}

}  // namespace oracle

TEST(KHop, MatchesBruteForceOracle) {
  util::Rng rng(113);
  // The visitor path shares one scratch across every trial.
  KHopScratch scratch;
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = erdos_renyi(24, 0.12, rng);
    const NodeId a = static_cast<NodeId>(rng.index(24));
    const NodeId b = static_cast<NodeId>((a + 1 + rng.index(22)) % 24);
    KHopOptions options;
    options.k = 4;
    KHopSubgraph sub = extract_khop_subgraph(g, a, b, options);
    const auto expected = oracle::khop_reference(g, a, b, 4);
    ASSERT_EQ(sub.paths_by_length.size(), expected.size());
    for (std::size_t bucket = 0; bucket < expected.size(); ++bucket) {
      auto mine = sub.paths_by_length[bucket];
      std::sort(mine.begin(), mine.end());
      EXPECT_EQ(mine, expected[bucket])
          << "trial " << trial << " length " << bucket + 2;
    }

    std::vector<std::vector<Path>> visited(expected.size());
    const KHopStats stats = enumerate_khop_paths(
        g, a, b, options, scratch, [&](const KHopPath& path) {
          visited[static_cast<std::size_t>(path.length - 2)].emplace_back(
              path.nodes, path.nodes + path.length + 1);
        });
    std::size_t total = 0;
    for (std::size_t bucket = 0; bucket < expected.size(); ++bucket) {
      auto mine = visited[bucket];
      std::sort(mine.begin(), mine.end());
      EXPECT_EQ(mine, expected[bucket])
          << "visitor, trial " << trial << " length " << bucket + 2;
      total += expected[bucket].size();
    }
    EXPECT_EQ(stats.paths, total);
    EXPECT_EQ(stats.capped, 0u);
  }
}

/// Every path a visitor sees on (g, a, b), flattened with its adjacency
/// slots: length, vertices, then (u, j) per edge.
std::vector<std::uint64_t> visit_trace(const Graph& g, NodeId a, NodeId b,
                                       const KHopOptions& options,
                                       KHopScratch& scratch,
                                       KHopStats* stats = nullptr) {
  std::vector<std::uint64_t> trace;
  const KHopStats s = enumerate_khop_paths(
      g, a, b, options, scratch, [&](const KHopPath& path) {
        trace.push_back(static_cast<std::uint64_t>(path.length));
        for (int i = 0; i <= path.length; ++i) trace.push_back(path.nodes[i]);
        for (int i = 0; i < path.length; ++i) {
          const auto [u, j] = path.slot(i);
          trace.push_back(u);
          trace.push_back(j);
        }
      });
  if (stats != nullptr) *stats = s;
  return trace;
}

TEST(KHop, VisitorSlotsLocateEveryPathEdge) {
  util::Rng rng(127);
  const Graph g = barabasi_albert(90, 3, rng);
  KHopOptions options;
  options.k = 5;
  KHopScratch scratch;
  std::size_t edges_checked = 0;
  for (NodeId b = 1; b < 30; ++b) {
    enumerate_khop_paths(g, 0, b, options, scratch,
                         [&](const KHopPath& path) {
      ASSERT_EQ(path.nodes[0], 0u);
      ASSERT_EQ(path.nodes[path.length], b);
      for (int i = 0; i < path.length; ++i) {
        const auto [u, j] = path.slot(i);
        const NodeId x = path.nodes[i], y = path.nodes[i + 1];
        ASSERT_TRUE(u == x || u == y);
        ASSERT_LT(j, g.degree(u));
        EXPECT_EQ(g.neighbors(u)[j], u == x ? y : x);
        ++edges_checked;
      }
    });
  }
  EXPECT_GT(edges_checked, 0u);
}

TEST(KHop, ReusedScratchMatchesFreshAcrossGraphs) {
  // Graphs of growing and shrinking node counts, hubs included; one
  // scratch carried through all of them must see exactly what a fresh
  // scratch per pair sees — paths, order, slots and tallies.
  util::Rng rng(131);
  std::vector<Graph> graphs;
  graphs.push_back(barabasi_albert(120, 4, rng));
  graphs.push_back(watts_strogatz(40, 6, 0.25, rng));
  graphs.push_back(erdos_renyi(200, 0.04, rng));
  graphs.push_back(barabasi_albert(30, 2, rng));
  KHopScratch reused;
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    const auto n = static_cast<NodeId>(g.node_count());
    for (int k = 2; k <= 5; ++k) {
      KHopOptions options;
      options.k = k;
      for (int trial = 0; trial < 12; ++trial) {
        const NodeId a = static_cast<NodeId>(rng.index(n));
        const NodeId b = static_cast<NodeId>((a + 1 + rng.index(n - 1)) % n);
        KHopScratch fresh;
        KHopStats want, got;
        const auto expected = visit_trace(g, a, b, options, fresh, &want);
        EXPECT_EQ(visit_trace(g, a, b, options, reused, &got), expected)
            << "graph " << gi << " k " << k << " pair " << a << "-" << b;
        EXPECT_EQ(got.paths, want.paths);
        EXPECT_EQ(got.capped, want.capped);
      }
    }
  }
}

TEST(KHop, CapIsCountedAndKeepsDiscoveryPrefix) {
  // A hub pair in a dense graph: the capped run must report exactly the
  // first `cap` paths of each length the uncapped run finds — as long as
  // no earlier length was cut (a cut changes the exclusion set).
  util::Rng rng(137);
  const Graph g = erdos_renyi(40, 0.6, rng);
  KHopOptions full;
  full.k = 2;
  KHopOptions capped = full;
  capped.max_paths_per_length = 3;
  KHopScratch scratch;
  std::vector<Path> all, some;
  const KHopStats full_stats = enumerate_khop_paths(
      g, 0, 1, full, scratch, [&](const KHopPath& p) {
        all.emplace_back(p.nodes, p.nodes + p.length + 1);
      });
  const KHopStats cap_stats = enumerate_khop_paths(
      g, 0, 1, capped, scratch, [&](const KHopPath& p) {
        some.emplace_back(p.nodes, p.nodes + p.length + 1);
      });
  ASSERT_GT(all.size(), 3u);
  EXPECT_EQ(full_stats.capped, 0u);
  EXPECT_EQ(cap_stats.capped, 1u);
  EXPECT_EQ(cap_stats.paths, 3u);
  EXPECT_EQ(some, std::vector<Path>(all.begin(), all.begin() + 3));
}

TEST(KHop, ReenteringTheSameScratchThrows) {
  Graph g(3);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  KHopScratch scratch;
  enumerate_khop_paths(g, 0, 1, {}, scratch, [&](const KHopPath&) {
    EXPECT_THROW(enumerate_khop_paths(g, 0, 1, {}, scratch,
                                      [](const KHopPath&) {}),
                 std::logic_error);
  });
  // The scratch-less entry points nest: the inner call runs on a fresh
  // scratch while the thread's own is busy.
  std::size_t inner_paths = 0;
  enumerate_khop_paths(g, 0, 1, {}, [&](const KHopPath&) {
    inner_paths += khop_path_counts(g, 0, 1)[0];
  });
  EXPECT_EQ(inner_paths, 1u);
  // The failed re-entry left the scratch usable.
  EXPECT_EQ(enumerate_khop_paths(g, 0, 1, {}, scratch,
                                 [](const KHopPath&) {})
                .paths,
            1u);
}

TEST(KHop, PathCountsHelperMatchesSubgraph) {
  util::Rng rng(79);
  const Graph g = watts_strogatz(40, 4, 0.3, rng);
  KHopOptions options;
  options.k = 4;
  const auto counts = khop_path_counts(g, 2, 17, options);
  const KHopSubgraph sub = extract_khop_subgraph(g, 2, 17, options);
  ASSERT_EQ(counts.size(), 3u);
  for (int len = 2; len <= 4; ++len)
    EXPECT_EQ(counts[static_cast<std::size_t>(len - 2)],
              sub.path_count_of_length(len));
}

// ---------- heuristics ----------

TEST(Heuristics, CommonNeighborsAndJaccard) {
  Graph g(5);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(1, 2);
  g.add_edge(1, 4);
  EXPECT_DOUBLE_EQ(common_neighbors_score(g, 0, 1), 1.0);
  // |N(0) ∪ N(1)| = |{2,3} ∪ {2,4}| = 3.
  EXPECT_DOUBLE_EQ(jaccard_score(g, 0, 1), 1.0 / 3.0);
}

TEST(Heuristics, JaccardZeroForIsolated) {
  Graph g(3);
  EXPECT_DOUBLE_EQ(jaccard_score(g, 0, 1), 0.0);
}

TEST(Heuristics, AdamicAdarSkipsDegreeOne) {
  Graph g(5);
  g.add_edge(0, 2);
  g.add_edge(1, 2);  // common neighbor 2, degree 2
  g.add_edge(0, 3);
  g.add_edge(1, 3);  // common neighbor 3, degree 2
  const double expected = 2.0 / std::log(2.0);
  EXPECT_NEAR(adamic_adar_score(g, 0, 1), expected, 1e-12);
}

TEST(Heuristics, KatzCountsWeightedWalks) {
  // Path graph 0-1-2: walks from 0 to 2 of length 2 (one), length 4 (two:
  // 0-1-0-1-2, 0-1-2-1-2).
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const double beta = 0.1;
  const double expected = beta * beta * 1 + beta * beta * beta * beta * 2;
  EXPECT_NEAR(katz_score(g, 0, 2, beta, 4), expected, 1e-12);
}

// ---------- generators ----------

TEST(Generators, ErdosRenyiExtremes) {
  util::Rng rng(83);
  const Graph empty = erdos_renyi(20, 0.0, rng);
  EXPECT_EQ(empty.edge_count(), 0u);
  const Graph full = erdos_renyi(20, 1.0, rng);
  EXPECT_EQ(full.edge_count(), 20u * 19u / 2u);
}

TEST(Generators, WattsStrogatzDegreePreservedAtBetaZero) {
  util::Rng rng(89);
  const Graph g = watts_strogatz(30, 4, 0.0, rng);
  for (NodeId v = 0; v < 30; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_EQ(g.edge_count(), 60u);
}

TEST(Generators, WattsStrogatzKeepsEdgeCountApproximately) {
  util::Rng rng(97);
  const Graph g = watts_strogatz(100, 6, 0.3, rng);
  EXPECT_EQ(g.edge_count(), 300u);  // rewiring moves, never deletes
}

TEST(Generators, WattsStrogatzRejectsBadParams) {
  util::Rng rng(101);
  EXPECT_THROW(watts_strogatz(10, 3, 0.1, rng), std::invalid_argument);
  EXPECT_THROW(watts_strogatz(4, 4, 0.1, rng), std::invalid_argument);
}

TEST(Generators, BarabasiAlbertEdgeCount) {
  util::Rng rng(103);
  const Graph g = barabasi_albert(50, 3, rng);
  // Seed star: 3 edges; each of the remaining 46 nodes adds 3.
  EXPECT_EQ(g.edge_count(), 3u + 46u * 3u);
}

TEST(Generators, BarabasiAlbertIsHeavyTailed) {
  util::Rng rng(107);
  const Graph g = barabasi_albert(300, 2, rng);
  const DegreeStats stats = degree_stats(g);
  EXPECT_GT(stats.max, 20u);  // hubs emerge
  EXPECT_EQ(stats.isolated, 0u);
}

// ---------- metrics ----------

TEST(Metrics, EdgeChangeRatio) {
  Graph a(4), b(4);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  // Symmetric difference = 2, |E(b)| = 2 -> ratio 1.0.
  EXPECT_DOUBLE_EQ(edge_change_ratio(a, b), 1.0);
  EXPECT_DOUBLE_EQ(edge_change_ratio(a, a), 0.0);
}

TEST(Metrics, ClusteringCoefficient) {
  Graph triangle(3);
  triangle.add_edge(0, 1);
  triangle.add_edge(1, 2);
  triangle.add_edge(0, 2);
  EXPECT_DOUBLE_EQ(clustering_coefficient(triangle, 0), 1.0);
  EXPECT_DOUBLE_EQ(average_clustering(triangle), 1.0);

  Graph path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  EXPECT_DOUBLE_EQ(clustering_coefficient(path, 1), 0.0);
}

TEST(Metrics, DegreeStats) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  const DegreeStats stats = degree_stats(g);
  EXPECT_DOUBLE_EQ(stats.mean, 1.0);
  EXPECT_EQ(stats.max, 2u);
  EXPECT_EQ(stats.min, 0u);
  EXPECT_EQ(stats.isolated, 1u);
}

}  // namespace
}  // namespace fs::graph
