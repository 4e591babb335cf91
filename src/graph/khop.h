// k-hop reachable subgraph (Section III-C.1, Theorem 1).
//
// For a user pair (a, b), the subgraph collects a-b paths by increasing
// length l = 2..k; after each round every interior vertex of a found path is
// excluded from the working graph, so (i) every retained path is an induced
// path and (ii) paths of different lengths share no edges — exactly the
// construction the paper proves in Theorem 1 and illustrates in Fig. 4.
//
// One enumerator, enumerate_khop_paths, implements the construction; every
// consumer (the materialized subgraph, the Fig. 5 census, the phase-2
// feature sums) is a visitor over it. The enumerator runs on a reusable
// KHopScratch: vertex markers are epoch-stamped, so a pair costs nothing
// proportional to the node count, and the last hop into b is one array
// probe against N(b), stamped once per pair, instead of a has_edge search.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace fs::graph {

/// A path is the full vertex sequence from a to b inclusive.
using Path = std::vector<NodeId>;

struct KHopSubgraph {
  NodeId a = 0;
  NodeId b = 0;
  int k = 0;

  /// paths_by_length[i] holds every retained path of length i + 2
  /// (a path's length is its edge count).
  std::vector<std::vector<Path>> paths_by_length;

  std::size_t path_count() const {
    std::size_t n = 0;
    for (const auto& bucket : paths_by_length) n += bucket.size();
    return n;
  }

  /// Number of paths of exactly `length` edges (2 <= length <= k).
  std::size_t path_count_of_length(int length) const {
    const int idx = length - 2;
    if (idx < 0 || idx >= static_cast<int>(paths_by_length.size())) return 0;
    return paths_by_length[static_cast<std::size_t>(idx)].size();
  }

  /// All distinct edges appearing on retained paths.
  std::vector<Edge> edges() const;

  bool empty() const { return path_count() == 0; }
};

struct KHopOptions {
  int k = 3;
  /// Safety valve against pathological hubs: per-length cap on enumerated
  /// paths. Real social graphs at our scale stay far below it.
  std::size_t max_paths_per_length = 4096;
};

/// Tallies of one pair's enumeration.
struct KHopStats {
  std::size_t paths = 0;   // retained paths over all lengths
  std::size_t capped = 0;  // lengths stopped by max_paths_per_length
};

/// One retained path, as handed to a visitor. The pointers view the
/// enumerator's scratch and are valid only for the duration of the call.
struct KHopPath {
  int length = 0;                        // edge count, 2..k
  const NodeId* nodes = nullptr;         // length + 1 vertices, a ... b
  const std::uint32_t* slots = nullptr;  // one adjacency index per edge

  /// Edge i = (nodes[i], nodes[i + 1]) located in the graph's adjacency:
  /// returns (u, j) with neighbors(u)[j] being the edge's other end. Edges
  /// before the last are indexed from their a-side end; the last edge is
  /// indexed from b, whose neighbourhood the enumerator stamps per pair.
  std::pair<NodeId, std::uint32_t> slot(int i) const {
    return {i + 1 < length ? nodes[i] : nodes[length], slots[i]};
  }
};

/// Non-owning reference to a path visitor (any callable taking
/// `const KHopPath&`), so a visitor costs no allocation per pair. Meant as
/// a by-value parameter: the referenced callable must outlive the call.
class KHopVisitor {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, KHopVisitor>)
  KHopVisitor(F&& f)  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* object, const KHopPath& path) {
          (*static_cast<std::remove_reference_t<F>*>(object))(path);
        }) {}

  void operator()(const KHopPath& path) const { call_(object_, path); }

 private:
  void* object_;
  void (*call_)(void*, const KHopPath&);
};

/// Reusable working memory for enumerate_khop_paths. Node-indexed markers
/// grow to the largest graph seen and are never cleared: each pair takes a
/// fresh epoch, so reusing one scratch across pairs and graphs gives the
/// same paths as a fresh one. Not shareable between threads — give each
/// worker its own.
class KHopScratch {
 public:
  /// Bytes of node-indexed markers a scratch holds for `node_count` nodes
  /// (what a worker's scratch costs against a memory budget).
  static std::size_t bytes_for(std::size_t node_count);

  /// True while an enumeration runs on this scratch.
  bool busy() const { return busy_; }

 private:
  friend KHopStats enumerate_khop_paths(const Graph&, NodeId, NodeId,
                                        const KHopOptions&, KHopScratch&,
                                        KHopVisitor);

  /// Stamp `epoch_` marks a vertex the current pair's search may not enter:
  /// a, b, the DFS stack (cleared on pop) and the interior vertices of
  /// shorter rounds.
  std::vector<std::uint32_t> blocked_;
  /// near_b_[w] == epoch_ iff w ∈ N(b); b_slot_[w] is then w's index in
  /// neighbors(b).
  std::vector<std::uint32_t> near_b_;
  std::vector<std::uint32_t> b_slot_;
  std::uint32_t epoch_ = 0;
  bool busy_ = false;

  std::vector<NodeId> stack_;         // the partial path, a first
  std::vector<std::uint32_t> slots_;  // adjacency index of each path edge
  std::vector<NodeId> interior_;      // this round's interior vertices
};

/// Enumerates the k-hop reachable subgraph between a and b on `g`,
/// calling `visit` once per retained path as it is found: lengths in
/// ascending order, each in depth-first order over the sorted adjacency,
/// at most max_paths_per_length per length. The direct edge (a, b), if
/// present, is never part of the subgraph (lengths start at 2) — the
/// feature describes *indirect* proximity. Throws std::logic_error if
/// `scratch` is already in use (a visitor re-entering with its caller's
/// scratch).
KHopStats enumerate_khop_paths(const Graph& g, NodeId a, NodeId b,
                               const KHopOptions& options,
                               KHopScratch& scratch, KHopVisitor visit);

/// Same, on the calling thread's scratch (a fresh one while that is in
/// use, so a visitor may itself enumerate).
KHopStats enumerate_khop_paths(const Graph& g, NodeId a, NodeId b,
                               const KHopOptions& options, KHopVisitor visit);

/// Extracts the k-hop reachable subgraph between a and b on `g`.
KHopSubgraph extract_khop_subgraph(const Graph& g, NodeId a, NodeId b,
                                   const KHopOptions& options = {});

/// Convenience: number of length-l paths for l = 2..k as a dense vector
/// (index 0 <-> length 2). Used by Fig. 5's census.
std::vector<std::size_t> khop_path_counts(const Graph& g, NodeId a, NodeId b,
                                          const KHopOptions& options = {});

}  // namespace fs::graph
