#include "graph/khop.h"

#include <algorithm>
#include <stdexcept>

namespace fs::graph {

std::vector<Edge> KHopSubgraph::edges() const {
  std::vector<Edge> out;
  for (const auto& bucket : paths_by_length)
    for (const Path& path : bucket)
      for (std::size_t i = 0; i + 1 < path.size(); ++i)
        out.emplace_back(path[i], path[i + 1]);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t KHopScratch::bytes_for(std::size_t node_count) {
  return 3 * node_count * sizeof(std::uint32_t);
}

namespace {

/// Depth-first search for simple a->b paths of exactly `target` edges that
/// avoid blocked vertices. stack[0..depth] is the partial path and
/// slots[i] the adjacency index of its edge i. b is blocked as an interior
/// vertex; a path reaches it only through the N(b) stamp probe.
struct PathSearch {
  const Graph& g;
  NodeId b;
  std::uint32_t epoch;
  std::uint32_t* blocked;
  const std::uint32_t* near_b;
  const std::uint32_t* b_slot;
  NodeId* stack;
  std::uint32_t* slots;
  std::vector<NodeId>& interior;
  KHopVisitor visit;
  std::size_t cap;
  int target = 0;
  std::size_t found = 0;

  void run(int length) {
    target = length;
    found = 0;
    dfs(0);
  }

  void emit(int depth) {
    ++found;
    interior.insert(interior.end(), stack + 1, stack + depth + 1);
    visit(KHopPath{target, stack, slots});
  }

  void dfs(int depth) {
    if (found >= cap) return;
    const std::vector<NodeId>& adj = g.neighbors(stack[depth]);
    const auto degree = static_cast<std::uint32_t>(adj.size());
    if (depth + 2 == target) {
      // Last interior vertex: w completes a path iff it is adjacent to b.
      for (std::uint32_t j = 0; j < degree; ++j) {
        const NodeId w = adj[j];
        if (blocked[w] == epoch || near_b[w] != epoch) continue;
        stack[depth + 1] = w;
        stack[depth + 2] = b;
        slots[depth] = j;
        slots[depth + 1] = b_slot[w];
        emit(depth + 1);
        if (found >= cap) return;
      }
      return;
    }
    for (std::uint32_t j = 0; j < degree; ++j) {
      const NodeId w = adj[j];
      if (blocked[w] == epoch) continue;
      stack[depth + 1] = w;
      slots[depth] = j;
      blocked[w] = epoch;
      dfs(depth + 1);
      blocked[w] = 0;
      if (found >= cap) return;
    }
  }
};

}  // namespace

KHopStats enumerate_khop_paths(const Graph& g, NodeId a, NodeId b,
                               const KHopOptions& options,
                               KHopScratch& scratch, KHopVisitor visit) {
  if (options.k < 2)
    throw std::invalid_argument("enumerate_khop_paths: k must be >= 2");
  if (a >= g.node_count() || b >= g.node_count())
    throw std::out_of_range("enumerate_khop_paths: node id out of range");
  if (a == b) throw std::invalid_argument("enumerate_khop_paths: a == b");
  if (scratch.busy_)
    throw std::logic_error("enumerate_khop_paths: scratch already in use");

  struct BusyGuard {
    bool& busy;
    explicit BusyGuard(bool& flag) : busy(flag) { busy = true; }
    ~BusyGuard() { busy = false; }
  } guard(scratch.busy_);

  const std::size_t n = g.node_count();
  if (scratch.blocked_.size() < n) {
    scratch.blocked_.resize(n, 0);
    scratch.near_b_.resize(n, 0);
    scratch.b_slot_.resize(n, 0);
  }
  // Stamps of earlier pairs (and graphs) are all below the new epoch; 0 is
  // never an epoch, so a wrap clears the markers once and restarts at 1.
  if (++scratch.epoch_ == 0) {
    std::fill(scratch.blocked_.begin(), scratch.blocked_.end(), 0);
    std::fill(scratch.near_b_.begin(), scratch.near_b_.end(), 0);
    scratch.epoch_ = 1;
  }
  const std::uint32_t epoch = scratch.epoch_;
  const std::vector<NodeId>& nb = g.neighbors(b);
  for (std::uint32_t j = 0; j < nb.size(); ++j) {
    scratch.near_b_[nb[j]] = epoch;
    scratch.b_slot_[nb[j]] = j;
  }
  // a heads every path and b only ever closes one: neither is an interior
  // candidate.
  scratch.blocked_[a] = epoch;
  scratch.blocked_[b] = epoch;
  scratch.stack_.resize(static_cast<std::size_t>(options.k) + 1);
  scratch.slots_.resize(static_cast<std::size_t>(options.k));
  scratch.stack_[0] = a;

  PathSearch search{g,
                    b,
                    epoch,
                    scratch.blocked_.data(),
                    scratch.near_b_.data(),
                    scratch.b_slot_.data(),
                    scratch.stack_.data(),
                    scratch.slots_.data(),
                    scratch.interior_,
                    visit,
                    options.max_paths_per_length};
  KHopStats stats;
  for (int length = 2; length <= options.k; ++length) {
    scratch.interior_.clear();
    search.run(length);
    stats.paths += search.found;
    if (search.found >= options.max_paths_per_length) ++stats.capped;
    // Exclude this round's interior vertices from longer rounds (a and b
    // never are). Excluding a vertex removes all its incident edges from
    // the working graph, which implements the paper's "exclude all nodes
    // and edges" step without copying the graph.
    for (NodeId v : scratch.interior_) scratch.blocked_[v] = epoch;
  }
  return stats;
}

KHopStats enumerate_khop_paths(const Graph& g, NodeId a, NodeId b,
                               const KHopOptions& options, KHopVisitor visit) {
  thread_local KHopScratch scratch;
  if (scratch.busy()) {
    KHopScratch fresh;
    return enumerate_khop_paths(g, a, b, options, fresh, visit);
  }
  return enumerate_khop_paths(g, a, b, options, scratch, visit);
}

KHopSubgraph extract_khop_subgraph(const Graph& g, NodeId a, NodeId b,
                                   const KHopOptions& options) {
  KHopSubgraph result;
  result.a = a;
  result.b = b;
  result.k = options.k;
  if (options.k >= 2)
    result.paths_by_length.resize(static_cast<std::size_t>(options.k - 1));
  enumerate_khop_paths(g, a, b, options, [&](const KHopPath& path) {
    result.paths_by_length[static_cast<std::size_t>(path.length - 2)]
        .emplace_back(path.nodes, path.nodes + path.length + 1);
  });
  return result;
}

std::vector<std::size_t> khop_path_counts(const Graph& g, NodeId a, NodeId b,
                                          const KHopOptions& options) {
  std::vector<std::size_t> counts(
      options.k >= 2 ? static_cast<std::size_t>(options.k - 1) : 0, 0);
  enumerate_khop_paths(g, a, b, options, [&](const KHopPath& path) {
    ++counts[static_cast<std::size_t>(path.length - 2)];
  });
  return counts;
}

}  // namespace fs::graph
