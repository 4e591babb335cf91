#include "core/social.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "graph/heuristics.h"
#include "kern/kern.h"

namespace fs::core {

namespace {

graph::KHopOptions khop_options(const SocialFeatureConfig& config,
                                const char* who) {
  if (config.k < 2)
    throw std::invalid_argument(std::string(who) + ": k must be >= 2");
  graph::KHopOptions khop = config.khop;
  khop.k = config.k;
  return khop;
}

}  // namespace

std::size_t EdgeFeatureTable::bytes_for(std::size_t node_count,
                                        std::size_t edge_count) {
  return (node_count + 1) * sizeof(std::size_t) +
         2 * edge_count * sizeof(const double*);
}

void EdgeFeatureTable::reserve(std::size_t node_count,
                               std::size_t edge_count) {
  offset_.reserve(node_count + 1);
  rows_.reserve(2 * edge_count);
}

void EdgeFeatureTable::rebuild(const graph::Graph& g, std::size_t width,
                               const RowFn& row_of) {
  width_ = width;
  offset_.clear();
  rows_.clear();
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    offset_.push_back(rows_.size());
    for (graph::NodeId v : g.neighbors(u)) rows_.push_back(row_of(u, v));
  }
  offset_.push_back(rows_.size());
}

std::vector<double> social_proximity_feature(
    const graph::Graph& g, data::UserId a, data::UserId b,
    const SocialFeatureConfig& config, const EdgeFeatureFn& edge_feature) {
  std::vector<double> feature, edge_scratch;
  social_proximity_feature(g, a, b, config, edge_feature, feature,
                           edge_scratch);
  return feature;
}

void social_proximity_feature(const graph::Graph& g, data::UserId a,
                              data::UserId b,
                              const SocialFeatureConfig& config,
                              const EdgeFeatureFn& edge_feature,
                              std::vector<double>& out,
                              std::vector<double>& edge_scratch) {
  const graph::KHopOptions khop =
      khop_options(config, "social_proximity_feature");
  const std::size_t d = config.feature_dim;
  out.assign(static_cast<std::size_t>(config.k - 1) * d, 0.0);
  graph::enumerate_khop_paths(g, a, b, khop, [&](const graph::KHopPath& p) {
    double* slot = out.data() + static_cast<std::size_t>(p.length - 2) * d;
    for (int i = 0; i < p.length; ++i) {
      if (!edge_feature(p.nodes[i], p.nodes[i + 1], edge_scratch)) continue;
      if (edge_scratch.size() != d)
        throw std::logic_error(
            "social_proximity_feature: edge feature width mismatch");
      kern::accumulate(slot, edge_scratch.data(), d);
    }
  });
}

graph::KHopStats social_proximity_feature(const graph::Graph& g,
                                          data::UserId a, data::UserId b,
                                          const SocialFeatureConfig& config,
                                          const EdgeFeatureTable& table,
                                          graph::KHopScratch& scratch,
                                          std::span<double> out) {
  const graph::KHopOptions khop =
      khop_options(config, "social_proximity_feature");
  const std::size_t d = config.feature_dim;
  if (out.size() != static_cast<std::size_t>(config.k - 1) * d)
    throw std::invalid_argument(
        "social_proximity_feature: output width mismatch");
  if (table.width() != d || !table.matches(g))
    throw std::logic_error(
        "social_proximity_feature: edge table does not match the graph");
  std::fill(out.begin(), out.end(), 0.0);
  return graph::enumerate_khop_paths(
      g, a, b, khop, scratch, [&](const graph::KHopPath& p) {
        double* slot =
            out.data() + static_cast<std::size_t>(p.length - 2) * d;
        for (int i = 0; i < p.length; ++i) {
          const auto [u, j] = p.slot(i);
          const double* h = table.row(u, j);
          if (h != nullptr) kern::accumulate(slot, h, d);
        }
      });
}

std::vector<double> heuristic_social_feature(
    const graph::Graph& g, data::UserId a, data::UserId b,
    const SocialFeatureConfig& config) {
  std::vector<double> feature;
  heuristic_social_feature(g, a, b, config, feature);
  return feature;
}

graph::KHopStats heuristic_social_feature(const graph::Graph& g,
                                          data::UserId a, data::UserId b,
                                          const SocialFeatureConfig& config,
                                          std::vector<double>& out) {
  const graph::KHopOptions khop =
      khop_options(config, "heuristic_social_feature");
  const std::size_t width =
      static_cast<std::size_t>(config.k - 1) * config.feature_dim;
  constexpr std::size_t kScores = 4;
  out.clear();
  out.reserve(std::max(width, kScores + static_cast<std::size_t>(khop.k - 1)));
  out.push_back(graph::common_neighbors_score(g, a, b));
  out.push_back(graph::jaccard_score(g, a, b));
  out.push_back(graph::adamic_adar_score(g, a, b));
  out.push_back(graph::katz_score(g, a, b, 0.05, config.k));
  // Path counts per length 2..k follow the four scores.
  out.resize(kScores + static_cast<std::size_t>(khop.k - 1), 0.0);
  const graph::KHopStats stats = graph::enumerate_khop_paths(
      g, a, b, khop, [&](const graph::KHopPath& p) {
        out[kScores + static_cast<std::size_t>(p.length - 2)] += 1.0;
      });
  // Same width as the paper's feature so classifiers are interchangeable.
  out.resize(width, 0.0);
  return stats;
}

}  // namespace fs::core
