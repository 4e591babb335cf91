#include "baselines/usergraph.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

namespace fs::baselines {

embed::WeightedGraph UserGraphAttack::build_meeting_graph(
    const data::Dataset& dataset, const UserGraphConfig& config) {
  // Group check-ins by POI, time-sorted, then find meetings with a sliding
  // window.
  std::vector<std::vector<std::pair<geo::Timestamp, data::UserId>>> by_poi(
      dataset.poi_count());
  std::vector<std::size_t> popularity(dataset.poi_count(), 0);
  for (const data::CheckIn& c : dataset.checkins())
    by_poi[c.poi].emplace_back(c.time, c.user);

  for (data::PoiId p = 0; p < dataset.poi_count(); ++p) {
    auto& events = by_poi[p];
    std::sort(events.begin(), events.end());
    // Popularity = distinct visitors.
    std::vector<data::UserId> visitors;
    for (const auto& [t, u] : events) visitors.push_back(u);
    std::sort(visitors.begin(), visitors.end());
    visitors.erase(std::unique(visitors.begin(), visitors.end()),
                   visitors.end());
    popularity[p] = visitors.size();
  }

  // Accumulate meeting weights, then build the graph in one pass.
  std::map<data::UserPair, double> weight;
  for (data::PoiId p = 0; p < dataset.poi_count(); ++p) {
    const auto& events = by_poi[p];
    if (events.size() < 2) continue;
    const data::Poi& poi = dataset.poi(p);
    double cat_weight = 1.0;
    if (!config.category_weight.empty() &&
        poi.category < config.category_weight.size())
      cat_weight = config.category_weight[poi.category];
    const double popularity_discount =
        1.0 / std::log(2.0 + static_cast<double>(popularity[p]));
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (std::size_t j = i + 1; j < events.size(); ++j) {
        if (events[j].first - events[i].first > config.meeting_window) break;
        const data::UserId a = events[i].second;
        const data::UserId b = events[j].second;
        if (a == b) continue;
        weight[data::make_pair_ordered(a, b)] +=
            cat_weight * popularity_discount;
      }
    }
  }

  embed::WeightedGraph g(dataset.user_count());
  for (const auto& [pair, w] : weight)
    g.add_weight(pair.first, pair.second, w);
  return g;
}

std::vector<int> UserGraphAttack::infer(
    const data::Dataset& dataset,
    const std::vector<data::UserPair>& train_pairs,
    const std::vector<int>& train_labels,
    const std::vector<data::UserPair>& test_pairs) {
  const embed::WeightedGraph meeting =
      build_meeting_graph(dataset, config_);
  util::Rng rng(config_.seed);
  const auto corpus = embed::generate_walks(meeting, config_.walks, rng);
  const nn::Matrix embeddings =
      embed::train_skipgram(corpus, dataset.user_count(), config_.skipgram);

  return threshold_scores(
      [&](const data::UserPair& p) {
        return embed::cosine_similarity(embeddings, p.first, p.second);
      },
      train_pairs, train_labels, test_pairs);
}

}  // namespace fs::baselines
