#include "baselines/colocation.h"

#include <algorithm>
#include <cmath>

namespace fs::baselines {

std::vector<std::size_t> CoLocationAttack::poi_popularity(
    const data::Dataset& dataset) {
  std::vector<std::size_t> popularity(dataset.poi_count(), 0);
  for (data::UserId u = 0; u < dataset.user_count(); ++u)
    for (data::PoiId p : dataset.visited_pois(u)) ++popularity[p];
  return popularity;
}

double CoLocationAttack::pair_score(const data::Dataset& dataset,
                                    const std::vector<std::size_t>& popularity,
                                    data::UserId a, data::UserId b,
                                    const CoLocationConfig& config) {
  // Rarity-weighted common POIs: meeting at an unpopular place is stronger
  // evidence of friendship than meeting at a hub (location-entropy idea).
  const std::vector<data::PoiId> pa = dataset.visited_pois(a);
  const std::vector<data::PoiId> pb = dataset.visited_pois(b);
  std::vector<data::PoiId> common;
  std::set_intersection(pa.begin(), pa.end(), pb.begin(), pb.end(),
                        std::back_inserter(common));
  if (common.empty()) return 0.0;

  double score = 0.0;
  for (data::PoiId p : common)
    score += 1.0 / std::log(1.0 + static_cast<double>(popularity[p]) + 1.0);

  // Optional temporal meetings: same POI within the window.
  if (config.meeting_bonus > 0.0) {
    const auto ta = dataset.trajectory(a);
    const auto tb = dataset.trajectory(b);
    std::size_t meetings = 0;
    for (const data::CheckIn& ca : ta)
      for (const data::CheckIn& cb : tb)
        if (ca.poi == cb.poi &&
            std::llabs(static_cast<long long>(ca.time - cb.time)) <=
                config.meeting_window)
          ++meetings;
    score +=
        config.meeting_bonus * std::log1p(static_cast<double>(meetings));
  }
  return score;
}

std::vector<int> CoLocationAttack::infer(
    const data::Dataset& dataset,
    const std::vector<data::UserPair>& train_pairs,
    const std::vector<int>& train_labels,
    const std::vector<data::UserPair>& test_pairs) {
  const std::vector<std::size_t> popularity = poi_popularity(dataset);
  // Zero co-location evidence can never mean "friends" in this attack.
  return threshold_scores(
      [&](const data::UserPair& p) {
        return pair_score(dataset, popularity, p.first, p.second, config_);
      },
      train_pairs, train_labels, test_pairs, 1e-12);
}

}  // namespace fs::baselines
