#include "baselines/distance.h"

namespace fs::baselines {

geo::LatLng DistanceAttack::center_location(const data::Dataset& dataset,
                                            data::UserId user) {
  const auto trajectory = dataset.trajectory(user);
  if (trajectory.empty()) return {};
  double lat = 0.0, lng = 0.0;
  for (const data::CheckIn& c : trajectory) {
    lat += c.location.lat;
    lng += c.location.lng;
  }
  const auto n = static_cast<double>(trajectory.size());
  return {lat / n, lng / n};
}

std::vector<int> DistanceAttack::infer(
    const data::Dataset& dataset,
    const std::vector<data::UserPair>& train_pairs,
    const std::vector<int>& train_labels,
    const std::vector<data::UserPair>& test_pairs) {
  std::vector<geo::LatLng> centers(dataset.user_count());
  for (data::UserId u = 0; u < dataset.user_count(); ++u)
    centers[u] = center_location(dataset, u);

  // Negated distance: nearer centers -> higher friendship score.
  return threshold_scores(
      [&](const data::UserPair& p) {
        return -geo::equirectangular_m(centers[p.first], centers[p.second]);
      },
      train_pairs, train_labels, test_pairs);
}

}  // namespace fs::baselines
