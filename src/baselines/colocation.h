// Co-location-based knowledge attack (after Hsieh et al., CIKM'15: "Where
// you go reveals who you know"). Scores a pair by its co-location evidence
// weighted by location rarity; a pair with zero co-locations can never be
// predicted as friends — the defining limitation the paper contrasts
// against (Fig 12 notes its F1 is undefined at zero common locations).
#pragma once

#include "baselines/baseline.h"

namespace fs::baselines {

struct CoLocationConfig {
  /// Optional temporal co-occurrence bonus: check-ins at the same POI
  /// within the window count as a meeting. DISABLED by default — the
  /// knowledge-based method scores footprint overlap only; it cannot learn
  /// the predictive power of timing (the limitation the paper highlights).
  /// Set meeting_bonus > 0 for an enhanced variant.
  geo::Timestamp meeting_window = 24 * 3600;
  double meeting_bonus = 0.0;
};

class CoLocationAttack final : public FriendshipAttack {
 public:
  explicit CoLocationAttack(const CoLocationConfig& config = {})
      : config_(config) {}

  std::string name() const override { return "co-location"; }

  std::vector<int> infer(const data::Dataset& dataset,
                         const std::vector<data::UserPair>& train_pairs,
                         const std::vector<int>& train_labels,
                         const std::vector<data::UserPair>& test_pairs)
      override;

  /// Distinct visitors per POI (the rarity weight), indexed by PoiId.
  static std::vector<std::size_t> poi_popularity(const data::Dataset& dataset);

  /// The raw pair score under `popularity` = poi_popularity(dataset).
  static double pair_score(const data::Dataset& dataset,
                           const std::vector<std::size_t>& popularity,
                           data::UserId a, data::UserId b,
                           const CoLocationConfig& config);

 private:
  CoLocationConfig config_;
};

}  // namespace fs::baselines
