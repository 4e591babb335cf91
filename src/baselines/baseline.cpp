#include "baselines/baseline.h"

#include <algorithm>

namespace fs::baselines {

std::vector<int> FriendshipAttack::threshold_scores(
    const std::function<double(const data::UserPair&)>& score,
    const std::vector<data::UserPair>& train_pairs,
    const std::vector<int>& train_labels,
    const std::vector<data::UserPair>& test_pairs, double min_threshold) {
  std::vector<double> train_scores(train_pairs.size());
  for (std::size_t i = 0; i < train_pairs.size(); ++i)
    train_scores[i] = score(train_pairs[i]);
  const double threshold = std::max(
      ml::tune_f1_threshold(train_scores, train_labels).threshold,
      min_threshold);

  test_scores_.resize(test_pairs.size());
  std::vector<int> predictions(test_pairs.size());
  for (std::size_t i = 0; i < test_pairs.size(); ++i) {
    test_scores_[i] = score(test_pairs[i]);
    predictions[i] = test_scores_[i] >= threshold ? 1 : 0;
  }
  return predictions;
}

}  // namespace fs::baselines
