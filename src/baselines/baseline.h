// Common interface for friendship-inference attacks, so FriendSeeker and
// the four baselines (Fig 11) run under one evaluation protocol.
#pragma once

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/metrics.h"

namespace fs::baselines {

/// A friendship-inference attack: trains on labeled pairs, predicts the
/// test pairs. Implementations must not look at test labels.
class FriendshipAttack {
 public:
  virtual ~FriendshipAttack() = default;

  virtual std::string name() const = 0;

  virtual std::vector<int> infer(
      const data::Dataset& dataset,
      const std::vector<data::UserPair>& train_pairs,
      const std::vector<int>& train_labels,
      const std::vector<data::UserPair>& test_pairs) = 0;

  /// One score per test pair of the last infer() call (higher = more
  /// likely friends): what AUC and precision@k rank.
  virtual const std::vector<double>& test_scores() const {
    return test_scores_;
  }

 protected:
  /// The score-based baselines' protocol (the original papers tune an
  /// operating point the same way): scores the train pairs, picks the
  /// threshold maximizing F1 on them (raised to `min_threshold`), scores
  /// the test pairs, keeps those scores for test_scores(), and predicts a
  /// test pair friends iff its score reaches the threshold.
  std::vector<int> threshold_scores(
      const std::function<double(const data::UserPair&)>& score,
      const std::vector<data::UserPair>& train_pairs,
      const std::vector<int>& train_labels,
      const std::vector<data::UserPair>& test_pairs,
      double min_threshold = -std::numeric_limits<double>::infinity());

 private:
  std::vector<double> test_scores_;
};

}  // namespace fs::baselines
