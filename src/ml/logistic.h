// L2-regularized logistic regression trained by gradient descent.
//
// Serves as a drop-in alternative for the paper's phase-2 classifier C'
// (the paper states its approach "is independent from the type of ...
// classifiers used"); the ablation bench compares it with the RBF-SVM.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/matrix.h"

namespace fs::ml {

struct LogisticConfig {
  double learning_rate = 0.1;
  double l2 = 1e-4;
  int epochs = 200;
  std::uint64_t seed = 31;
};

class LogisticClassifier {
 public:
  explicit LogisticClassifier(const LogisticConfig& config = {});

  const LogisticConfig& config() const { return config_; }

  /// Trains on (already scaled) features with labels in {0, 1}.
  void fit(const nn::Matrix& features, const std::vector<int>& labels);

  /// Linear decision value w.x + b of one query row (positive -> class 1).
  /// It needs no scratch and allocates nothing, so a caller can decide
  /// rows one at a time as it builds them.
  double decision(const double* query) const;

  bool trained() const { return trained_; }
  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }

 private:
  LogisticConfig config_;
  std::vector<double> weights_;
  double bias_ = 0.0;
  bool trained_ = false;
};

}  // namespace fs::ml
