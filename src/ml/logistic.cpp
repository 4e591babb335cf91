#include "ml/logistic.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/error.h"
#include "util/failpoint.h"

namespace fs::ml {

LogisticClassifier::LogisticClassifier(const LogisticConfig& config)
    : config_(config) {
  if (config.learning_rate <= 0.0)
    throw std::invalid_argument("LogisticClassifier: learning_rate <= 0");
  if (config.epochs <= 0)
    throw std::invalid_argument("LogisticClassifier: epochs <= 0");
}

void LogisticClassifier::fit(const nn::Matrix& features,
                             const std::vector<int>& labels) {
  const std::size_t n = features.rows();
  const std::size_t dim = features.cols();
  if (n != labels.size())
    throw std::invalid_argument("LogisticClassifier::fit: size mismatch");
  if (n == 0)
    throw std::invalid_argument("LogisticClassifier::fit: empty set");

  // Same contract as the SVM: refuse to train on non-finite features.
  if (!std::isfinite(util::failpoint::corrupt("ml.logistic.nan", 0.0)))
    throw NumericError("LogisticClassifier::fit: injected non-finite feature");
  for (std::size_t i = 0; i < features.size(); ++i)
    if (!std::isfinite(features.data()[i]))
      throw NumericError(
          "LogisticClassifier::fit: non-finite feature at flat index " +
          std::to_string(i));

  weights_.assign(dim, 0.0);
  bias_ = 0.0;

  std::vector<double> grad(dim);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_bias = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = features.row(i);
      double z = bias_;
      for (std::size_t c = 0; c < dim; ++c) z += weights_[c] * row[c];
      const double p = 1.0 / (1.0 + std::exp(-z));
      const double err = p - static_cast<double>(labels[i] != 0);
      for (std::size_t c = 0; c < dim; ++c) grad[c] += err * row[c];
      grad_bias += err;
    }
    const double scale = config_.learning_rate / static_cast<double>(n);
    for (std::size_t c = 0; c < dim; ++c)
      weights_[c] -= scale * (grad[c] +
                              config_.l2 * static_cast<double>(n) *
                                  weights_[c]);
    bias_ -= scale * grad_bias;
  }
  trained_ = true;
}

double LogisticClassifier::decision(const double* query) const {
  if (!trained_)
    throw std::logic_error("LogisticClassifier: predict before fit");
  double z = bias_;
  for (std::size_t c = 0; c < weights_.size(); ++c)
    z += weights_[c] * query[c];
  return z;
}

}  // namespace fs::ml
