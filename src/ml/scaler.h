// Column standardization (zero mean, unit variance) fitted on training
// features and applied to both splits — KNN and the RBF kernel are
// scale-sensitive.
#pragma once

#include "nn/matrix.h"
#include "util/binary_io.h"

namespace fs::ml {

class StandardScaler {
 public:
  /// Learns per-column mean and standard deviation. Constant columns get
  /// unit scale (they transform to all-zero).
  void fit(const nn::Matrix& features);

  nn::Matrix transform(const nn::Matrix& features) const;

  /// transform() without the copy: scales `features` in place, bit for bit
  /// the values transform() returns.
  void transform_in_place(nn::Matrix& features) const;

  nn::Matrix fit_transform(const nn::Matrix& features) {
    fit(features);
    return transform(features);
  }

  bool fitted() const { return !mean_.empty(); }

  void save(util::BinaryWriter& writer) const;
  static StandardScaler load(util::BinaryReader& reader);

  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& stddev() const { return stddev_; }

 private:
  std::vector<double> mean_;
  std::vector<double> stddev_;
};

}  // namespace fs::ml
