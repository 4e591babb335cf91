// Column standardization (zero mean, unit variance) fitted on training
// features and applied to both splits — KNN and the RBF kernel are
// scale-sensitive.
#pragma once

#include <span>

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

  /// Scales one row of the fitted width in place: the same per-element
  /// (x - mean) / stddev that transform_in_place applies to each row, so a
  /// caller can scale rows one at a time as it builds them.
  void transform_row(std::span<double> row) const;

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
  /// Throws unless fitted to rows `width` wide.
  void check_width(std::size_t width) const;

  std::vector<double> mean_;
  std::vector<double> stddev_;
};

}  // namespace fs::ml
