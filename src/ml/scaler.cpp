#include "ml/scaler.h"

#include <cmath>
#include <stdexcept>

#include "util/error.h"

namespace fs::ml {

void StandardScaler::fit(const nn::Matrix& features) {
  if (features.rows() == 0)
    throw std::invalid_argument("StandardScaler::fit: empty feature matrix");
  const std::size_t cols = features.cols();
  mean_.assign(cols, 0.0);
  stddev_.assign(cols, 0.0);
  const auto n = static_cast<double>(features.rows());
  for (std::size_t r = 0; r < features.rows(); ++r)
    for (std::size_t c = 0; c < cols; ++c) mean_[c] += features(r, c);
  for (double& m : mean_) m /= n;
  for (std::size_t r = 0; r < features.rows(); ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      const double d = features(r, c) - mean_[c];
      stddev_[c] += d * d;
    }
  for (double& s : stddev_) {
    s = std::sqrt(s / n);
    if (s < 1e-12) s = 1.0;  // constant column
  }
}

nn::Matrix StandardScaler::transform(const nn::Matrix& features) const {
  nn::Matrix out = features;
  transform_in_place(out);
  return out;
}

void StandardScaler::check_width(std::size_t width) const {
  if (!fitted())
    throw std::logic_error("StandardScaler::transform: not fitted");
  if (width != mean_.size())
    throw std::invalid_argument("StandardScaler::transform: width mismatch");
}

void StandardScaler::transform_in_place(nn::Matrix& features) const {
  check_width(features.cols());
  for (std::size_t r = 0; r < features.rows(); ++r)
    transform_row({features.row(r), features.cols()});
}

void StandardScaler::transform_row(std::span<double> row) const {
  check_width(row.size());
  for (std::size_t c = 0; c < row.size(); ++c)
    row[c] = (row[c] - mean_[c]) / stddev_[c];
}

void StandardScaler::save(util::BinaryWriter& writer) const {
  writer.tag("SCLR");
  writer.f64_vector(mean_);
  writer.f64_vector(stddev_);
}

StandardScaler StandardScaler::load(util::BinaryReader& reader) {
  reader.expect_tag("SCLR");
  StandardScaler scaler;
  scaler.mean_ = reader.f64_vector();
  scaler.stddev_ = reader.f64_vector();
  if (scaler.mean_.size() != scaler.stddev_.size())
    throw CorruptCheckpoint("StandardScaler::load: corrupted record");
  return scaler;
}

}  // namespace fs::ml
