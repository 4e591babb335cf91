#include "nn/sparse.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace fs::nn {

namespace {

void check_width(std::size_t cols) {
  // Columns travel as uint32 in the kernels.
  if (cols > std::size_t{0xffffffff})
    throw std::length_error("SparseRows: rows wider than 2^32 columns");
}

}  // namespace

SparseRows SparseRows::from_dense(const Matrix& dense) {
  check_width(dense.cols());
  SparseRows out(dense.cols());
  out.offsets_.reserve(dense.rows() + 1);
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    const double* row = dense.row(r);
    for (std::size_t c = 0; c < dense.cols(); ++c)
      if (row[c] != 0.0) {
        out.index_.push_back(static_cast<std::uint32_t>(c));
        out.values_.push_back(row[c]);
      }
    out.offsets_.push_back(out.index_.size());
  }
  return out;
}

SparseRows SparseRows::with_row_sizes(std::size_t cols,
                                      const std::vector<std::size_t>& sizes) {
  check_width(cols);
  SparseRows out(cols);
  out.offsets_.resize(sizes.size() + 1);
  for (std::size_t r = 0; r < sizes.size(); ++r)
    out.offsets_[r + 1] = out.offsets_[r] + sizes[r];
  out.index_.resize(out.offsets_.back());
  out.values_.resize(out.offsets_.back());
  return out;
}

std::size_t SparseRows::bytes() const {
  return offsets_.size() * sizeof(std::uint64_t) +
         index_.size() * sizeof(std::uint32_t) +
         values_.size() * sizeof(double);
}

void SparseRows::gather_rows_into(std::span<const std::size_t> rows,
                                  SparseRows& out) const {
  out.cols_ = cols_;
  out.offsets_.assign(1, 0);
  out.index_.clear();
  out.values_.clear();
  for (const std::size_t r : rows) {
    if (r >= this->rows())
      throw std::out_of_range("SparseRows::gather_rows_into: row index");
    out.index_.insert(out.index_.end(), index_.begin() + offsets_[r],
                      index_.begin() + offsets_[r + 1]);
    out.values_.insert(out.values_.end(), values_.begin() + offsets_[r],
                       values_.begin() + offsets_[r + 1]);
    out.offsets_.push_back(out.index_.size());
  }
}

void SparseRows::densify_into(Matrix& out) const {
  out.resize(rows(), cols_);
  for (std::size_t r = 0; r < rows(); ++r) densify_row(r, out.row(r));
}

void SparseRows::densify_row(std::size_t r, double* out) const {
  std::memset(out, 0, cols_ * sizeof(double));
  for (std::uint64_t p = offsets_[r]; p < offsets_[r + 1]; ++p)
    out[index_[p]] = values_[p];
}

kern::CsrView SparseRows::view() const {
  kern::CsrView v;
  v.rows = rows();
  v.cols = cols_;
  v.offsets = offsets_.data();
  v.index = index_.data();
  v.values = values_.data();
  return v;
}

}  // namespace fs::nn
