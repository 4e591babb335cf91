#include "nn/matrix.h"

#include <cmath>
#include <cstring>
#include <string>

#include "kern/kern.h"

namespace fs::nn {

namespace {

void check_into_shape(const Matrix& c, std::size_t rows, std::size_t cols,
                      bool accumulate, const char* what) {
  if (accumulate && (c.rows() != rows || c.cols() != cols))
    throw std::invalid_argument(std::string(what) +
                                ": accumulate into mismatched shape");
}

}  // namespace

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return {};
  Matrix m(rows.size(), rows[0].size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != m.cols())
      throw std::invalid_argument("Matrix::from_rows: ragged rows");
    std::memcpy(m.row(r), rows[r].data(), m.cols() * sizeof(double));
  }
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix::operator+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix::operator-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

Matrix Matrix::he_init(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  const double stddev = std::sqrt(2.0 / static_cast<double>(cols));
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = rng.normal(0.0, stddev);
  return m;
}

void Matrix::set_row(std::size_t dst_row, const Matrix& src,
                     std::size_t src_row) {
  if (cols_ != src.cols_)
    throw std::invalid_argument("Matrix::set_row: width mismatch");
  std::memcpy(row(dst_row), src.row(src_row), cols_ * sizeof(double));
}

Matrix Matrix::gather_rows(const std::vector<std::size_t>& indices) const {
  Matrix out;
  gather_rows_into(indices, out);
  return out;
}

void Matrix::gather_rows_into(const std::vector<std::size_t>& indices,
                              Matrix& out) const {
  out.resize(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i)
    out.set_row(i, *this, indices[i]);
}

double Matrix::squared_difference(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols())
    throw std::invalid_argument("Matrix::squared_difference: shape mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x.data()[i] - y.data()[i];
    total += d * d;
  }
  return total;
}

// The three GEMM variants delegate to fs::kern, which blocks, packs, and
// fans MC row-blocks across fs::par deterministically (see kern.h).

void matmul_nn_into(const Matrix& a, const Matrix& b, Matrix& c,
                    bool accumulate) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("matmul_nn: inner dimension mismatch");
  check_into_shape(c, a.rows(), b.cols(), accumulate, "matmul_nn_into");
  if (!accumulate) c.resize(a.rows(), b.cols());
  kern::gemm_nn(a.rows(), b.cols(), a.cols(), a.data(), a.cols(), b.data(),
                b.cols(), c.data(), b.cols(), accumulate);
}

void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& c,
                    bool accumulate) {
  if (a.cols() != b.cols())
    throw std::invalid_argument("matmul_nt: inner dimension mismatch");
  check_into_shape(c, a.rows(), b.rows(), accumulate, "matmul_nt_into");
  if (!accumulate) c.resize(a.rows(), b.rows());
  kern::gemm_nt(a.rows(), b.rows(), a.cols(), a.data(), a.cols(), b.data(),
                b.cols(), c.data(), b.rows(), accumulate);
}

void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& c,
                    bool accumulate) {
  if (a.rows() != b.rows())
    throw std::invalid_argument("matmul_tn: inner dimension mismatch");
  check_into_shape(c, a.cols(), b.cols(), accumulate, "matmul_tn_into");
  if (!accumulate) c.resize(a.cols(), b.cols());
  kern::gemm_tn(a.cols(), b.cols(), a.rows(), a.data(), a.cols(), b.data(),
                b.cols(), c.data(), b.cols(), accumulate);
}

Matrix matmul_nn(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_nn_into(a, b, c);
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_nt_into(a, b, c);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_tn_into(a, b, c);
  return c;
}

}  // namespace fs::nn
