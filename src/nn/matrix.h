// Dense row-major matrix for the neural substrate.
//
// The repository trains small fully-connected networks (the paper's
// supervised autoencoder and classifier); everything reduces to the three
// GEMM variants below, executed by fs::kern's cache-blocked SIMD kernels
// (runtime-dispatched scalar/AVX2/AVX-512 — see src/kern/kern.h for the
// determinism contract). Storage is 64-byte aligned so kernel loads and
// the columnar store's alignment convention agree. The `_into` variants
// write into a caller-owned matrix, reusing its capacity — the training
// loop runs allocation-free at steady state.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "util/aligned.h"
#include "util/rng.h"

namespace fs::nn {

// A 64-byte line must hold whole doubles for row alignment to make sense.
static_assert(util::kCacheLineBytes % sizeof(double) == 0,
              "cache line must be a multiple of sizeof(double)");

class Matrix {
 public:
  using Storage = std::vector<double, util::AlignedAllocator<double>>;

  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  void fill(double value) { data_.assign(data_.size(), value); }

  /// Reshapes to rows x cols, reusing existing capacity when it suffices
  /// (no reallocation in steady-state training loops). Contents are
  /// preserved when the shape is unchanged and zero-filled otherwise —
  /// callers are expected to overwrite every element either way.
  void resize(std::size_t rows, std::size_t cols) {
    if (rows == rows_ && cols == cols_) return;
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  /// Makes room for `count` elements, so a later resize to at most that
  /// size never reallocates.
  void reserve(std::size_t count) { data_.reserve(count); }

  /// Element-wise in-place operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  /// Gaussian init scaled for the given fan-in (He initialization; the
  /// hidden activations are ReLU).
  static Matrix he_init(std::size_t rows, std::size_t cols, util::Rng& rng);

  /// Copies row `src_row` of `src` into row `dst_row` of *this.
  void set_row(std::size_t dst_row, const Matrix& src, std::size_t src_row);

  /// Extracts the given rows into a new matrix.
  Matrix gather_rows(const std::vector<std::size_t>& indices) const;
  /// gather_rows into `out`, reusing its capacity.
  void gather_rows_into(const std::vector<std::size_t>& indices,
                        Matrix& out) const;

  /// Frobenius-norm squared of the difference (reconstruction loss).
  static double squared_difference(const Matrix& x, const Matrix& y);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Storage data_;
};

/// C = A * B. Dimensions: (m x k) * (k x n) -> (m x n).
Matrix matmul_nn(const Matrix& a, const Matrix& b);

/// C = A * B^T. Dimensions: (m x k) * (n x k) -> (m x n).
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// C = A^T * B. Dimensions: (k x m) * (k x n) -> (m x n).
Matrix matmul_tn(const Matrix& a, const Matrix& b);

/// Out-param variants: write into `c` (resized unless accumulating, in
/// which case its shape must already match). With accumulate, C += A * B.
void matmul_nn_into(const Matrix& a, const Matrix& b, Matrix& c,
                    bool accumulate = false);
void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& c,
                    bool accumulate = false);
void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& c,
                    bool accumulate = false);

}  // namespace fs::nn
