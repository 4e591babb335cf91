// Compressed-sparse-row matrix: the JOC store and the autoencoder's
// sparse-input batches.
//
// A JOC row is ~1.5 % non-zero, so the engine keeps each one as its
// (column, value) entries: row offsets, uint32 columns, double values.
// Within a row the columns ascend strictly, which is the order the sparse
// kernels (kern::sparse_gemm_nn / sparse_tn_step) need to reproduce the
// dense GEMM's bits. Zeros are never stored; a densified row reads 0.0
// wherever no entry sits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "kern/kern.h"
#include "nn/matrix.h"

namespace fs::nn {

class SparseRows {
 public:
  SparseRows() = default;
  /// An empty store of rows `cols` wide.
  explicit SparseRows(std::size_t cols) : cols_(cols) {}

  /// The non-zero entries of `dense` (a -0.0 counts as zero: every
  /// consumer reads it as +0.0).
  static SparseRows from_dense(const Matrix& dense);

  /// A store whose row r has room for exactly sizes[r] entries, to be
  /// written through row_index(r) / row_values(r) (rows may be filled in
  /// any order, from any thread, one writer per row).
  static SparseRows with_row_sizes(std::size_t cols,
                                   const std::vector<std::size_t>& sizes);

  std::size_t rows() const { return offsets_.size() - 1; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }
  std::size_t row_nnz(std::size_t r) const {
    return static_cast<std::size_t>(offsets_[r + 1] - offsets_[r]);
  }
  /// Bytes of the three arrays (their sizes, not their capacities).
  std::size_t bytes() const;

  std::uint32_t* row_index(std::size_t r) {
    return index_.data() + offsets_[r];
  }
  const std::uint32_t* row_index(std::size_t r) const {
    return index_.data() + offsets_[r];
  }
  double* row_values(std::size_t r) { return values_.data() + offsets_[r]; }
  const double* row_values(std::size_t r) const {
    return values_.data() + offsets_[r];
  }

  /// Copies the given rows of this store into `out`, in that order,
  /// reusing out's capacity (mini-batch and chunk assembly).
  void gather_rows_into(std::span<const std::size_t> rows,
                        SparseRows& out) const;

  /// Every row densified into `out` (rows() x cols()), reusing capacity.
  void densify_into(Matrix& out) const;
  /// Row r densified into out[0, cols()).
  void densify_row(std::size_t r, double* out) const;

  /// The kernels' view of the whole store.
  kern::CsrView view() const;

 private:
  std::size_t cols_ = 0;
  std::vector<std::uint64_t> offsets_{0};
  std::vector<std::uint32_t> index_;
  std::vector<double> values_;
};

}  // namespace fs::nn
