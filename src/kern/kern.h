// fs::kern — the compute kernel layer.
//
// Three kernel families live here, behind one runtime ISA dispatch:
//
//   * GEMM, the dense primitive of the autoencoder (forward/backward
//     products, batch encoding) and of the RBF-SVM (queries x support
//     vectors^T), as a cache-blocked, register-tiled kernel, plus its
//     sparse-input twins for the bottom layer (forward and weight step
//     over compressed-sparse-row input, at the dense kernel's bits);
//   * row sweeps: sq_dist (one query against every row of a packed
//     reference panel, KNN's distances) and the element-wise accumulate
//     that sums phase-2 path features;
//   * the RBF epilogue, which turns a block of GEMM dot products and row
//     norms into kernel values exp(-gamma * max(0, |q|^2 + |s|^2 - 2 q.s)),
//     or into their weighted sums (SVM decisions), with its own exp.
//
// GEMM:
//
//   * GEMM packs A into MR-tall row panels and B into NR-wide column
//     panels (BLIS-style MC/KC/NC blocking), then drives an MR x NR
//     micro-kernel of FMA accumulators per ISA path. The three logical
//     variants (NN, NT, TN) differ only in how the pack routines read the
//     operands, so all of them share one macro kernel.
//   * Epilogues (bias add, bias+ReLU/sigmoid/tanh, and the SGD step
//     w -= lr * g) are fused into the C-tile writeback, so callers get
//     activated layer outputs, or stepped weights, in a single pass
//     instead of re-sweeping the matrix.
//   * row_norms gives each row's squared norm from the same per-element
//     dot chain, so a row's norm equals its own GEMM diagonal entry.
//   * PackedRows holds an NT product's B operand packed once, for callers
//     that multiply many A blocks against it (gemm_nt_packed).
//
// Dispatch model: the ISA path (scalar, AVX2, AVX-512) is chosen once, at
// first use, from CPU capabilities, and can be pinned with FS_KERNEL=
// scalar|avx2|avx512 for differential testing. Determinism contract: for a
// FIXED path, every kernel accumulates each output element over k in
// ascending order with a fixed blocking scheme, and parallel execution
// (over fs::par, chunked by MC row blocks — never by thread count) assigns
// every output element to exactly one chunk. An N-thread run is therefore
// byte-identical to a 1-thread run on the same path. Different paths
// legitimately differ in low-order bits (FMA vs separate multiply-add,
// vector-lane epilogue order); the scalar path is the golden reference the
// parity suite measures the vector paths against. The AVX2 and AVX-512
// micro-kernels run the same FMA chain per element, so those two paths
// agree with each other. Epilogues add no divergence of their own: the
// GEMM translation units are compiled with -ffp-contract=off, so an
// epilogue's multiply and add stay two rounded operations on every path
// (only the micro-kernels' explicit FMA intrinsics fuse).
//
// Row sweeps and the RBF epilogue have a stronger contract: their bits are
// PATH-independent. Each output element runs the plain scalar loop's own
// operation sequence (one IEEE operation at a time, no fused multiply-add);
// vector lanes only run independent elements side by side. Their
// translation units are therefore compiled with -ffp-contract=off and
// without -mfma, so no path can fuse, and every path returns exactly what
// the scalar loop returns, at any thread count. An SVM decision is thus
// path-dependent only through its GEMM dot products and row norms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/aligned.h"

namespace fs::kern {

// ---------------------------------------------------------------------------
// ISA dispatch
// ---------------------------------------------------------------------------

enum class IsaPath { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Name used in FS_KERNEL, perf_bench output, and test logs.
const char* path_name(IsaPath path);

/// True when the running CPU (and this build) can execute the path.
bool path_supported(IsaPath path);

/// Every supported path, in ascending capability order (always starts with
/// kScalar).
std::vector<IsaPath> supported_paths();

/// The active path. Resolved once on first call: FS_KERNEL if set (an
/// unsupported or unknown value throws std::runtime_error), otherwise the
/// most capable supported path.
IsaPath active_path();

/// The FS_KERNEL override in effect, or "" when the path was auto-detected.
std::string requested_path();

/// Pins the active path (differential testing and kernel_bench only —
/// production code must let FS_KERNEL/auto-detection decide). Throws
/// std::runtime_error if the path is unsupported on this host.
void force_path(IsaPath path);

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

/// Fused epilogue applied to C during tile writeback, after the full k
/// accumulation. Bias is indexed by output column and may be null for kNone
/// and kStep. Sigmoid/tanh call the same libm routines on every path, so
/// the epilogue itself never contributes cross-path divergence.
///
/// kStep makes C the weights of an SGD step whose gradient is the product.
/// Its bits equal "GEMM into a zeroed gradient, then c -= scale * grad":
/// with k > KC the product's block partial sums chain exactly as that
/// accumulation chains them, and the step is taken once, on the finished
/// sum. A step call may not accumulate, and C may not overlap A or B.
enum class Epilogue {
  kNone = 0,
  kBias,         // c += bias[j]
  kBiasRelu,     // c = max(c + bias[j], 0)
  kBiasSigmoid,  // c = 1 / (1 + exp(-(c + bias[j])))
  kBiasTanh,     // c = tanh(c + bias[j])
  kStep,         // c = c - scale * ((A.B)[i][j] + 0.0)
};

/// One GEMM invocation: C (m x n, row-major, leading dimension ldc) gets
/// A.B (+ C when `accumulate`). The transpose flags say how the operand is
/// stored, not what it means: logical A is always m x k and logical B is
/// always k x n; with a_trans the buffer holds A^T (k x m, lda >= m), with
/// b_trans it holds B^T (n x k, ldb >= k).
///
/// Row maps (null: the identity) let a call read B's and read/write C's
/// rows in place out of a larger matrix: stored row r of B sits at row
/// b_rows[r] of `b` (r < n with b_trans, else r < k), and row i of C at
/// row c_rows[i] of `c`, which must ascend strictly. The decoder's sampled
/// output layer runs its forward, input gradient and step this way on the
/// weight rows of the sampled outputs, with no gathered copy. A map only
/// moves where a row is read or written, so the bits are those of the
/// same call on gathered rows.
struct GemmCall {
  std::size_t m = 0, n = 0, k = 0;
  const double* a = nullptr;
  std::size_t lda = 0;
  bool a_trans = false;
  const double* b = nullptr;
  std::size_t ldb = 0;
  bool b_trans = false;
  double* c = nullptr;
  std::size_t ldc = 0;
  bool accumulate = false;
  Epilogue epilogue = Epilogue::kNone;
  const double* bias = nullptr;
  double scale = 0.0;  // kStep's learning rate
  const std::uint32_t* b_rows = nullptr;
  const std::uint32_t* c_rows = nullptr;
};

/// C = A.B (+C): a is m x k (lda), b is k x n (ldb).
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, bool accumulate = false,
             Epilogue epilogue = Epilogue::kNone, const double* bias = nullptr);

/// C = A.B^T (+C): a is m x k (lda), b is n x k (ldb).
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, bool accumulate = false,
             Epilogue epilogue = Epilogue::kNone, const double* bias = nullptr);

/// C = A^T.B (+C): a is k x m (lda), b is k x n (ldb).
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, bool accumulate = false,
             Epilogue epilogue = Epilogue::kNone, const double* bias = nullptr);

/// W -= lr * A^T.B, the SGD step of a dense layer's weight gradient
/// (kStep): a is k x m (lda), b is k x n (ldb), w is m x n (ldw).
void gemm_tn_step(std::size_t m, std::size_t n, std::size_t k,
                  const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* w, std::size_t ldw, double lr);

/// Raw entry point behind the wrappers (kernel_bench and the row-mapped
/// calls use it). Throws std::invalid_argument on a malformed call: a null
/// pointer, a leading dimension shorter than its operand's row (when
/// k > 0), an epilogue without its bias, a c_rows map that does not ascend
/// strictly, or a step call that accumulates or whose C overlaps A or B.
void gemm(const GemmCall& call);

/// The B^T operand of gemm_nt (n stored rows of k, stride ld) packed once
/// into the active path's B panels, for a caller that multiplies many A
/// blocks against the same rows (the SVM's support vectors): a product
/// against it skips the per-call pack, which is about a third of a
/// 64 x 256 x 144 product's time. Packing only copies, so the product has
/// gemm_nt's bits. The panels are laid out for the path active at
/// assign().
class PackedRows {
 public:
  void assign(const double* rows, std::size_t n, std::size_t k,
              std::size_t ld);
  std::size_t rows() const { return n_; }
  /// Whether the panels fit the active path (lock-free; false after
  /// force_path moved it to another path).
  bool on_active_path() const;

 private:
  friend void gemm_nt_packed(std::size_t m, const double* a, std::size_t lda,
                             const PackedRows& b, double* c, std::size_t ldc);
  std::vector<double, util::AlignedAllocator<double>> data_;
  std::size_t n_ = 0, k_ = 0;
  IsaPath path_ = IsaPath::kScalar;
};

/// C = A.B^T for the packed B (C is m x b.rows(), a is m x k): the
/// bits of gemm_nt on the rows b was packed from. Throws
/// std::logic_error unless b.on_active_path().
void gemm_nt_packed(std::size_t m, const double* a, std::size_t lda,
                    const PackedRows& b, double* c, std::size_t ldc);

/// out[r] = sum over c of rows[r][c]^2 for n rows of `dim` (stride ld),
/// accumulated exactly as a GEMM accumulates one output element on the
/// active path: from +0.0, c ascending, FMA on the vector paths, KC blocks
/// chained as the tile writeback chains them. So out[r] is bit for bit the
/// diagonal entry gemm_nt(rows, rows) would hold, and an RBF distance from
/// a row to itself is exactly 0.
void row_norms(const double* rows, std::size_t n, std::size_t dim,
               std::size_t ld, double* out);

// ---------------------------------------------------------------------------
// Sparse-input products
// ---------------------------------------------------------------------------
//
// The autoencoder's bottom layer reads JOC rows, ~1.5 % non-zero. These two
// kernels take such an operand in compressed-sparse-row form and skip its
// zeros, yet return the dense GEMM's bits on the same path: each output
// element accumulates its non-zero products in ascending k inside each
// KC block from an accumulator seeded at +0.0, and chains the block
// partials exactly as the GEMM's tile writeback does. Skipping a zero
// changes nothing, because a sum seeded at +0.0 never becomes -0.0, adding
// a +-0 product to a finite value returns that value, an all-zero block
// adds +0.0, and w - lr * (0 + 0.0) is w. (Non-finite weights are the
// exception: the dense product spreads a NaN through a zero input, the
// sparse one does not.)

/// Compressed sparse rows: row r holds entries [offsets[r], offsets[r + 1])
/// of `index` (its columns, strictly ascending, each < cols) and `values`.
/// Absent entries are zero.
struct CsrView {
  std::size_t rows = 0;
  std::size_t cols = 0;
  const std::uint64_t* offsets = nullptr;  // rows + 1 entries
  const std::uint32_t* index = nullptr;
  const double* values = nullptr;
};

/// C = epilogue(A.W) for sparse A (a.rows x a.cols) and dense W (a.cols x n,
/// ldw): bit for bit gemm_nn on the densified A (and gemm_nt on W stored
/// transposed). Rows fan out over fs::par. kStep is not a forward epilogue.
void sparse_gemm_nn(const CsrView& a, const double* w, std::size_t ldw,
                    std::size_t n, double* c, std::size_t ldc,
                    Epilogue epilogue, const double* bias);

/// W -= lr * A^T.G for sparse A (m x k) and dense G (m x n, ldg), W k x n
/// (ldw): bit for bit gemm_tn_step(k, n, m, densified A, ...), including
/// its block chaining when m > 256. Only the rows of W whose column occurs
/// in A are read or written; the others would step by exactly zero.
void sparse_tn_step(const CsrView& a, const double* g, std::size_t ldg,
                    std::size_t n, double* w, std::size_t ldw, double lr);

// ---------------------------------------------------------------------------
// Row sweeps
// ---------------------------------------------------------------------------

/// Rows per packed group: one AVX-512 register, two AVX2 registers.
inline constexpr std::size_t kRowGroup = 8;

/// Doubles a packed panel of n rows x dim columns occupies (n rounded up
/// to whole groups).
std::size_t packed_rows_size(std::size_t n, std::size_t dim);

/// Packs n row-major rows (stride dim) into groups of kRowGroup rows,
/// column-major inside a group: out[(g * dim + c) * 8 + lane] holds row
/// g * 8 + lane, column c. Tail lanes of the last group are zero. `out`
/// holds packed_rows_size(n, dim) doubles. The panel of rows [8g, n) starts
/// at out + g * 8 * dim, so a sweep can start at any group.
void pack_rows8(const double* rows, std::size_t n, std::size_t dim,
                double* out);

/// out[r] = sum over c of (row_r[c] - q[c])^2 for the first n rows of a
/// packed panel, each accumulated left to right from 0.0 without FMA.
void sq_dist_rows(const double* panel, std::size_t n, std::size_t dim,
                  const double* q, double* out);

/// acc[i] += x[i] for i < n: the k-hop path sum's primitive (phase 2 adds
/// each path edge's presence row into its length slot). Each element is
/// one rounded add, so every path returns the scalar loop's bits. Neither
/// pointer needs any alignment; the two ranges may coincide but must not
/// otherwise overlap.
void accumulate(double* acc, const double* x, std::size_t n);

/// An owning, 64-byte-aligned packed panel. The sweeps run on the calling
/// thread and only read the panel, so any number of workers can share one.
class RowPanel {
 public:
  RowPanel() = default;
  RowPanel(const double* rows, std::size_t n, std::size_t dim);

  /// Repacks the panel from `rows`, reusing its storage when it is large
  /// enough.
  void assign(const double* rows, std::size_t n, std::size_t dim);

  std::size_t rows() const { return rows_; }
  std::size_t dim() const { return dim_; }
  /// The sub-panel of rows [first_row, rows()); first_row must be a
  /// multiple of kRowGroup.
  const double* from_row(std::size_t first_row) const {
    return data_.data() + first_row * dim_;
  }

  void sq_dist(const double* q, double* out) const {
    sq_dist_rows(data_.data(), rows_, dim_, q, out);
  }

 private:
  std::vector<double, util::AlignedAllocator<double>> data_;
  std::size_t rows_ = 0;
  std::size_t dim_ = 0;
};

// ---------------------------------------------------------------------------
// RBF epilogue
// ---------------------------------------------------------------------------

/// out[i] = exp(x[i]) for i < n: fdlibm's range reduction and rational
/// correction (error below 1 ulp), with no fused multiply-add, the same
/// operation sequence on every path. exp(+-0) is exactly 1, a NaN stays
/// NaN, and below the underflow point (x < -745.14) the result is +0.
void exp_values(const double* x, std::size_t n, double* out);

/// An m x n block of RBF terms, from the cross dot products of m queries
/// and n support rows (a GEMM output, row-major, leading dimension ld) and
/// both sides' squared norms (row_norms):
///   term(i, j) = exp(-gamma * max(0, (q_norms[i] + s_norms[j])
///                                    - 2 * dots[i * ld + j]))
/// Every operation rounds on its own, so the terms' bits depend only on
/// the inputs, never on the path.
struct RbfBlock {
  const double* dots = nullptr;
  std::size_t m = 0, n = 0, ld = 0;
  const double* q_norms = nullptr;
  const double* s_norms = nullptr;
  double gamma = 0.0;
};

/// out[i * ldo + j] = term(i, j): the Gram fill. `out` may be `dots`
/// itself (ldo == ld).
void rbf_kernel(const RbfBlock& block, double* out, std::size_t ldo);

/// partials[i * kRowGroup + j % kRowGroup] += weights[j] * term(i, j), j
/// ascending: each query's weighted sum in kRowGroup striped partials
/// (m x kRowGroup, seeded by the caller, +0.0 to start). Blocks of support
/// rows that start at multiples of kRowGroup continue one striping, so a
/// caller can tile the support rows and reduce once with stripe_sum.
void rbf_accumulate(const RbfBlock& block, const double* weights,
                    double* partials);

/// ((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 + p7)): the fixed-order total
/// of one query's kRowGroup striped partials.
double stripe_sum(const double* partials);

}  // namespace fs::kern
