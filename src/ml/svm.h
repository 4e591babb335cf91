// C-SVC with an RBF kernel — the paper's phase-2 classifier C' ("We use
// ... SVM as the classifier C'. We use RBF as the kernel function",
// Sec IV-B).
//
// fit() precomputes the kernel matrix K and runs LIBSVM's C-SVC solver
// without shrinking (Fan, Chen & Lin, JMLR 2005): SMO whose working set is
// the maximal violator i plus the j with the largest second-order gain
// (WSS2), a clipped two-variable update, and a gradient kept from two K
// rows per step. It is deterministic and stops when the KKT gap
// m(α) − M(α) falls below `tolerance`, typically in about n steps on the
// repo's training sets of a thousand-odd rows. A fixed cap of 100·n steps
// (not a knob) keeps the α it reached and marks the fit unconverged in the
// `ml.svm.fit` span and the `ml.svm.unconverged_total` counter.
//
// Every kernel evaluation, in the fit's Gram fill and in the decisions,
// is one kern::gemm_nt (rows x support rows^T, the path's FMA chain)
// followed by kern's RBF epilogue on ‖x‖² + ‖y‖² − 2·x·y, the norms from
// the same dot chain (kern::row_norms). The epilogue's bits do not depend
// on the ISA path, so a model and its decisions are path-dependent only
// through the GEMM dots, as the autoencoder is.
#pragma once

#include <cstdint>
#include <vector>

#include "kern/kern.h"
#include "nn/matrix.h"
#include "util/binary_io.h"
#include "util/runtime.h"

namespace fs::ml {

struct SvmConfig {
  double c = 1.0;            // box constraint
  double gamma = 0.0;        // RBF width; 0 = auto "scale": 1/(dim*var)
  double tolerance = 1e-3;   // stop when the KKT gap m(α) − M(α) < this
  /// Unread: the solver is deterministic. Kept for callers that still set
  /// it.
  std::uint64_t seed = 11;
  /// Hard cap on training rows (kernel matrix memory guard). fit() throws
  /// if exceeded — callers subsample explicitly, never silently.
  std::size_t max_train_rows = 4000;
  /// Optional governance: the kernel matrix is charged against the memory
  /// budget, cancellation is checked every min(n, 1000) solver steps, and
  /// an expired deadline stops the solver there (the current alphas are a
  /// feasible, if less converged, dual). Not serialized.
  fs::runtime::ExecutionContext* context = nullptr;
};

/// The n x n kernel matrix fit() builds, kept between fits so a caller
/// that refits every iteration allocates it once. Its bytes are charged as
/// `ml.svm.kernel` against the context of the fit that sized it, for as
/// long as the workspace holds them.
class SvmWorkspace {
 public:
  /// The kernel shaped n x n. Grows, and re-charges, only past the bytes
  /// already held; a failed charge throws BudgetError and leaves the
  /// kernel empty.
  nn::Matrix& kernel(fs::runtime::ExecutionContext* context, std::size_t n);
  /// The kernel matrix of the last fit in this workspace.
  const nn::Matrix& last_kernel() const { return kernel_; }

 private:
  nn::Matrix kernel_;
  fs::runtime::MemoryCharge charge_;
};

/// Caller-owned scratch for SvmClassifier::decide: one block's cross dots
/// against a tile of support vectors, its query norms and its striped
/// partial sums. Its size is bounded by the block and tile shapes, never
/// by the support-vector count; a caller charges the classifier's
/// scratch_bytes() per worker.
class SvmScratch {
 public:
  /// Query rows decided together, and support vectors per GEMM tile.
  static constexpr std::size_t kBlockRows = 64;
  static constexpr std::size_t kSupportTile = 256;

 private:
  friend class SvmClassifier;
  std::vector<double> dots_;      // kBlockRows x min(kSupportTile, SVs)
  std::vector<double> norms_;     // ‖query‖² per block row
  std::vector<double> partials_;  // kBlockRows x kRowGroup striped sums
};

class SvmClassifier {
 public:
  explicit SvmClassifier(const SvmConfig& config = {});

  /// Trains on (already scaled) features with labels in {0, 1}.
  void fit(const nn::Matrix& features, const std::vector<int>& labels);
  /// The same fit, bit for bit, building the kernel in `workspace`. A
  /// refit reuses the support-vector storage of the previous fit.
  void fit(const nn::Matrix& features, const std::vector<int>& labels,
           SvmWorkspace& workspace);

  /// Signed decision values of `rows` query rows (row-major, dim wide) into
  /// out[0, rows): positive means class 1. The rows go kBlockRows at a
  /// time through one GEMM per kSupportTile support vectors (against the
  /// tile packed at fit or load) and the RBF epilogue, which adds α·y
  /// times each term into eight partial sums
  /// striped by support-vector index; a row's decision is the bias plus
  /// their fixed-order total (kern::stripe_sum). A row's value depends
  /// only on the row, never on its block or on `rows`, and nothing is
  /// allocated once `scratch` has been used. The support tiles and norms
  /// are built on the kernel path active at fit or load; after
  /// kern::force_path moves it, decide throws std::logic_error.
  void decide(const double* queries, std::size_t rows, double* out,
              SvmScratch& scratch) const;
  /// decide() over every query row, blocks fanned out over the pool.
  std::vector<double> decision(const nn::Matrix& queries) const;
  /// Adds `n` to the `ml.svm.decisions_total` counter. The matrix overload
  /// counts its own rows; decide() counts nothing, so a caller deciding
  /// blocks as it builds them reports them here once per pass.
  static void record_decisions(std::size_t n);

  std::size_t support_vector_count() const { return support_.rows(); }
  /// The bytes decide() grows an SvmScratch to with this model.
  std::size_t scratch_bytes() const;

  void save(util::BinaryWriter& writer) const;
  static SvmClassifier load(util::BinaryReader& reader);

  double gamma() const { return gamma_; }
  double bias() const { return bias_; }
  /// alpha_i * y_i per support vector, in training-row order.
  const std::vector<double>& alpha_y() const { return alpha_y_; }
  bool trained() const { return trained_; }

 private:
  /// Rebuilds support_norms_ and support_tiles_ (after fit and load).
  void cache_support();

  SvmConfig config_;
  double gamma_ = 1.0;
  double bias_ = 0.0;
  nn::Matrix support_;              // support vectors (rows)
  std::vector<double> support_norms_;  // ‖support row‖² (derived, not saved)
  // support_ in kSupportTile-row GEMM operands (derived, not saved).
  std::vector<kern::PackedRows> support_tiles_;
  std::vector<double> alpha_y_;     // alpha_i * y_i per support vector
  bool trained_ = false;
};

}  // namespace fs::ml
