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

/// The buffers fit() builds its kernel in — the n x n kernel matrix and
/// the packed training rows — kept between fits so a caller that refits
/// every iteration allocates them once. The kernel's bytes are charged as
/// `ml.svm.kernel` against the context of the fit that sized it, for as
/// long as the workspace holds them.
class SvmWorkspace {
 public:
  /// The kernel shaped n x n. Grows, and re-charges, only past the bytes
  /// already held; a failed charge throws BudgetError and leaves the
  /// kernel empty.
  nn::Matrix& kernel(fs::runtime::ExecutionContext* context, std::size_t n);
  kern::RowPanel& panel() { return panel_; }

 private:
  nn::Matrix kernel_;
  fs::runtime::MemoryCharge charge_;
  kern::RowPanel panel_;
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

  /// Signed decision value: positive means class 1.
  double decision(const double* query) const;
  std::vector<double> decision(const nn::Matrix& queries) const;

  std::vector<int> predict(const nn::Matrix& queries) const;

  /// Probability-like score via a logistic squashing of the decision value.
  std::vector<double> predict_proba(const nn::Matrix& queries) const;

  std::size_t support_vector_count() const { return support_.rows(); }

  void save(util::BinaryWriter& writer) const;
  static SvmClassifier load(util::BinaryReader& reader);

  double gamma() const { return gamma_; }
  double bias() const { return bias_; }
  /// alpha_i * y_i per support vector, in training-row order.
  const std::vector<double>& alpha_y() const { return alpha_y_; }
  bool trained() const { return trained_; }

 private:
  /// Decision value of one query with precomputed squared norm; `dots`
  /// is scratch for support_vector_count() dot products. Each RBF term
  /// uses ‖x−y‖² = ‖x‖² + ‖y‖² − 2·x·y, clamped at 0 (the expansion can
  /// go epsilon-negative where the direct difference cannot), and the
  /// terms add up in support-vector order.
  double decide(const double* query, double query_norm, double* dots) const;
  /// Packs support_ and rebuilds support_norms_ (after fit and load).
  void cache_support_norms();

  SvmConfig config_;
  double gamma_ = 1.0;
  double bias_ = 0.0;
  nn::Matrix support_;              // support vectors (rows)
  kern::RowPanel support_panel_;    // support_ packed (derived, not saved)
  std::vector<double> support_norms_;  // ‖support row‖² (derived, not saved)
  std::vector<double> alpha_y_;     // alpha_i * y_i per support vector
  bool trained_ = false;
};

}  // namespace fs::ml
