#include "ml/svm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "kern/kern.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/par.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace fs::ml {

namespace {

/// Squared row norms of a packed panel, as its squared distances to the
/// origin: each term (x − 0)² is exactly x·x.
std::vector<double> row_squared_norms(const kern::RowPanel& panel) {
  std::vector<double> norms(panel.rows());
  const std::vector<double> origin(panel.dim(), 0.0);
  panel.sq_dist(origin.data(), norms.data());
  return norms;
}

}  // namespace

SvmClassifier::SvmClassifier(const SvmConfig& config) : config_(config) {
  if (config.c <= 0.0)
    throw std::invalid_argument("SvmClassifier: C must be > 0");
}

double SvmClassifier::decide(const double* query, double query_norm,
                             double* dots) const {
  support_panel_.dot(query, dots);
  double f = bias_;
  for (std::size_t s = 0; s < support_.rows(); ++s) {
    const double dist = support_norms_[s] + query_norm - 2.0 * dots[s];
    f += alpha_y_[s] * std::exp(-gamma_ * (dist > 0.0 ? dist : 0.0));
  }
  return f;
}

void SvmClassifier::cache_support_norms() {
  support_panel_.assign(support_.data(), support_.rows(), support_.cols());
  support_norms_ = row_squared_norms(support_panel_);
}

nn::Matrix& SvmWorkspace::kernel(runtime::ExecutionContext* context,
                                 std::size_t n) {
  const std::size_t bytes = n * n * sizeof(double);
  if (bytes > charge_.bytes()) {
    kernel_ = nn::Matrix();
    charge_ = runtime::MemoryCharge();
    charge_ = runtime::MemoryCharge(context, bytes, "ml.svm.kernel");
  }
  kernel_.resize(n, n);
  return kernel_;
}

void SvmClassifier::fit(const nn::Matrix& features,
                        const std::vector<int>& labels) {
  SvmWorkspace workspace;
  fit(features, labels, workspace);
}

void SvmClassifier::fit(const nn::Matrix& features,
                        const std::vector<int>& labels,
                        SvmWorkspace& workspace) {
  const std::size_t n = features.rows();
  if (n != labels.size())
    throw std::invalid_argument("SvmClassifier::fit: size mismatch");
  if (n == 0) throw std::invalid_argument("SvmClassifier::fit: empty set");
  if (n > config_.max_train_rows)
    throw std::invalid_argument(
        "SvmClassifier::fit: training set exceeds max_train_rows; "
        "subsample before fitting");
  trained_ = false;  // until this fit completes
  obs::Span fit_span("ml.svm.fit");
  fit_span.arg("n", static_cast<double>(n));
  const std::size_t dim = features.cols();

  // A single NaN poisons the whole kernel matrix, so the SMO loop would
  // "converge" on garbage; fail loudly instead and let the caller back off.
  if (!std::isfinite(util::failpoint::corrupt("ml.svm.nan", 0.0)))
    throw NumericError("SvmClassifier::fit: injected non-finite feature");
  for (std::size_t i = 0; i < features.size(); ++i)
    if (!std::isfinite(features.data()[i]))
      throw NumericError(
          "SvmClassifier::fit: non-finite feature at flat index " +
          std::to_string(i));

  // Labels to {-1, +1}.
  std::vector<double> y(n);
  bool has_pos = false, has_neg = false;
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = labels[i] != 0 ? 1.0 : -1.0;
    (labels[i] != 0 ? has_pos : has_neg) = true;
  }
  if (!has_pos || !has_neg)
    throw std::invalid_argument("SvmClassifier::fit: need both classes");

  // Gamma "scale": 1 / (dim * mean feature variance). Per-column variances
  // land in disjoint slots; the cross-column sum stays sequential in column
  // order so the float association matches any thread count.
  if (config_.gamma > 0.0) {
    gamma_ = config_.gamma;
  } else {
    std::vector<double> col_var(dim);
    par::ParallelOptions vopts;
    vopts.context = config_.context;
    vopts.what = "ml.svm.gamma";
    vopts.grain = par::grain_for(2 * n);
    vopts.hard_deadline = false;
    par::parallel_for(dim, vopts, [&](std::size_t c) {
      double mean = 0.0, sq = 0.0;
      for (std::size_t r = 0; r < n; ++r) mean += features(r, c);
      mean /= static_cast<double>(n);
      for (std::size_t r = 0; r < n; ++r) {
        const double d = features(r, c) - mean;
        sq += d * d;
      }
      col_var[c] = sq / static_cast<double>(n);
    });
    double mean_var = 0.0;
    for (std::size_t c = 0; c < dim; ++c) mean_var += col_var[c];
    mean_var /= static_cast<double>(dim);
    gamma_ = mean_var > 1e-12 ? 1.0 / (static_cast<double>(dim) * mean_var)
                              : 1.0 / static_cast<double>(dim);
  }

  // Precomputed kernel matrix (symmetric; memory guarded by max_train_rows
  // and charged against the run's memory budget by the workspace). Every
  // entry is written below, so a reused buffer needs no clearing. Cached
  // row norms turn each RBF entry into one dot product; rows fan out over
  // the pool, each sweeping the packed panel from the group that holds row
  // i + 1 to fill the upper triangle, then a mirror pass copies it down.
  // Like the gamma pass, the fill ignores the deadline: a fit always
  // returns a model, and an expired deadline only cuts the solver short.
  nn::Matrix& K = workspace.kernel(config_.context, n);
  kern::RowPanel& panel = workspace.panel();
  panel.assign(features.data(), n, dim);
  const std::vector<double> norms = row_squared_norms(panel);
  par::ParallelOptions kopts;
  kopts.context = config_.context;
  kopts.what = "ml.svm.kernel";
  kopts.grain = par::grain_for(n * dim / 2 + 1);
  kopts.hard_deadline = false;
  par::parallel_for_chunks(n, kopts, [&](const par::ChunkRange& chunk) {
    std::vector<double> dots(n);
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      K(i, i) = 1.0;
      // Lanes of the first group at or below the diagonal are discarded.
      const std::size_t first = (i + 1) / kern::kRowGroup * kern::kRowGroup;
      kern::dot_rows(panel.from_row(first), n - first, dim, features.row(i),
                     dots.data());
      for (std::size_t j = i + 1; j < n; ++j) {
        const double dist = norms[i] + norms[j] - 2.0 * dots[j - first];
        K(i, j) = std::exp(-gamma_ * (dist > 0.0 ? dist : 0.0));
      }
    }
  });
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) K(j, i) = K(i, j);

  // LIBSVM's C-SVC solver without shrinking (Fan, Chen & Lin, JMLR 2005).
  // The dual is min ½αᵀQα − eᵀα over 0 ≤ α ≤ C, yᵀα = 0, with
  // Q_ij = y_i·y_j·K_ij; `grad` is its gradient G = Qα − e. Each step picks
  // the maximal violator i and the second index j by second-order gain
  // (WSS2), solves the two-variable subproblem in closed form and updates G
  // from rows i and j of K. It stops on the KKT gap m(α) − M(α) < tolerance;
  // every intermediate α is feasible, so a stop on the deadline or the step
  // cap still leaves a valid (less converged) model.
  const double C = config_.c;
  constexpr double kTau = 1e-12;  // curvature floor for q ≤ 0 (duplicate rows)
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<double> alpha(n, 0.0);
  std::vector<double> grad(n, -1.0);
  // I_up: α_t can move so that y_t·α_t grows; I_low: so that it shrinks.
  const auto in_up = [&](std::size_t t) {
    return y[t] > 0.0 ? alpha[t] < C : alpha[t] > 0.0;
  };
  const auto in_low = [&](std::size_t t) {
    return y[t] > 0.0 ? alpha[t] > 0.0 : alpha[t] < C;
  };
  // q = K_ii + K_tt − 2K_it (K_ii = K_tt = 1 for RBF) from row i of K.
  const auto curvature = [&](const double* ki, std::size_t t) {
    const double q = 2.0 - 2.0 * ki[t];
    return q > 0.0 ? q : kTau;
  };

  struct WorkingSet {
    std::size_t i = kNone, j = kNone;
    double gap = 0.0;  // m(α) − M(α)
  };
  // Ties go to the later index, as in LIBSVM.
  const auto select = [&] {
    WorkingSet ws;
    double gmax = -std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < n; ++t) {
      if (!in_up(t)) continue;
      const double v = -y[t] * grad[t];
      if (v >= gmax) {
        gmax = v;
        ws.i = t;
      }
    }
    double gmax2 = -std::numeric_limits<double>::infinity();
    double best = std::numeric_limits<double>::infinity();
    const double* ki = ws.i == kNone ? nullptr : K.row(ws.i);
    for (std::size_t t = 0; t < n; ++t) {
      if (!in_low(t)) continue;
      const double v = y[t] * grad[t];
      if (v >= gmax2) gmax2 = v;
      const double b = gmax + v;
      if (b <= 0.0) continue;
      const double gain = -(b * b) / curvature(ki, t);
      if (gain <= best) {
        best = gain;
        ws.j = t;
      }
    }
    ws.gap = gmax + gmax2;
    return ws;
  };

  const double tol = config_.tolerance;
  const std::size_t max_steps = 100 * n;
  const std::size_t probe_every = std::min<std::size_t>(n, 1000);
  std::size_t steps = 0;
  WorkingSet ws = select();
  while (!(ws.gap < tol) && ws.j != kNone && steps < max_steps) {
    if (config_.context != nullptr && steps % probe_every == 0) {
      config_.context->throw_if_cancelled("ml.svm.fit");
      if (config_.context->deadline_expired()) break;
    }
    const std::size_t i = ws.i, j = ws.j;
    const double* ki = K.row(i);
    const double* kj = K.row(j);
    const double old_i = alpha[i], old_j = alpha[j];
    const double q = curvature(ki, j);
    // LIBSVM's clipped two-variable update (box [0, C] on both).
    if (y[i] != y[j]) {
      const double delta = (-grad[i] - grad[j]) / q;
      const double diff = alpha[i] - alpha[j];
      alpha[i] += delta;
      alpha[j] += delta;
      if (diff > 0.0) {
        if (alpha[j] < 0.0) {
          alpha[j] = 0.0;
          alpha[i] = diff;
        }
      } else if (alpha[i] < 0.0) {
        alpha[i] = 0.0;
        alpha[j] = -diff;
      }
      if (diff > 0.0) {
        if (alpha[i] > C) {
          alpha[i] = C;
          alpha[j] = C - diff;
        }
      } else if (alpha[j] > C) {
        alpha[j] = C;
        alpha[i] = C + diff;
      }
    } else {
      const double delta = (grad[i] - grad[j]) / q;
      const double sum = alpha[i] + alpha[j];
      alpha[i] -= delta;
      alpha[j] += delta;
      if (sum > C) {
        if (alpha[i] > C) {
          alpha[i] = C;
          alpha[j] = sum - C;
        }
        if (alpha[j] > C) {
          alpha[j] = C;
          alpha[i] = sum - C;
        }
      } else {
        if (alpha[j] < 0.0) {
          alpha[j] = 0.0;
          alpha[i] = sum;
        }
        if (alpha[i] < 0.0) {
          alpha[i] = 0.0;
          alpha[j] = sum;
        }
      }
    }
    const double step_i = y[i] * (alpha[i] - old_i);
    const double step_j = y[j] * (alpha[j] - old_j);
    for (std::size_t t = 0; t < n; ++t)
      grad[t] += y[t] * (ki[t] * step_i + kj[t] * step_j);
    ++steps;
    ws = select();
  }
  const bool converged = ws.gap < tol;

  // ρ: the mean of y·G over free α; with none free, the midpoint of the
  // bounds the at-bound α put on it.
  double ub = std::numeric_limits<double>::infinity();
  double lb = -std::numeric_limits<double>::infinity();
  double sum_free = 0.0;
  std::size_t free_count = 0, bounded_count = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const double yg = y[t] * grad[t];
    if (alpha[t] >= C) {
      ++bounded_count;
      if (y[t] < 0.0) ub = std::min(ub, yg);
      else lb = std::max(lb, yg);
    } else if (alpha[t] <= 0.0) {
      if (y[t] > 0.0) ub = std::min(ub, yg);
      else lb = std::max(lb, yg);
    } else {
      ++free_count;
      sum_free += yg;
    }
  }
  const double rho = free_count > 0
                         ? sum_free / static_cast<double>(free_count)
                         : (ub + lb) / 2.0;

  // Batched at fit exit: the solver loop stays free of registry lookups.
  obs::metrics()
      .counter("ml.svm.iterations_total", {}, "SMO working-set steps")
      .add(steps);
  obs::metrics()
      .counter("ml.svm.unconverged_total", {},
               "SVM fits stopped before the KKT gap reached tolerance")
      .add(converged ? 0 : 1);

  // Keep only support vectors. Their storage is sized for all n rows, the
  // most a fit can keep, so a refit on a set of the same size reuses it
  // whatever its support-vector count.
  std::vector<std::size_t> sv;
  for (std::size_t i = 0; i < n; ++i)
    if (alpha[i] > 0.0) sv.push_back(i);
  support_.reserve(n * dim);
  support_panel_.reserve(n, dim);
  features.gather_rows_into(sv, support_);
  alpha_y_.resize(sv.size());
  for (std::size_t s = 0; s < sv.size(); ++s)
    alpha_y_[s] = alpha[sv[s]] * y[sv[s]];
  bias_ = -rho;
  fit_span.arg("iterations", static_cast<double>(steps));
  fit_span.arg("gap", ws.gap);
  fit_span.arg("sv", static_cast<double>(sv.size()));
  fit_span.arg("bounded_sv", static_cast<double>(bounded_count));
  fit_span.arg("converged", converged ? 1.0 : 0.0);
  cache_support_norms();
  trained_ = true;
}

double SvmClassifier::decision(const double* query) const {
  if (!trained_) throw std::logic_error("SvmClassifier: predict before fit");
  const kern::RowPanel packed(query, 1, support_.cols());
  std::vector<double> dots(support_.rows());
  return decide(query, row_squared_norms(packed)[0], dots.data());
}

std::vector<double> SvmClassifier::decision(const nn::Matrix& queries) const {
  if (!trained_) throw std::logic_error("SvmClassifier: predict before fit");
  if (queries.cols() != support_.cols())
    throw std::invalid_argument("SvmClassifier: query width mismatch");
  obs::Span span("ml.svm.decision");
  span.arg("rows", static_cast<double>(queries.rows()));
  std::vector<double> out(queries.rows());
  // Full-universe evaluation is the phase-2 hot path: queries fan out over
  // the pool, each sweeping the shared packed support panel. A chunk packs
  // its own queries once for their squared norms.
  par::ParallelOptions popts;
  popts.context = config_.context;
  popts.what = "ml.svm.decision";
  popts.grain = par::grain_for(support_.rows() * support_.cols() + 1);
  par::parallel_for_chunks(
      queries.rows(), popts, [&](const par::ChunkRange& chunk) {
        const kern::RowPanel packed(queries.row(chunk.begin),
                                    chunk.end - chunk.begin, queries.cols());
        const std::vector<double> query_norms = row_squared_norms(packed);
        std::vector<double> dots(support_.rows());
        for (std::size_t r = chunk.begin; r < chunk.end; ++r)
          out[r] = decide(queries.row(r), query_norms[r - chunk.begin],
                          dots.data());
      });
  obs::metrics()
      .counter("ml.svm.decisions_total", {}, "SVM decision-function queries")
      .add(queries.rows());
  return out;
}

std::vector<int> SvmClassifier::predict(const nn::Matrix& queries) const {
  const std::vector<double> d = decision(queries);
  std::vector<int> out(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) out[i] = d[i] > 0.0;
  return out;
}

std::vector<double> SvmClassifier::predict_proba(
    const nn::Matrix& queries) const {
  const std::vector<double> d = decision(queries);
  std::vector<double> out(d.size());
  for (std::size_t i = 0; i < d.size(); ++i)
    out[i] = 1.0 / (1.0 + std::exp(-d[i]));
  return out;
}

void SvmClassifier::save(util::BinaryWriter& writer) const {
  writer.tag("SVM0");
  writer.f64(gamma_);
  writer.f64(bias_);
  writer.u64(support_.rows());
  writer.u64(support_.cols());
  writer.f64_span({support_.data(), support_.size()});
  writer.f64_vector(alpha_y_);
  writer.u64(trained_ ? 1 : 0);
}

SvmClassifier SvmClassifier::load(util::BinaryReader& reader) {
  reader.expect_tag("SVM0");
  SvmClassifier svm;
  svm.gamma_ = reader.f64();
  svm.bias_ = reader.f64();
  const std::size_t rows = reader.u64();
  const std::size_t cols = reader.u64();
  const std::vector<double> flat = reader.f64_vector();
  svm.alpha_y_ = reader.f64_vector();
  if (!util::flat_matches_shape(flat.size(), rows, cols) ||
      svm.alpha_y_.size() != rows)
    throw CorruptCheckpoint("SvmClassifier::load: corrupted record");
  svm.support_ = nn::Matrix(rows, cols);
  std::copy(flat.begin(), flat.end(), svm.support_.data());
  svm.trained_ = reader.u64() != 0;
  svm.cache_support_norms();  // derived, never serialized
  return svm;
}

}  // namespace fs::ml
