#include "ml/svm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "kern/kern.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/par.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/rng.h"

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
  support_panel_ =
      kern::RowPanel(support_.data(), support_.rows(), support_.cols());
  support_norms_ = row_squared_norms(support_panel_);
}

void SvmClassifier::fit(const nn::Matrix& features,
                        const std::vector<int>& labels) {
  const std::size_t n = features.rows();
  if (n != labels.size())
    throw std::invalid_argument("SvmClassifier::fit: size mismatch");
  if (n == 0) throw std::invalid_argument("SvmClassifier::fit: empty set");
  if (n > config_.max_train_rows)
    throw std::invalid_argument(
        "SvmClassifier::fit: training set exceeds max_train_rows; "
        "subsample before fitting");
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
  // and charged against the run's memory budget when governed). Cached row
  // norms turn each RBF entry into one dot product; rows fan out over the
  // pool, each sweeping the packed panel from the group that holds row
  // i + 1 to fill the upper triangle, then a mirror pass copies it down.
  const runtime::MemoryCharge kernel_charge(
      config_.context, n * n * sizeof(double), "ml.svm.kernel");
  const kern::RowPanel panel(features.data(), n, dim);
  const std::vector<double> norms = row_squared_norms(panel);
  nn::Matrix K(n, n);
  par::ParallelOptions kopts;
  kopts.context = config_.context;
  kopts.what = "ml.svm.kernel";
  kopts.grain = par::grain_for(n * dim / 2 + 1);
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

  std::vector<double> alpha(n, 0.0);
  double b = 0.0;
  util::Rng rng(config_.seed);

  // The non-zero alphas in ascending index order, each with alpha·y (exact:
  // y is ±1). Error terms sum this list instead of scanning all n alphas;
  // it is rebuilt after every alpha update.
  struct Term {
    std::size_t j;
    double alpha_y;
  };
  std::vector<Term> terms;
  const auto rebuild_terms = [&] {
    terms.clear();
    for (std::size_t j = 0; j < n; ++j)
      if (alpha[j] != 0.0) terms.push_back({j, alpha[j] * y[j]});
  };
  auto decision_i = [&](std::size_t i) {
    double f = b;
    const double* krow = K.row(i);
    for (const Term& t : terms) f += t.alpha_y * krow[t.j];
    return f;
  };
  // decision_i for rows first..first+count-1 at once: each lane walks its
  // own K row over the same term list, so it repeats decision_i's sum for
  // that row exactly; the eight lanes only make independent sums run side
  // by side. A short tail block (count < 8) falls back to decision_i.
  constexpr std::size_t kLanes = 8;
  const auto decision_block = [&](std::size_t first, std::size_t count,
                                  double* f) {
    if (count < kLanes) {
      for (std::size_t l = 0; l < count; ++l) f[l] = decision_i(first + l);
      return;
    }
    const double* k0 = K.row(first);
    double f0 = b, f1 = b, f2 = b, f3 = b, f4 = b, f5 = b, f6 = b, f7 = b;
    for (const Term& t : terms) {
      const double* kc = k0 + t.j;  // column j of rows first..first+7
      const double a = t.alpha_y;
      f0 += a * kc[0];
      f1 += a * kc[n];
      f2 += a * kc[2 * n];
      f3 += a * kc[3 * n];
      f4 += a * kc[4 * n];
      f5 += a * kc[5 * n];
      f6 += a * kc[6 * n];
      f7 += a * kc[7 * n];
    }
    const double lanes[kLanes] = {f0, f1, f2, f3, f4, f5, f6, f7};
    std::copy(lanes, lanes + kLanes, f);
  };

  const double C = config_.c;
  const double tol = config_.tolerance;
  int passes = 0;
  int iterations = 0;
  std::size_t total_alpha_updates = 0;
  std::size_t total_sweeps = 0;
  while (passes < config_.max_passes &&
         iterations++ < config_.max_iterations) {
    if (config_.context != nullptr) {
      config_.context->throw_if_cancelled("ml.svm.fit");
      // Past the deadline the current alphas are kept: SMO's intermediate
      // state is a feasible (just less converged) dual solution.
      if (config_.context->deadline_expired()) break;
    }
    obs::Span pass_span("ml.svm.pass");
    int changed = 0;
    // Error terms of rows [spec_begin, spec_end), computed ahead by
    // decision_block; valid until the next alpha/b update.
    double spec[kLanes];
    std::size_t spec_begin = 0, spec_end = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i >= spec_end) {
        spec_begin = i;
        spec_end = std::min(i + kLanes, n);
        decision_block(i, spec_end - i, spec);
      }
      const double e_i = spec[i - spec_begin] - y[i];
      const bool violates = (y[i] * e_i < -tol && alpha[i] < C) ||
                            (y[i] * e_i > tol && alpha[i] > 0.0);
      if (!violates) continue;

      std::size_t j = rng.index(n - 1);
      if (j >= i) ++j;  // j != i, uniform over the rest
      const double e_j = decision_i(j) - y[j];

      const double alpha_i_old = alpha[i];
      const double alpha_j_old = alpha[j];

      double lo, hi;
      if (y[i] != y[j]) {
        lo = std::max(0.0, alpha[j] - alpha[i]);
        hi = std::min(C, C + alpha[j] - alpha[i]);
      } else {
        lo = std::max(0.0, alpha[i] + alpha[j] - C);
        hi = std::min(C, alpha[i] + alpha[j]);
      }
      if (lo >= hi) continue;

      const double eta = 2.0 * K(i, j) - K(i, i) - K(j, j);
      if (eta >= 0.0) continue;

      double alpha_j_new = alpha_j_old - y[j] * (e_i - e_j) / eta;
      alpha_j_new = std::clamp(alpha_j_new, lo, hi);
      if (std::abs(alpha_j_new - alpha_j_old) < 1e-5) continue;

      const double alpha_i_new =
          alpha_i_old + y[i] * y[j] * (alpha_j_old - alpha_j_new);
      alpha[i] = alpha_i_new;
      alpha[j] = alpha_j_new;

      const double b1 = b - e_i - y[i] * (alpha_i_new - alpha_i_old) * K(i, i) -
                        y[j] * (alpha_j_new - alpha_j_old) * K(i, j);
      const double b2 = b - e_j - y[i] * (alpha_i_new - alpha_i_old) * K(i, j) -
                        y[j] * (alpha_j_new - alpha_j_old) * K(j, j);
      if (alpha_i_new > 0.0 && alpha_i_new < C) b = b1;
      else if (alpha_j_new > 0.0 && alpha_j_new < C) b = b2;
      else b = (b1 + b2) / 2.0;
      rebuild_terms();
      spec_end = i + 1;  // later rows must see the new alphas and b

      ++changed;
    }
    passes = changed == 0 ? passes + 1 : 0;
    pass_span.arg("changed", static_cast<double>(changed));
    total_alpha_updates += static_cast<std::size_t>(changed);
    ++total_sweeps;
  }
  // Batched at fit exit: the sweep loop stays free of registry lookups.
  obs::metrics()
      .counter("ml.svm.passes_total", {}, "SMO sweeps over the training set")
      .add(total_sweeps);
  obs::metrics()
      .counter("ml.svm.alpha_updates_total", {},
               "SMO alpha-pair updates applied")
      .add(total_alpha_updates);

  // Keep only support vectors.
  std::vector<std::size_t> sv;
  for (std::size_t i = 0; i < n; ++i)
    if (alpha[i] > 1e-8) sv.push_back(i);
  support_ = features.gather_rows(sv);
  alpha_y_.resize(sv.size());
  for (std::size_t s = 0; s < sv.size(); ++s)
    alpha_y_[s] = alpha[sv[s]] * y[sv[s]];
  bias_ = b;
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
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double z =
        calibrated_ ? -(platt_a_ * d[i] + platt_b_) : d[i];
    out[i] = 1.0 / (1.0 + std::exp(-z));
  }
  return out;
}

void SvmClassifier::calibrate(const nn::Matrix& features,
                              const std::vector<int>& labels) {
  const std::vector<double> f = decision(features);
  if (f.size() != labels.size())
    throw std::invalid_argument("SvmClassifier::calibrate: size mismatch");
  const std::size_t n = f.size();

  // Target probabilities with Platt's smoothing priors.
  std::size_t n_pos = 0;
  for (int y : labels) n_pos += (y != 0);
  const std::size_t n_neg = n - n_pos;
  if (n_pos == 0 || n_neg == 0)
    throw std::invalid_argument(
        "SvmClassifier::calibrate: need both classes");
  const double hi = (static_cast<double>(n_pos) + 1.0) /
                    (static_cast<double>(n_pos) + 2.0);
  const double lo = 1.0 / (static_cast<double>(n_neg) + 2.0);
  std::vector<double> target(n);
  for (std::size_t i = 0; i < n; ++i) target[i] = labels[i] ? hi : lo;

  // Newton iterations on the two-parameter cross-entropy (Lin et al. '07).
  double a = 0.0;
  double b = std::log((static_cast<double>(n_neg) + 1.0) /
                      (static_cast<double>(n_pos) + 1.0));
  const double sigma = 1e-12;  // Hessian ridge
  for (int iter = 0; iter < 100; ++iter) {
    double g_a = 0.0, g_b = 0.0, h_aa = sigma, h_ab = 0.0, h_bb = sigma;
    for (std::size_t i = 0; i < n; ++i) {
      const double z = a * f[i] + b;
      double p, q;  // p = P(y=1), q = 1 - p, computed stably
      if (z >= 0) {
        const double e = std::exp(-z);
        p = e / (1.0 + e);
        q = 1.0 / (1.0 + e);
      } else {
        const double e = std::exp(z);
        p = 1.0 / (1.0 + e);
        q = e / (1.0 + e);
      }
      const double d1 = target[i] - p;
      g_a += f[i] * d1;
      g_b += d1;
      const double d2 = p * q;
      h_aa += f[i] * f[i] * d2;
      h_ab += f[i] * d2;
      h_bb += d2;
    }
    if (std::abs(g_a) < 1e-8 && std::abs(g_b) < 1e-8) break;
    // g = gradient of the NEGATIVE log-likelihood wrt (a, b); h is its
    // (ridged) Hessian. Newton step: (a, b) -= H^{-1} g.
    const double det = h_aa * h_bb - h_ab * h_ab;
    const double da = (h_bb * g_a - h_ab * g_b) / det;
    const double db = (h_aa * g_b - h_ab * g_a) / det;
    a -= da;
    b -= db;
    if (std::abs(da) < 1e-10 && std::abs(db) < 1e-10) break;
  }
  platt_a_ = a;
  platt_b_ = b;
  calibrated_ = true;
}

void SvmClassifier::save(util::BinaryWriter& writer) const {
  writer.tag("SVM0");
  writer.f64(gamma_);
  writer.f64(bias_);
  writer.u64(support_.rows());
  writer.u64(support_.cols());
  writer.f64_vector(std::vector<double>(
      support_.data(), support_.data() + support_.size()));
  writer.f64_vector(alpha_y_);
  writer.u64(trained_ ? 1 : 0);
  writer.u64(calibrated_ ? 1 : 0);
  writer.f64(platt_a_);
  writer.f64(platt_b_);
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
  if (flat.size() != rows * cols || svm.alpha_y_.size() != rows)
    throw std::runtime_error("SvmClassifier::load: corrupted record");
  svm.support_ = nn::Matrix(rows, cols);
  std::copy(flat.begin(), flat.end(), svm.support_.data());
  svm.trained_ = reader.u64() != 0;
  svm.calibrated_ = reader.u64() != 0;
  svm.platt_a_ = reader.f64();
  svm.platt_b_ = reader.f64();
  svm.cache_support_norms();  // derived, never serialized
  return svm;
}

}  // namespace fs::ml
