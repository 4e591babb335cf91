#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ml/knn.h"
#include "ml/metrics.h"
#include "ml/scaler.h"
#include "ml/split.h"
#include "ml/svm.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/pool.h"
#include "util/binary_io.h"
#include "util/fnv.h"
#include "util/runtime.h"
#include "util/rng.h"

namespace fs::ml {
namespace {

// ---------- metrics ----------

TEST(Metrics, ConfusionCounts) {
  const Confusion c = confusion({1, 1, 0, 0, 1}, {1, 0, 0, 1, 1});
  EXPECT_EQ(c.tp, 2u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.tn, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.total(), 5u);
  EXPECT_THROW(confusion({1}, {1, 0}), std::invalid_argument);
}

TEST(Metrics, PrfValues) {
  const Prf p = prf({1, 1, 0, 0, 1}, {1, 0, 0, 1, 1});
  EXPECT_DOUBLE_EQ(p.precision, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.recall, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.f1, 2.0 / 3.0);
}

TEST(Metrics, PrfDegenerateCases) {
  // No predicted positives.
  const Prf none = prf({1, 0}, {0, 0});
  EXPECT_DOUBLE_EQ(none.precision, 0.0);
  EXPECT_DOUBLE_EQ(none.f1, 0.0);
  // No actual positives.
  const Prf no_pos = prf({0, 0}, {1, 0});
  EXPECT_DOUBLE_EQ(no_pos.recall, 0.0);
  // Perfect.
  const Prf perfect = prf({1, 0, 1}, {1, 0, 1});
  EXPECT_DOUBLE_EQ(perfect.f1, 1.0);
}

TEST(Metrics, Accuracy) {
  EXPECT_DOUBLE_EQ(accuracy(confusion({1, 0, 1, 0}, {1, 0, 0, 0})), 0.75);
  EXPECT_DOUBLE_EQ(accuracy(Confusion{}), 0.0);
}

TEST(Metrics, Threshold) {
  EXPECT_EQ(threshold({0.2, 0.5, 0.9}, 0.5), (std::vector<int>{0, 1, 1}));
}

TEST(Metrics, TuneF1ThresholdFindsSeparator) {
  // Scores: positives at 0.8/0.9, negatives at 0.1/0.2 -> any cut in
  // (0.2, 0.8] gives F1 = 1; the tuner must find one.
  const TunedThreshold tuned =
      tune_f1_threshold({0.1, 0.8, 0.2, 0.9}, {0, 1, 0, 1});
  EXPECT_GT(tuned.threshold, 0.2);
  EXPECT_LE(tuned.threshold, 0.8);
  EXPECT_DOUBLE_EQ(tuned.train_f1, 1.0);
}

TEST(Metrics, TuneF1ThresholdOverlappingScores) {
  // Interleaved: best cut trades precision for recall.
  const std::vector<double> scores{0.1, 0.3, 0.35, 0.4, 0.7, 0.9};
  const std::vector<int> labels{0, 1, 0, 1, 1, 1};
  const TunedThreshold tuned = tune_f1_threshold(scores, labels);
  // Verify the reported F1 is actually achieved.
  std::vector<int> pred(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i)
    pred[i] = scores[i] >= tuned.threshold;
  EXPECT_NEAR(prf(labels, pred).f1, tuned.train_f1, 1e-12);
  // And that it is optimal among all candidate cuts.
  for (double cut : scores) {
    std::vector<int> p(scores.size());
    for (std::size_t i = 0; i < scores.size(); ++i)
      p[i] = scores[i] >= cut;
    EXPECT_LE(prf(labels, p).f1, tuned.train_f1 + 1e-12);
  }
}

TEST(Metrics, TuneF1ThresholdValidation) {
  EXPECT_THROW(tune_f1_threshold({}, {}), std::invalid_argument);
  EXPECT_THROW(tune_f1_threshold({0.5}, {1, 0}), std::invalid_argument);
}

// ---------- scaler ----------

TEST(Scaler, StandardizesColumns) {
  StandardScaler scaler;
  const nn::Matrix x = nn::Matrix::from_rows({{1, 10}, {3, 30}, {5, 50}});
  const nn::Matrix z = scaler.fit_transform(x);
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (std::size_t r = 0; r < 3; ++r) mean += z(r, c);
    mean /= 3;
    for (std::size_t r = 0; r < 3; ++r) var += (z(r, c) - mean) * (z(r, c) - mean);
    var /= 3;
    EXPECT_NEAR(mean, 0.0, 1e-12);
    EXPECT_NEAR(var, 1.0, 1e-12);
  }
}

TEST(Scaler, ConstantColumnsBecomeZero) {
  StandardScaler scaler;
  const nn::Matrix x = nn::Matrix::from_rows({{7, 1}, {7, 2}});
  const nn::Matrix z = scaler.fit_transform(x);
  EXPECT_DOUBLE_EQ(z(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(z(1, 0), 0.0);
}

TEST(Scaler, TransformBeforeFitThrows) {
  StandardScaler scaler;
  const nn::Matrix x(1, 2);
  EXPECT_THROW(scaler.transform(x), std::logic_error);
  StandardScaler fitted;
  fitted.fit(nn::Matrix(2, 3));
  EXPECT_THROW(fitted.transform(nn::Matrix(2, 4)), std::invalid_argument);
}

TEST(Scaler, TransformInPlaceMatchesTransformBitForBit) {
  util::Rng rng(17);
  nn::Matrix x(40, 7);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = rng.normal(3.0, 5.0);
  StandardScaler scaler;
  scaler.fit(x.gather_rows({1, 4, 9, 16, 25, 36}));
  const nn::Matrix copied = scaler.transform(x);
  nn::Matrix in_place = x;
  scaler.transform_in_place(in_place);
  ASSERT_EQ(in_place.size(), copied.size());
  EXPECT_EQ(0, std::memcmp(in_place.data(), copied.data(),
                           copied.size() * sizeof(double)));
  nn::Matrix wrong(2, 6);
  EXPECT_THROW(scaler.transform_in_place(wrong), std::invalid_argument);
}

TEST(Scaler, TransformRowMatchesTransformInPlaceBitForBit) {
  // Phase 2 scales each composite row as it is built; every row must come
  // out exactly as the whole-matrix transform leaves it.
  util::Rng rng(29);
  nn::Matrix x(33, 144);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = rng.normal(-1.0, 4.0) * (i % 5 == 0 ? 1e-3 : 1.0);
  for (std::size_t r = 0; r < x.rows(); ++r) x(r, 7) = 2.5;  // constant
  StandardScaler scaler;
  scaler.fit(x.gather_rows({0, 3, 8, 13, 21, 32}));
  nn::Matrix in_place = x;
  scaler.transform_in_place(in_place);
  std::vector<double> row(x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    std::copy(x.row(r), x.row(r) + x.cols(), row.begin());
    scaler.transform_row(row);
    EXPECT_EQ(0, std::memcmp(row.data(), in_place.row(r),
                             row.size() * sizeof(double)))
        << "row " << r;
  }
  row.resize(x.cols() - 1);
  EXPECT_THROW(scaler.transform_row(row), std::invalid_argument);
  EXPECT_THROW(StandardScaler().transform_row(row), std::logic_error);
}

// ---------- KNN ----------

void blobs_2d(nn::Matrix& x, std::vector<int>& y, std::size_t n,
              util::Rng& rng, double separation = 3.0) {
  x = nn::Matrix(n, 2);
  y.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 2);
    const double cx = y[i] ? separation : 0.0;
    x(i, 0) = cx + rng.normal(0.0, 0.5);
    x(i, 1) = rng.normal(0.0, 0.5);
  }
}

TEST(Knn, ClassifiesSeparatedBlobs) {
  util::Rng rng(61);
  nn::Matrix train_x, test_x;
  std::vector<int> train_y, test_y;
  blobs_2d(train_x, train_y, 100, rng);
  blobs_2d(test_x, test_y, 50, rng);
  KnnClassifier knn(5);
  knn.fit(train_x, train_y);
  const auto pred = knn.predict(test_x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    correct += pred[i] == test_y[i];
  EXPECT_GT(correct, 47u);
}

TEST(Knn, ExactNeighborProbability) {
  // Query sits next to 2 positives and 1 negative with k = 3.
  const nn::Matrix train = nn::Matrix::from_rows(
      {{0.0}, {0.1}, {0.2}, {10.0}, {11.0}});
  KnnClassifier knn(3);
  knn.fit(train, {1, 1, 0, 0, 0});
  const nn::Matrix query = nn::Matrix::from_rows({{0.05}});
  EXPECT_NEAR(knn.predict_proba(query)[0], 2.0 / 3.0, 1e-12);
}

TEST(Knn, KLargerThanTrainSetUsesAll) {
  const nn::Matrix train = nn::Matrix::from_rows({{0.0}, {1.0}});
  KnnClassifier knn(10);
  knn.fit(train, {1, 0});
  const nn::Matrix query = nn::Matrix::from_rows({{0.5}});
  EXPECT_NEAR(knn.predict_proba(query)[0], 0.5, 1e-12);
}

TEST(Knn, TiesResolveByTrainingOrder) {
  // k = 4 with the query at 0: row 0 is the nearest, then seven rows at
  // distance 1 whose labels alternate, starting in one 8-row group and
  // ending past a distance block. Which three of them fill slots 2..4
  // decides the answer: the earliest three (labels 0, 1, 0) give 1/4, any
  // other choice gives 2/4 or 3/4. The far rows pad the reference set so
  // the ties cross group and block boundaries.
  const std::size_t n = 700;
  const std::size_t tied[] = {6, 7, 8, 300, 301, 512, 699};
  nn::Matrix train(n, 3);
  std::vector<int> labels(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    train(i, 0) = 50.0 + static_cast<double>(i);
    train(i, 1) = -3.0;
    train(i, 2) = 0.25;
  }
  train(0, 0) = 0.0;
  train(0, 1) = 0.0;
  train(0, 2) = 0.0;
  labels[0] = 0;
  for (std::size_t t = 0; t < std::size(tied); ++t) {
    train(tied[t], 0) = 0.0;
    train(tied[t], 1) = t % 2 == 0 ? 1.0 : -1.0;  // same distance either way
    train(tied[t], 2) = 0.0;
    labels[tied[t]] = static_cast<int>(t % 2);
  }
  const double query[3] = {0.0, 0.0, 0.0};
  KnnClassifier knn(4);
  knn.fit(train, labels);
  EXPECT_DOUBLE_EQ(knn.predict_proba(query), 0.25);
  const nn::Matrix queries = nn::Matrix::from_rows({{0.0, 0.0, 0.0}});
  EXPECT_DOUBLE_EQ(knn.predict_proba(queries)[0], 0.25);

  // Flipping the tied labels flips the answer: the earliest three now
  // carry labels 1, 0, 1.
  for (std::size_t t = 0; t < std::size(tied); ++t)
    labels[tied[t]] = static_cast<int>(1 - t % 2);
  KnnClassifier flipped(4);
  flipped.fit(train, labels);
  EXPECT_DOUBLE_EQ(flipped.predict_proba(query), 0.5);
}

TEST(Knn, Validation) {
  EXPECT_THROW(KnnClassifier(0), std::invalid_argument);
  KnnClassifier knn(3);
  EXPECT_THROW(knn.fit(nn::Matrix(2, 2), {1}), std::invalid_argument);
  EXPECT_THROW(knn.predict(nn::Matrix(1, 2)), std::logic_error);
}

// ---------- SVM ----------

TEST(Svm, LinearlySeparableBlobs) {
  util::Rng rng(67);
  nn::Matrix train_x, test_x;
  std::vector<int> train_y, test_y;
  blobs_2d(train_x, train_y, 120, rng);
  blobs_2d(test_x, test_y, 60, rng);
  SvmClassifier svm;
  svm.fit(train_x, train_y);
  const auto d = svm.decision(test_x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i)
    correct += (d[i] > 0.0 ? 1 : 0) == test_y[i];
  EXPECT_GT(correct, 56u);
  EXPECT_GT(svm.support_vector_count(), 0u);
}

TEST(Svm, RbfSolvesXor) {
  // XOR is not linearly separable; the RBF kernel must handle it.
  util::Rng rng(71);
  nn::Matrix x(200, 2);
  std::vector<int> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    const int qx = static_cast<int>(rng.chance(0.5));
    const int qy = static_cast<int>(rng.chance(0.5));
    x(i, 0) = qx * 2.0 - 1.0 + rng.normal(0.0, 0.2);
    x(i, 1) = qy * 2.0 - 1.0 + rng.normal(0.0, 0.2);
    y[i] = qx ^ qy;
  }
  SvmConfig cfg;
  cfg.c = 5.0;
  SvmClassifier svm(cfg);
  svm.fit(x, y);
  const auto d = svm.decision(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i)
    correct += (d[i] > 0.0 ? 1 : 0) == y[i];
  EXPECT_GT(correct, 185u);
}

TEST(Svm, DecisionSignMatchesSingleQueries) {
  // The class of a row is its decision's sign; the batch and the
  // one-query paths must agree on it for every row.
  util::Rng rng(73);
  nn::Matrix x;
  std::vector<int> y;
  blobs_2d(x, y, 60, rng);
  SvmClassifier svm;
  svm.fit(x, y);
  const auto decisions = svm.decision(x);
  ASSERT_EQ(decisions.size(), x.rows());
  std::vector<double> dots(svm.support_vector_count());
  for (std::size_t i = 0; i < decisions.size(); ++i)
    EXPECT_EQ(svm.decision({x.row(i), x.cols()}, dots) > 0.0,
              decisions[i] > 0.0)
        << i;
}

TEST(Svm, DecisionRanksClassOneAboveClassZero) {
  util::Rng rng(79);
  nn::Matrix x;
  std::vector<int> y;
  blobs_2d(x, y, 60, rng);
  SvmClassifier svm;
  svm.fit(x, y);
  const auto decisions = svm.decision(x);
  double sum[2] = {0.0, 0.0};
  std::size_t count[2] = {0, 0};
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    ASSERT_TRUE(std::isfinite(decisions[i])) << i;
    sum[y[i]] += decisions[i];
    ++count[y[i]];
  }
  ASSERT_GT(count[0], 0u);
  ASSERT_GT(count[1], 0u);
  EXPECT_GT(sum[1] / count[1], 0.0);
  EXPECT_LT(sum[0] / count[0], 0.0);
}

TEST(Svm, Validation) {
  SvmClassifier svm;
  EXPECT_THROW(svm.fit(nn::Matrix(2, 2), {1}), std::invalid_argument);
  EXPECT_THROW(svm.fit(nn::Matrix(2, 2), {1, 1}), std::invalid_argument);
  EXPECT_THROW(svm.decision(nn::Matrix(1, 2)), std::logic_error);
  SvmConfig tiny_cap;
  tiny_cap.max_train_rows = 4;
  SvmClassifier capped(tiny_cap);
  EXPECT_THROW(capped.fit(nn::Matrix(5, 2), {0, 1, 0, 1, 0}),
               std::invalid_argument);
  SvmConfig bad_c;
  bad_c.c = 0.0;
  EXPECT_THROW(SvmClassifier{bad_c}, std::invalid_argument);
}

TEST(Svm, GammaAutoIsPositive) {
  util::Rng rng(83);
  nn::Matrix x;
  std::vector<int> y;
  blobs_2d(x, y, 40, rng);
  SvmClassifier svm;
  svm.fit(x, y);
  EXPECT_GT(svm.gamma(), 0.0);
}

TEST(Svm, TwoPointProblemMatchesClosedForm) {
  // One point per class: the dual maximises 2α − α²(1 − K₁₂), so
  // α = min(C, 1/(1 − K₁₂)), and by symmetry the bias is 0.
  nn::Matrix x(2, 2);
  x(1, 0) = 1.0;  // squared distance 1
  const double k12 = std::exp(-0.5);
  for (const double c : {10.0, 1.0}) {  // alpha free, then at the bound
    SvmConfig cfg;
    cfg.gamma = 0.5;
    cfg.c = c;
    SvmClassifier svm(cfg);
    svm.fit(x, {1, 0});
    const double alpha = std::min(c, 1.0 / (1.0 - k12));
    ASSERT_EQ(svm.alpha_y().size(), 2u) << "C=" << c;
    EXPECT_NEAR(svm.alpha_y()[0], alpha, 1e-12) << "C=" << c;
    EXPECT_NEAR(svm.alpha_y()[1], -alpha, 1e-12) << "C=" << c;
    EXPECT_NEAR(svm.bias(), 0.0, 1e-12) << "C=" << c;
  }
}

TEST(Svm, DuplicateRowsWithOppositeLabelsStayFinite) {
  // Rows 0/1 and 2/3 are identical with opposite labels: their curvature
  // q = K_ii + K_jj − 2K_ij is 0, so the solver takes the τ floor.
  nn::Matrix x(6, 2);
  const double rows[6][2] = {{0, 0}, {0, 0}, {1, 1}, {1, 1}, {2, 0}, {0, 2}};
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t c = 0; c < 2; ++c) x(i, c) = rows[i][c];
  SvmClassifier svm;
  svm.fit(x, {1, 0, 1, 0, 1, 0});
  EXPECT_TRUE(std::isfinite(svm.bias()));
  for (double a : svm.alpha_y()) {
    EXPECT_TRUE(std::isfinite(a));
    EXPECT_LE(std::abs(a), 1.0);
  }
  for (double d : svm.decision(x)) EXPECT_TRUE(std::isfinite(d));
}

/// The args of the last `ml.svm.fit` span recorded while fitting `svm`.
std::map<std::string, double> traced_fit_args(SvmClassifier& svm,
                                              const nn::Matrix& x,
                                              const std::vector<int>& y) {
  obs::tracer().clear();
  obs::tracer().enable();
  svm.fit(x, y);
  obs::tracer().disable();
  std::map<std::string, double> args;
  for (const obs::TraceEvent& e : obs::tracer().events())
    if (e.name == "ml.svm.fit") args = {e.args.begin(), e.args.end()};
  obs::tracer().clear();
  return args;
}

TEST(Svm, SolutionIsFeasibleAndConverged) {
  util::Rng rng(89);
  nn::Matrix x;
  std::vector<int> y;
  blobs_2d(x, y, 150, rng);
  for (std::size_t i = 0; i < y.size(); i += 7) y[i] ^= 1;  // label noise
  SvmConfig cfg;
  cfg.c = 2.0;
  SvmClassifier svm(cfg);
  const auto args = traced_fit_args(svm, x, y);
  double sum = 0.0;
  for (double a : svm.alpha_y()) {
    sum += a;
    EXPECT_LE(std::abs(a), cfg.c);
  }
  EXPECT_LE(std::abs(sum), 1e-9);
  ASSERT_TRUE(args.count("gap"));
  EXPECT_LE(args.at("gap"), cfg.tolerance);
  EXPECT_EQ(args.at("converged"), 1.0);
}

TEST(Svm, FitSpanAndCountersReportTheSolve) {
  util::Rng rng(97);
  nn::Matrix x;
  std::vector<int> y;
  blobs_2d(x, y, 40, rng);
  for (std::size_t i = 0; i < y.size(); i += 5) y[i] ^= 1;  // some at C
  obs::Counter& steps = obs::metrics().counter("ml.svm.iterations_total");
  obs::Counter& unconverged =
      obs::metrics().counter("ml.svm.unconverged_total");
  const std::uint64_t steps_before = steps.value();
  const std::uint64_t unconverged_before = unconverged.value();
  SvmClassifier svm;
  const auto args = traced_fit_args(svm, x, y);
  for (const char* key :
       {"n", "iterations", "gap", "sv", "bounded_sv", "converged"})
    EXPECT_TRUE(args.count(key)) << key;
  EXPECT_EQ(args.at("n"), 40.0);
  EXPECT_EQ(args.at("sv"), static_cast<double>(svm.support_vector_count()));
  std::size_t at_bound = 0;
  for (double a : svm.alpha_y()) at_bound += std::abs(a) >= 1.0;
  EXPECT_GT(at_bound, 0u);
  EXPECT_EQ(args.at("bounded_sv"), static_cast<double>(at_bound));
  EXPECT_EQ(args.at("converged"), 1.0);
  EXPECT_GT(args.at("iterations"), 0.0);
  EXPECT_EQ(steps.value() - steps_before,
            static_cast<std::uint64_t>(args.at("iterations")));
  EXPECT_EQ(unconverged.value(), unconverged_before);
}

std::uint64_t fnv1a(std::string_view bytes) {
  util::Fnv1a hash;
  hash.text(bytes);
  return hash.value();
}

std::uint64_t fnv1a(const std::vector<double>& values) {
  util::Fnv1a hash;
  for (const double v : values) hash.f64(v);
  return hash.value();
}

TEST(Svm, FitAndDecisionBytesArePinned) {
  // A fixed seeded 300 x 24 training set with a non-linear, noisy label
  // and 170 held-out queries. The digests pin the trained model (save()
  // bytes: gamma, bias, support vectors, alpha*y) and the decision values
  // bit for bit; they must hold on every kernel path and thread count.
  util::Rng rng(300024);
  const std::size_t n = 300, dim = 24, q = 170;
  nn::Matrix x(n, dim), queries(q, dim);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double score = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
      x(i, c) = rng.normal(0.0, c % 3 == 0 ? 2.0 : 0.5);
      score += (c % 2 == 0 ? 1.0 : -1.0) * x(i, c) * x(i, c);
    }
    y[i] = score + rng.normal(0.0, 1.0) > 0.0 ? 1 : 0;
  }
  for (std::size_t i = 0; i < queries.size(); ++i)
    queries.data()[i] = rng.normal(0.0, 1.0);

  for (std::size_t threads : {1u, 3u}) {
    par::set_threads(threads);
    SvmClassifier svm;
    svm.fit(x, y);
    std::ostringstream bytes;
    util::BinaryWriter writer(bytes);
    svm.save(writer);
    const std::string model = bytes.str();
    const std::vector<double> decision = svm.decision(queries);
    EXPECT_EQ(fnv1a(model), 0x33c05b0aaa6cc6d2ULL)
        << std::hex << fnv1a(model) << " threads=" << std::dec << threads;
    EXPECT_EQ(fnv1a(decision), 0xc197bd154334eb8cULL)
        << std::hex << fnv1a(decision) << " threads=" << std::dec
        << threads;
    // The row API on one reused scratch gives the same bits.
    std::vector<double> dots(svm.support_vector_count());
    std::vector<double> rows(q);
    for (std::size_t r = 0; r < q; ++r)
      rows[r] = svm.decision({queries.row(r), dim}, dots);
    EXPECT_EQ(fnv1a(rows), 0xc197bd154334eb8cULL)
        << std::hex << fnv1a(rows) << " threads=" << std::dec << threads;
  }
  par::set_threads(1);
}

TEST(Svm, RowDecisionsEqualTheMatrixOverloadBitForBit) {
  // Phase 2 decides each scored row in its worker's scratch as it is
  // built. The row API on one reused `dots` buffer must give the matrix
  // overload's bits for every row, at any thread count.
  util::Rng rng(967144);
  const std::size_t n = 240, dim = 36, q = 97;
  nn::Matrix x(n, dim), queries(q, dim);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double score = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
      x(i, c) = rng.normal(0.0, 1.0);
      score += c % 2 == 0 ? x(i, c) * x(i, c) : -x(i, c);
    }
    y[i] = score + rng.normal(0.0, 1.0) > static_cast<double>(dim) / 2.0;
  }
  for (std::size_t i = 0; i < queries.size(); ++i)
    queries.data()[i] = rng.normal(0.0, 1.5);
  queries(5, 3) = -0.0;
  for (std::size_t threads : {1u, 4u}) {
    par::set_threads(threads);
    SvmClassifier svm;
    svm.fit(x, y);
    const std::vector<double> batch = svm.decision(queries);
    // Oversized and pre-filled: the row API overwrites what it reads.
    std::vector<double> dots(svm.support_vector_count() + 3,
                             std::nan(""));
    std::vector<double> rows(q);
    for (std::size_t r = 0; r < q; ++r)
      rows[r] = svm.decision({queries.row(r), dim}, dots);
    EXPECT_EQ(0, std::memcmp(rows.data(), batch.data(), q * sizeof(double)))
        << "threads=" << threads;
    std::vector<double> short_dots(svm.support_vector_count() - 1);
    EXPECT_THROW(svm.decision({queries.row(0), dim}, short_dots),
                 std::invalid_argument);
    EXPECT_THROW(svm.decision({queries.row(0), dim - 1}, dots),
                 std::invalid_argument);
  }
  par::set_threads(1);
  std::vector<double> dots(4);
  EXPECT_THROW(SvmClassifier().decision({queries.row(0), dim}, dots),
               std::logic_error);
}

TEST(Svm, RefitInAWorkspaceMatchesAFreshFit) {
  // One classifier and one workspace refit on training sets of different
  // sizes (the kernel shrinks, then grows past what it held) must give the
  // model and decisions of a fresh SvmClassifier, bit for bit.
  util::Rng rng(808);
  nn::Matrix queries(50, 2);
  std::vector<int> unused;
  blobs_2d(queries, unused, 50, rng, 2.0);
  const auto bytes_of = [](const SvmClassifier& svm) {
    std::ostringstream out;
    util::BinaryWriter writer(out);
    svm.save(writer);
    return out.str();
  };
  runtime::ExecutionContext context;
  SvmConfig config;
  config.context = &context;
  SvmClassifier reused(config);
  SvmWorkspace workspace;
  for (std::size_t n : {160u, 90u, 240u}) {
    nn::Matrix x;
    std::vector<int> y;
    blobs_2d(x, y, n, rng, 1.5);
    reused.fit(x, y, workspace);
    SvmClassifier fresh(config);
    fresh.fit(x, y);
    EXPECT_EQ(bytes_of(reused), bytes_of(fresh)) << "n=" << n;
    const std::vector<double> a = reused.decision(queries);
    const std::vector<double> b = fresh.decision(queries);
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
        << "n=" << n;
    // The workspace holds the largest kernel so far, charged, while the
    // fresh fit's kernel was released when that fit returned.
    EXPECT_EQ(context.charged(),
              std::max<std::size_t>(n, 160) *
                  std::max<std::size_t>(n, 160) * sizeof(double));
  }
}

// ---------- split ----------

TEST(Split, StratifiedPreservesRatio) {
  std::vector<int> labels;
  for (int i = 0; i < 100; ++i) labels.push_back(i < 30 ? 1 : 0);
  util::Rng rng(89);
  const SplitIndices idx = stratified_split(labels, 0.7, rng);
  EXPECT_EQ(idx.train.size() + idx.test.size(), 100u);
  std::size_t train_pos = 0;
  for (std::size_t i : idx.train) train_pos += labels[i];
  std::size_t test_pos = 0;
  for (std::size_t i : idx.test) test_pos += labels[i];
  EXPECT_EQ(train_pos, 21u);  // exactly 70 % of 30
  EXPECT_EQ(test_pos, 9u);
}

TEST(Split, IndicesAreDisjointAndComplete) {
  std::vector<int> labels(50, 0);
  for (int i = 0; i < 20; ++i) labels[static_cast<std::size_t>(i)] = 1;
  util::Rng rng(97);
  const SplitIndices idx = stratified_split(labels, 0.6, rng);
  std::vector<char> seen(50, 0);
  for (std::size_t i : idx.train) {
    EXPECT_FALSE(seen[i]);
    seen[i] = 1;
  }
  for (std::size_t i : idx.test) {
    EXPECT_FALSE(seen[i]);
    seen[i] = 1;
  }
  for (char s : seen) EXPECT_TRUE(s);
}

TEST(Split, Validation) {
  util::Rng rng(101);
  EXPECT_THROW(stratified_split({1, 0}, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(stratified_split({1, 0}, 1.0, rng), std::invalid_argument);
}

TEST(Split, TakeSelects) {
  const std::vector<int> v{10, 20, 30};
  EXPECT_EQ(take(v, {2, 0}), (std::vector<int>{30, 10}));
}

}  // namespace
}  // namespace fs::ml
