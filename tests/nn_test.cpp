#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>

#include "eval/digest.h"
#include "kern/kern.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/sparse.h"
#include "nn/supervised_autoencoder.h"
#include "par/pool.h"
#include "util/binary_io.h"

namespace fs::nn {
namespace {

// ---------- Matrix ----------

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, FromRows) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m(0, 0), 1);
  EXPECT_DOUBLE_EQ(m(1, 1), 4);
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, ElementwiseOps) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{10, 20}, {30, 40}});
  a += b;
  EXPECT_DOUBLE_EQ(a(1, 1), 44);
  a -= b;
  EXPECT_DOUBLE_EQ(a(1, 1), 4);
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a(0, 0), 2);
  Matrix c(1, 1);
  EXPECT_THROW(a += c, std::invalid_argument);
}

TEST(Matrix, MatmulNN) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = matmul_nn(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
  const Matrix bad(3, 3);
  EXPECT_THROW(matmul_nn(a, bad), std::invalid_argument);
}

TEST(Matrix, MatmulNT) {
  const Matrix a = Matrix::from_rows({{1, 2, 3}});
  const Matrix b = Matrix::from_rows({{4, 5, 6}, {7, 8, 9}});
  const Matrix c = matmul_nt(a, b);  // (1x3) * (2x3)^T -> 1x2
  EXPECT_DOUBLE_EQ(c(0, 0), 32);
  EXPECT_DOUBLE_EQ(c(0, 1), 50);
}

TEST(Matrix, MatmulTN) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5}, {6}});
  const Matrix c = matmul_tn(a, b);  // (2x2)^T * (2x1) -> 2x1
  EXPECT_DOUBLE_EQ(c(0, 0), 1 * 5 + 3 * 6);
  EXPECT_DOUBLE_EQ(c(1, 0), 2 * 5 + 4 * 6);
}

TEST(Matrix, TransposedProductsAgree) {
  util::Rng rng(7);
  Matrix a(4, 6), b(6, 3);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal();
  // a * b == matmul_nt(a, b^T) == matmul_tn(a^T, b).
  Matrix bt(3, 6), at(6, 4);
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < 3; ++c) bt(c, r) = b(r, c);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 6; ++c) at(c, r) = a(r, c);
  const Matrix direct = matmul_nn(a, b);
  const Matrix via_nt = matmul_nt(a, bt);
  const Matrix via_tn = matmul_tn(at, b);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(direct(r, c), via_nt(r, c), 1e-12);
      EXPECT_NEAR(direct(r, c), via_tn(r, c), 1e-12);
    }
}

TEST(Matrix, GatherRows) {
  const Matrix m = Matrix::from_rows({{1, 1}, {2, 2}, {3, 3}});
  const Matrix g = m.gather_rows({2, 0});
  EXPECT_DOUBLE_EQ(g(0, 0), 3);
  EXPECT_DOUBLE_EQ(g(1, 0), 1);
}

TEST(Matrix, SquaredDifference) {
  const Matrix a = Matrix::from_rows({{1, 2}});
  const Matrix b = Matrix::from_rows({{3, 0}});
  EXPECT_DOUBLE_EQ(Matrix::squared_difference(a, b), 8.0);
  const Matrix c(2, 2);
  EXPECT_THROW(Matrix::squared_difference(a, c), std::invalid_argument);
}

TEST(Matrix, HeInitScalesWithFanIn) {
  util::Rng rng(11);
  const Matrix m = Matrix::he_init(50, 200, rng);
  double sq = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) sq += m.data()[i] * m.data()[i];
  const double stddev = std::sqrt(sq / static_cast<double>(m.size()));
  EXPECT_NEAR(stddev, std::sqrt(2.0 / 200.0), 0.01);
}

// ---------- activations ----------

TEST(Activations, Values) {
  EXPECT_DOUBLE_EQ(activate(Activation::kIdentity, -3.0), -3.0);
  EXPECT_DOUBLE_EQ(activate(Activation::kRelu, -3.0), 0.0);
  EXPECT_DOUBLE_EQ(activate(Activation::kRelu, 3.0), 3.0);
  EXPECT_NEAR(activate(Activation::kSigmoid, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(activate(Activation::kTanh, 100.0), 1.0, 1e-9);
}

// ---------- Dense gradient checking ----------

/// Numerical-vs-analytic gradient check on a single Dense layer with a
/// quadratic loss L = sum((y - target)^2).
class DenseGradCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(DenseGradCheck, BackwardMatchesFiniteDifference) {
  util::Rng rng(13);
  Dense layer(4, 3, GetParam(), rng);
  Matrix x(2, 4);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  Matrix target(2, 3);
  for (std::size_t i = 0; i < target.size(); ++i)
    target.data()[i] = rng.normal();

  auto loss_fn = [&]() {
    const Matrix y = layer.infer(x);
    double loss = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      const double d = y.data()[i] - target.data()[i];
      loss += d * d;
    }
    return loss;
  };

  // Analytic input gradient.
  Matrix y = layer.forward(x);
  Matrix d_out = y;
  d_out -= target;
  d_out *= 2.0;
  const Matrix d_in = layer.backward(d_out);
  layer.clear_gradients();

  // Finite differences on a few input coordinates.
  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); i += 3) {
    const double orig = x.data()[i];
    x.data()[i] = orig + eps;
    const double plus = loss_fn();
    x.data()[i] = orig - eps;
    const double minus = loss_fn();
    x.data()[i] = orig;
    const double numeric = (plus - minus) / (2 * eps);
    EXPECT_NEAR(d_in.data()[i], numeric, 1e-4)
        << "input gradient mismatch at " << i;
  }

  // Finite differences on a few weights, against the accumulated gradient.
  layer.forward(x);
  layer.backward(d_out);
  // Re-derive the analytic weight gradient by probing apply_gradients with
  // a copy: instead, recompute numerically and compare with accumulated
  // grads via a unit learning-rate trick.
  Dense probe = layer;
  probe.apply_gradients(1.0);  // weights' -= grad
  for (std::size_t i = 0; i < 5; ++i) {
    const std::size_t r = i % 3;
    const std::size_t c = (2 * i) % 4;
    const double analytic =
        layer.weights()(r, c) - probe.weights()(r, c);
    Dense shifted = layer;
    shifted.mutable_weights()(r, c) += eps;
    double plus = 0.0, minus = 0.0;
    {
      const Matrix yy = shifted.infer(x);
      for (std::size_t j = 0; j < yy.size(); ++j) {
        const double d = yy.data()[j] - target.data()[j];
        plus += d * d;
      }
    }
    shifted.mutable_weights()(r, c) -= 2 * eps;
    {
      const Matrix yy = shifted.infer(x);
      for (std::size_t j = 0; j < yy.size(); ++j) {
        const double d = yy.data()[j] - target.data()[j];
        minus += d * d;
      }
    }
    const double numeric = (plus - minus) / (2 * eps);
    EXPECT_NEAR(analytic, numeric, 1e-4)
        << "weight gradient mismatch at (" << r << "," << c << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, DenseGradCheck,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kTanh,
                                           Activation::kSigmoid));

TEST(Dense, ApplyGradientsConsumesThePendingStep) {
  // 700 x 160 weights span several row blocks of the fused step GEMM.
  util::Rng rng(61);
  Dense layer(700, 160, Activation::kRelu, rng);
  Matrix x(16, 700);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  const Matrix& out = layer.forward(x);
  Matrix d_out(out.rows(), out.cols(), 1.0);
  layer.backward_into(d_out, nullptr);
  const Matrix before = layer.weights();
  layer.apply_gradients(0.1);
  const Matrix stepped = layer.weights();
  const std::vector<double> stepped_bias = layer.bias();
  EXPECT_NE(0, std::memcmp(before.data(), stepped.data(),
                           before.size() * sizeof(double)));
  // A second step with nothing accumulated in between must be a no-op.
  layer.apply_gradients(0.1);
  EXPECT_EQ(0, std::memcmp(stepped.data(), layer.weights().data(),
                           stepped.size() * sizeof(double)));
  EXPECT_EQ(stepped_bias, layer.bias());
}

TEST(Dense, PendingStepMustBeAppliedOrCleared) {
  // The step reads the cached input and dL/d(pre-activation), so neither
  // a second backward nor a forward may replace them before it is taken.
  util::Rng rng(63);
  Dense layer(5, 3, Activation::kTanh, rng);
  Matrix x(4, 5);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  const Matrix d_out(4, 3, 0.5);
  layer.forward(x);
  layer.backward(d_out);
  EXPECT_THROW(layer.backward(d_out), std::logic_error);
  EXPECT_THROW(layer.forward(x), std::logic_error);
  // Cleared, the step is dropped: applying changes nothing.
  layer.clear_gradients();
  const Matrix weights = layer.weights();
  const std::vector<double> bias = layer.bias();
  layer.apply_gradients(0.1);
  EXPECT_EQ(0, std::memcmp(weights.data(), layer.weights().data(),
                           weights.size() * sizeof(double)));
  EXPECT_EQ(bias, layer.bias());
  layer.forward(x);
  layer.backward(d_out);
  layer.apply_gradients(0.1);
  EXPECT_NO_THROW(layer.forward(x));
}

TEST(Dense, BackwardWithoutForwardThrows) {
  util::Rng rng(17);
  Dense layer(2, 2, Activation::kIdentity, rng);
  Matrix d(1, 2);
  EXPECT_THROW(layer.backward(d), std::logic_error);
}

TEST(Dense, RejectsZeroDims) {
  util::Rng rng(19);
  EXPECT_THROW(Dense(0, 2, Activation::kRelu, rng), std::invalid_argument);
}

// ---------- Reconstruction sampling ----------

Matrix transposed_copy(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
  return t;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A rows x width batch whose cells are non-zero with probability density.
SparseRows random_batch(std::size_t rows, std::size_t width, double density,
                        util::Rng& rng) {
  Matrix dense(rows, width);
  for (std::size_t i = 0; i < dense.size(); ++i)
    dense.data()[i] = rng.uniform() < density ? rng.uniform(0.5, 2.0) : 0.0;
  return SparseRows::from_dense(dense);
}

TEST(ReconSampling, KeepsEveryCoveredColumnAndSamplesTheRest) {
  util::Rng data_rng(2100);
  const SparseRows batch = random_batch(16, 2100, 0.01, data_rng);
  Matrix dense;
  batch.densify_into(dense);
  std::vector<bool> covered(2100, false);
  for (std::size_t i = 0; i < dense.size(); ++i)
    if (dense.data()[i] != 0.0) covered[i % 2100] = true;
  const std::size_t n_covered =
      static_cast<std::size_t>(std::count(covered.begin(), covered.end(), true));
  ASSERT_GT(n_covered, 100u);

  std::size_t drawn_total = 0;
  constexpr std::size_t kSeeds = 200;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    util::Rng rng(seed);
    ReconSample sample;
    sample_recon_columns(batch, rng, sample);
    ASSERT_EQ(sample.cols.size(), sample.weight.size());
    std::size_t kept_covered = 0;
    for (std::size_t j = 0; j < sample.cols.size(); ++j) {
      if (j > 0) {
        ASSERT_LT(sample.cols[j - 1], sample.cols[j]);
      }
      const bool cov = covered[sample.cols[j]];
      EXPECT_EQ(sample.weight[j], cov ? 1.0 : 1.0 / kReconSampleRate);
      kept_covered += cov;
    }
    EXPECT_EQ(kept_covered, n_covered) << "seed " << seed;
    drawn_total += sample.cols.size() - kept_covered;

    // The target holds the batch's values at the kept columns.
    Matrix x;
    sample.gather_target(batch, x);
    ASSERT_EQ(x.rows(), 16u);
    ASSERT_EQ(x.cols(), sample.cols.size());
    for (std::size_t r = 0; r < x.rows(); ++r)
      for (std::size_t j = 0; j < x.cols(); ++j)
        EXPECT_EQ(x(r, j), dense(r, sample.cols[j]));

    // Same seed, same draws, whatever the thread count.
    par::set_threads(seed % 2 == 0 ? 4 : 1);
    util::Rng again(seed);
    ReconSample repeat;
    sample_recon_columns(batch, again, repeat);
    EXPECT_EQ(repeat.cols, sample.cols);
    EXPECT_EQ(repeat.weight, sample.weight);
  }
  par::set_threads(0);
  // Each uncovered column is kept with probability q: over 200 seeds the
  // kept count is Binomial(200 * uncovered, q); allow 5 standard errors.
  const double trials =
      static_cast<double>(kSeeds * (2100 - n_covered));
  const double mean = trials * kReconSampleRate;
  const double sd = std::sqrt(mean * (1.0 - kReconSampleRate));
  EXPECT_NEAR(static_cast<double>(drawn_total), mean, 5.0 * sd);
}

TEST(ReconSampling, AllCoveredSampleStepsLikeTheDenseLayerBitForBit) {
  // One layer held both ways: input-major through forward(), output-major
  // through forward_sampled() with every column listed. Outputs, input
  // gradients and stepped weights must agree bit for bit on every path
  // and thread count; 280 rows chain two KC blocks in the step.
  const kern::IsaPath previous = kern::active_path();
  for (kern::IsaPath path : kern::supported_paths()) {
    kern::force_path(path);
    for (std::size_t rows : {16u, 280u})
      for (std::size_t threads : {1u, 4u}) {
        par::set_threads(threads);
        util::Rng rng(320 + rows);
        Dense dense(40, 700, Activation::kIdentity, rng);
        Dense sampled = dense;
        sampled.make_output_major();
        Matrix h(rows, 40), d(rows, 700);
        for (std::size_t i = 0; i < h.size(); ++i) h.data()[i] = rng.normal();
        for (std::size_t i = 0; i < d.size(); ++i) d.data()[i] = rng.normal();
        std::vector<std::uint32_t> all(700);
        for (std::uint32_t c = 0; c < 700; ++c) all[c] = c;

        const Matrix out_dense = dense.forward(h);
        const Matrix out_sampled = sampled.forward_sampled(h, all);
        EXPECT_TRUE(same_bits(out_dense, out_sampled))
            << kern::path_name(path) << " rows=" << rows;
        const Matrix dx_dense = dense.backward(d);
        const Matrix dx_sampled = sampled.backward(d);
        EXPECT_TRUE(same_bits(dx_dense, dx_sampled))
            << kern::path_name(path) << " rows=" << rows;
        dense.apply_gradients(0.05);
        sampled.apply_gradients(0.05);
        EXPECT_TRUE(same_bits(transposed_copy(dense.weights()),
                              sampled.weights()))
            << kern::path_name(path) << " rows=" << rows;
        EXPECT_EQ(dense.bias(), sampled.bias());
      }
  }
  par::set_threads(0);
  kern::force_path(previous);
}

TEST(ReconSampling, SampledStepTouchesOnlyTheSampledColumns) {
  // A sample of the outputs computes exactly those columns of the full
  // forward, and its step equals the dense step of a gradient that is
  // zero off the sample: the kept columns' weights and biases take the
  // same bits, every other one keeps its own.
  util::Rng rng(97);
  Dense dense(24, 300, Activation::kIdentity, rng);
  dense.make_output_major();
  Dense sampled = dense;
  Matrix h(16, 24);
  for (std::size_t i = 0; i < h.size(); ++i) h.data()[i] = rng.normal();
  std::vector<std::uint32_t> cols;
  for (std::uint32_t c = 0; c < 300; ++c)
    if (rng.uniform() < 0.2) cols.push_back(c);
  Matrix d_full(16, 300), d_sampled(16, cols.size());
  for (std::size_t r = 0; r < 16; ++r)
    for (std::size_t j = 0; j < cols.size(); ++j)
      d_full(r, cols[j]) = d_sampled(r, j) = rng.normal();

  const Matrix full = dense.forward(h);
  const Matrix part = sampled.forward_sampled(h, cols);
  for (std::size_t r = 0; r < 16; ++r)
    for (std::size_t j = 0; j < cols.size(); ++j)
      ASSERT_EQ(std::memcmp(part.row(r) + j, full.row(r) + cols[j],
                            sizeof(double)),
                0);
  dense.backward_into(d_full, nullptr);
  sampled.backward_into(d_sampled, nullptr);
  dense.apply_gradients(0.1);
  sampled.apply_gradients(0.1);
  EXPECT_TRUE(same_bits(dense.weights(), sampled.weights()));
  EXPECT_EQ(dense.bias(), sampled.bias());

  // Malformed samples are rejected before anything is cached.
  const std::vector<std::uint32_t> descending = {5, 3};
  const std::vector<std::uint32_t> too_wide = {299, 300};
  EXPECT_THROW(sampled.forward_sampled(h, descending), std::invalid_argument);
  EXPECT_THROW(sampled.forward_sampled(h, too_wide), std::invalid_argument);
  Dense input_major(24, 300, Activation::kIdentity, rng);
  EXPECT_THROW(input_major.forward_sampled(h, cols), std::logic_error);
}

TEST(ReconSampling, OutputLayerGradientIsUnbiased) {
  // L_auto's gradient at the decoder's output layer, averaged over many
  // sampling seeds, against the full gradient. A kept uncovered column
  // carries weight 1/q, so the average scales column c's gradient by
  // K_c / (N q), K_c ~ Binomial(N, q): its relative error has standard
  // error se = sqrt((1 - q) / (N q)) (~0.05 here), and the error over all
  // columns, covered ones exact, stays below 2 se.
  constexpr std::size_t kRows = 8, kIn = 6, kOut = 120, kSeeds = 20000;
  const double q = kReconSampleRate;
  util::Rng rng(5);
  Dense layer(kIn, kOut, Activation::kIdentity, rng);
  layer.make_output_major();
  Matrix h(kRows, kIn);
  for (std::size_t i = 0; i < h.size(); ++i) h.data()[i] = rng.normal();
  const SparseRows batch = random_batch(kRows, kOut, 0.05, rng);
  const double scale = 2.0 / kRows / kOut;  // mean loss over the batch

  // Gradients read off a unit step: the weights move by -grad.
  const auto gradient = [&](const std::vector<std::uint32_t>& cols,
                            const std::vector<double>& weight,
                            const Matrix& x, std::vector<double>& out,
                            Matrix& d_input) {
    Dense probe = layer;
    const Matrix& recon = probe.forward_sampled(h, cols);
    Matrix d = recon;
    d -= x;
    for (std::size_t r = 0; r < d.rows(); ++r)
      for (std::size_t j = 0; j < d.cols(); ++j) d(r, j) *= scale * weight[j];
    probe.backward_into(d, &d_input);
    probe.apply_gradients(1.0);
    out.assign(kOut * (kIn + 1), 0.0);
    for (std::size_t o = 0; o < kOut; ++o) {
      for (std::size_t i = 0; i < kIn; ++i)
        out[o * (kIn + 1) + i] =
            layer.weights()(o, i) - probe.weights()(o, i);
      out[o * (kIn + 1) + kIn] = layer.bias()[o] - probe.bias()[o];
    }
  };

  std::vector<std::uint32_t> all(kOut);
  for (std::uint32_t c = 0; c < kOut; ++c) all[c] = c;
  Matrix x_full;
  batch.densify_into(x_full);
  std::vector<double> full, one;
  Matrix dx_full, dx_one;
  gradient(all, std::vector<double>(kOut, 1.0), x_full, full, dx_full);

  std::vector<double> mean(full.size(), 0.0);
  Matrix dx_mean(kRows, kIn);
  ReconSample sample;
  Matrix x;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    util::Rng draw(seed);
    sample_recon_columns(batch, draw, sample);
    sample.gather_target(batch, x);
    gradient(sample.cols, sample.weight, x, one, dx_one);
    for (std::size_t i = 0; i < one.size(); ++i) mean[i] += one[i] / kSeeds;
    for (std::size_t i = 0; i < dx_one.size(); ++i)
      dx_mean.data()[i] += dx_one.data()[i] / kSeeds;
  }
  const auto rel_error = [](const double* got, const double* want,
                            std::size_t n) {
    double err = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      err += (got[i] - want[i]) * (got[i] - want[i]);
      norm += want[i] * want[i];
    }
    return std::sqrt(err / norm);
  };
  const double se = std::sqrt((1.0 - q) / (kSeeds * q));
  const double weight_error = rel_error(mean.data(), full.data(), full.size());
  const double input_error =
      rel_error(dx_mean.data(), dx_full.data(), dx_full.size());
  EXPECT_LT(weight_error, 2.0 * se);
  EXPECT_LT(input_error, 2.0 * se);
  // The estimate is not the full gradient seed by seed.
  EXPECT_GT(rel_error(one.data(), full.data(), full.size()), 2.0 * se);
}

// ---------- Mlp ----------

TEST(Mlp, ShapesAndInferForwardAgree) {
  util::Rng rng(23);
  Mlp mlp({5, 8, 2}, Activation::kRelu, Activation::kIdentity, rng);
  EXPECT_EQ(mlp.layer_count(), 2u);
  EXPECT_EQ(mlp.in_dim(), 5u);
  EXPECT_EQ(mlp.out_dim(), 2u);
  Matrix x(3, 5);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  const Matrix y1 = mlp.forward(x);
  const Matrix y2 = mlp.infer(x);
  for (std::size_t i = 0; i < y1.size(); ++i)
    EXPECT_DOUBLE_EQ(y1.data()[i], y2.data()[i]);
}

TEST(Mlp, LearnsLinearMap) {
  // y = 2x - 1 learned by a 1-16-1 network from noise-free samples.
  util::Rng rng(29);
  Mlp mlp({1, 16, 1}, Activation::kTanh, Activation::kIdentity, rng);
  Matrix x(64, 1), target(64, 1);
  for (std::size_t i = 0; i < 64; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    target(i, 0) = 2.0 * x(i, 0) - 1.0;
  }
  double first_loss = 0.0, last_loss = 0.0;
  for (int epoch = 0; epoch < 300; ++epoch) {
    Matrix y = mlp.forward(x);
    Matrix d = y;
    d -= target;
    const double loss = Matrix::squared_difference(y, target) / 64.0;
    if (epoch == 0) first_loss = loss;
    last_loss = loss;
    d *= 2.0 / 64.0;
    mlp.backward(d);
    mlp.apply_gradients(0.05);
  }
  EXPECT_LT(last_loss, first_loss * 0.05);
}

TEST(Mlp, RequiresTwoDims) {
  util::Rng rng(31);
  EXPECT_THROW(Mlp({5}, Activation::kRelu, Activation::kIdentity, rng),
               std::invalid_argument);
}

// ---------- SupervisedAutoencoder ----------

AutoencoderConfig small_ae_config() {
  AutoencoderConfig cfg;
  cfg.encoder_dims = {12, 6, 3};
  cfg.classifier_hidden = {8};
  cfg.epochs = 40;
  cfg.batch_size = 8;
  cfg.learning_rate = 0.01;
  cfg.seed = 37;
  return cfg;
}

/// Two Gaussian blobs in 12-d with disjoint support patterns.
void make_blobs(Matrix& x, std::vector<int>& y, std::size_t n,
                util::Rng& rng) {
  x = Matrix(n, 12);
  y.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    y[i] = label;
    for (std::size_t c = 0; c < 12; ++c) {
      const double base = (label == 1 && c < 6) ? 2.0
                          : (label == 0 && c >= 6) ? 2.0
                                                   : 0.0;
      x(i, c) = base + rng.normal(0.0, 0.3);
    }
  }
}

TEST(SupervisedAutoencoder, ReconstructionLossDecreases) {
  util::Rng rng(41);
  Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 64, rng);
  SupervisedAutoencoder ae(small_ae_config());
  const auto history = ae.train(x, y);
  ASSERT_FALSE(history.empty());
  EXPECT_LT(history.back().reconstruction_loss,
            history.front().reconstruction_loss * 0.8);
}

TEST(SupervisedAutoencoder, ClassifierLearnsBlobs) {
  util::Rng rng(43);
  Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 64, rng);
  SupervisedAutoencoder ae(small_ae_config());
  ae.train(x, y);
  Matrix test_x;
  std::vector<int> test_y;
  make_blobs(test_x, test_y, 32, rng);
  const auto probs = ae.predict_proba(test_x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < probs.size(); ++i)
    correct += (probs[i] >= 0.5) == (test_y[i] == 1);
  EXPECT_GT(correct, 28u);  // ~90 %+
}

TEST(SupervisedAutoencoder, CodeHasRequestedDimension) {
  util::Rng rng(47);
  Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 32, rng);
  SupervisedAutoencoder ae(small_ae_config());
  ae.train(x, y);
  const Matrix code = ae.encode(x);
  EXPECT_EQ(code.rows(), 32u);
  EXPECT_EQ(code.cols(), 3u);
  const Matrix recon = ae.reconstruct(x);
  EXPECT_EQ(recon.cols(), 12u);
}

TEST(SupervisedAutoencoder, SupervisionImprovesCodeSeparability) {
  // With alpha > 0 the code should separate the classes better than the
  // pure autoencoder (alpha = 0). Measured by the distance between class
  // centroids over mean intra-class spread.
  util::Rng rng(53);
  Matrix x;
  std::vector<int> y;
  // Classes differ in a LOW-variance direction that pure reconstruction
  // tends to drop: class signal lives in 2 of 12 dims at small amplitude,
  // while 10 dims carry shared high-variance structure.
  x = Matrix(96, 12);
  y.assign(96, 0);
  for (std::size_t i = 0; i < 96; ++i) {
    const int label = static_cast<int>(i % 2);
    y[i] = label;
    const double shared = rng.normal(0.0, 2.0);
    for (std::size_t c = 0; c < 10; ++c)
      x(i, c) = shared + rng.normal(0.0, 0.5);
    for (std::size_t c = 10; c < 12; ++c)
      x(i, c) = (label ? 0.6 : -0.6) + rng.normal(0.0, 0.2);
  }

  auto separability = [&](double alpha) {
    AutoencoderConfig cfg = small_ae_config();
    cfg.alpha = alpha;
    cfg.epochs = 60;
    SupervisedAutoencoder ae(cfg);
    ae.train(x, y);
    const Matrix code = ae.encode(x);
    std::vector<double> mean0(code.cols(), 0.0), mean1(code.cols(), 0.0);
    std::size_t n0 = 0, n1 = 0;
    for (std::size_t i = 0; i < code.rows(); ++i) {
      auto& mean = y[i] ? mean1 : mean0;
      (y[i] ? n1 : n0)++;
      for (std::size_t c = 0; c < code.cols(); ++c) mean[c] += code(i, c);
    }
    for (std::size_t c = 0; c < code.cols(); ++c) {
      mean0[c] /= static_cast<double>(n0);
      mean1[c] /= static_cast<double>(n1);
    }
    double between = 0.0, within = 0.0;
    for (std::size_t c = 0; c < code.cols(); ++c) {
      const double d = mean1[c] - mean0[c];
      between += d * d;
    }
    for (std::size_t i = 0; i < code.rows(); ++i) {
      const auto& mean = y[i] ? mean1 : mean0;
      for (std::size_t c = 0; c < code.cols(); ++c) {
        const double d = code(i, c) - mean[c];
        within += d * d;
      }
    }
    return between / (within / static_cast<double>(code.rows()) + 1e-12);
  };

  EXPECT_GT(separability(1.0), separability(0.0));
}

TEST(SupervisedAutoencoder, ValidatesInputs) {
  SupervisedAutoencoder ae(small_ae_config());
  Matrix x(4, 12);
  EXPECT_THROW(ae.train(x, {0, 1}), std::invalid_argument);
  Matrix wrong_width(4, 5);
  EXPECT_THROW(ae.train(wrong_width, {0, 1, 0, 1}), std::invalid_argument);
  AutoencoderConfig bad;
  bad.encoder_dims = {12};
  EXPECT_THROW(SupervisedAutoencoder{bad}, std::invalid_argument);
}

TEST(SupervisedAutoencoder, DeterministicGivenSeed) {
  util::Rng rng(59);
  Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 32, rng);
  SupervisedAutoencoder a(small_ae_config());
  SupervisedAutoencoder b(small_ae_config());
  a.train(x, y);
  b.train(x, y);
  const auto pa = a.predict_proba(x);
  const auto pb = b.predict_proba(x);
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

TEST(SupervisedAutoencoder, ThreadCountNeverChangesTheBits) {
  // A 700-wide input spans several column-panel chunks in the mini-batch
  // GEMMs and several row blocks of the fused step GEMM.
  util::Rng rng(67);
  Matrix x(48, 700);
  std::vector<int> y(48);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = rng.uniform() < 0.1 ? 1.0 : 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 2);
  AutoencoderConfig cfg;
  cfg.encoder_dims = {700, 160, 24};
  cfg.epochs = 3;
  cfg.seed = 71;

  const auto train_at = [&](std::size_t threads, Matrix& code) {
    par::set_threads(threads);
    SupervisedAutoencoder ae(cfg);
    ae.train(x, y);
    code = ae.encode(x);
    std::ostringstream bytes(std::ios::binary);
    util::BinaryWriter writer(bytes);
    ae.save(writer);
    return std::move(bytes).str();
  };
  Matrix code1, code4;
  const std::string saved1 = train_at(1, code1);
  const std::string saved4 = train_at(4, code4);
  par::set_threads(0);
  EXPECT_EQ(saved1, saved4);
  ASSERT_EQ(code1.size(), code4.size());
  EXPECT_EQ(0, std::memcmp(code1.data(), code4.data(),
                           code1.size() * sizeof(double)));
}

/// FNV digest of save() after a small fixed training run at the gowalla
/// JOC width (1380 -> 320 -> 48): one epoch whose first batch of 280 rows
/// spans two KC blocks of the weight-gradient GEMMs and, at 5 % density,
/// covers every output column, and whose second batch of 20 rows fits in
/// one KC block and reconstructs a sample of the columns.
std::string trained_model_digest() {
  util::Rng rng(1380);
  Matrix x(300, 1380);
  std::vector<int> y(300);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = rng.uniform() < 0.05 ? std::log1p(rng.uniform(0.0, 3.0))
                                       : 0.0;
  for (std::size_t i = 0; i < y.size(); ++i)
    y[i] = static_cast<int>(i % 3 == 0);
  AutoencoderConfig cfg;
  cfg.encoder_dims = {1380, 320, 48};
  cfg.epochs = 1;
  cfg.batch_size = 280;
  cfg.seed = 1380;
  SupervisedAutoencoder ae(cfg);
  ae.train(x, y);
  std::ostringstream bytes(std::ios::binary);
  util::BinaryWriter writer(bytes);
  ae.save(writer);
  return eval::text_digest(std::move(bytes).str());
}

TEST(SupervisedAutoencoder, TrainedModelDigestIsPinned) {
  // Bits are only comparable on the toolchain that pinned them (see
  // eval::toolchain_fingerprint); elsewhere only thread invariance is
  // checked. The AVX2 and AVX-512 micro-kernels run the same FMA chain per
  // element, so the two FMA paths share one digest.
  struct Pin {
    const char* toolchain;
    const char* digest;
  };
  const Pin kPins[] = {
      {"12.2.0 glibc-2.36 kern-scalar", "3299c1da167f8097"},
      {"12.2.0 glibc-2.36 kern-avx2", "56f6808fc288a7cf"},
      {"12.2.0 glibc-2.36 kern-avx512", "56f6808fc288a7cf"},
  };
  const kern::IsaPath previous = kern::active_path();
  for (kern::IsaPath path : kern::supported_paths()) {
    kern::force_path(path);
    par::set_threads(1);
    const std::string digest = trained_model_digest();
    par::set_threads(4);
    EXPECT_EQ(digest, trained_model_digest()) << kern::path_name(path);
    const std::string toolchain = eval::toolchain_fingerprint();
    const Pin* pin = nullptr;
    for (const Pin& candidate : kPins)
      if (toolchain == candidate.toolchain) pin = &candidate;
    if (pin == nullptr) {
      GTEST_LOG_(INFO) << "no pinned digest for " << toolchain << " (got "
                       << digest << ")";
      continue;
    }
    EXPECT_EQ(digest, pin->digest) << toolchain;
  }
  par::set_threads(0);
  kern::force_path(previous);
}

}  // namespace
}  // namespace fs::nn
