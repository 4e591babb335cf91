#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "kern/kern.h"
#include "par/par.h"
#include "par/pool.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace fs::kern {
namespace {

// Naive reference GEMM over the logical operands (no blocking, no
// vectorization): the oracle every dispatched path must match.
struct Shape {
  std::size_t m, n, k;
};

double ref_a(const GemmCall& call, std::size_t i, std::size_t p) {
  return call.a_trans ? call.a[p * call.lda + i] : call.a[i * call.lda + p];
}

double ref_b(const GemmCall& call, std::size_t p, std::size_t j) {
  return call.b_trans ? call.b[j * call.ldb + p] : call.b[p * call.ldb + j];
}

double ref_epilogue(Epilogue epilogue, double v, double bias) {
  switch (epilogue) {
    case Epilogue::kNone:
      return v;
    case Epilogue::kBias:
      return v + bias;
    case Epilogue::kBiasRelu:
      v += bias;
      return v > 0.0 ? v : 0.0;
    case Epilogue::kBiasSigmoid:
      v += bias;
      return 1.0 / (1.0 + std::exp(-v));
    case Epilogue::kBiasTanh:
      v += bias;
      return std::tanh(v);
    case Epilogue::kStep:  // not a function of one value; see the step test
      break;
  }
  return v;
}

std::vector<double> reference_gemm(const GemmCall& call,
                                   const std::vector<double>& c_in) {
  std::vector<double> c = c_in;
  for (std::size_t i = 0; i < call.m; ++i)
    for (std::size_t j = 0; j < call.n; ++j) {
      double acc = call.accumulate ? c[i * call.ldc + j] : 0.0;
      for (std::size_t p = 0; p < call.k; ++p)
        acc += ref_a(call, i, p) * ref_b(call, p, j);
      if (call.epilogue != Epilogue::kNone)
        acc = ref_epilogue(call.epilogue, acc, call.bias[j]);
      c[i * call.ldc + j] = acc;
    }
  return c;
}

// Pins a path for the duration of one test body and restores auto/default
// afterwards (other suites in this binary must see the default dispatch).
class PathGuard {
 public:
  explicit PathGuard(IsaPath path) : previous_(active_path()) {
    force_path(path);
  }
  ~PathGuard() { force_path(previous_); }

 private:
  IsaPath previous_;
};

std::vector<double> random_values(std::size_t count, util::Rng& rng) {
  std::vector<double> values(count);
  for (double& v : values) v = rng.normal(0.0, 1.0);
  return values;
}

// Shapes chosen to cross every blocking edge: 1x1, exact register tiles,
// non-multiples of MR/NR, tall-skinny, wide-flat, and dims straddling the
// KC=256 / MC=96 / NC=512 block boundaries.
const Shape kShapes[] = {
    {1, 1, 1},    {1, 7, 1},    {4, 4, 4},    {8, 8, 8},    {5, 3, 9},
    {7, 13, 11},  {300, 2, 7},  {2, 300, 5},  {97, 65, 33}, {64, 48, 257},
    {100, 513, 3}, {17, 9, 300},
};

struct Variant {
  const char* name;
  bool a_trans;
  bool b_trans;
};

const Variant kVariants[] = {
    {"nn", false, false}, {"nt", false, true}, {"tn", true, false}};

GemmCall build_call(const Shape& shape, const Variant& variant,
                    const std::vector<double>& a, const std::vector<double>& b,
                    std::vector<double>& c, bool accumulate,
                    Epilogue epilogue = Epilogue::kNone,
                    const double* bias = nullptr) {
  GemmCall call;
  call.m = shape.m;
  call.n = shape.n;
  call.k = shape.k;
  call.a = a.data();
  call.a_trans = variant.a_trans;
  call.lda = variant.a_trans ? shape.m : shape.k;
  call.b = b.data();
  call.b_trans = variant.b_trans;
  call.ldb = variant.b_trans ? shape.k : shape.n;
  call.c = c.data();
  call.ldc = shape.n;
  call.accumulate = accumulate;
  call.epilogue = epilogue;
  call.bias = bias;
  return call;
}

TEST(KernDispatch, ScalarAlwaysSupportedAndForceable) {
  EXPECT_TRUE(path_supported(IsaPath::kScalar));
  const auto paths = supported_paths();
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front(), IsaPath::kScalar);
  for (IsaPath path : paths) {
    PathGuard guard(path);
    EXPECT_EQ(active_path(), path);
  }
}

TEST(KernDispatch, PathNamesRoundTrip) {
  EXPECT_STREQ(path_name(IsaPath::kScalar), "scalar");
  EXPECT_STREQ(path_name(IsaPath::kAvx2), "avx2");
  EXPECT_STREQ(path_name(IsaPath::kAvx512), "avx512");
}

TEST(KernGemm, EveryPathMatchesNaiveReferenceOnEdgeShapes) {
  // A nonzero pad stores the operands with lda/ldb wider than their rows:
  // the pack loops' full-panel strides and edge panels must read only the
  // logical matrix.
  util::Rng rng(20260809);
  for (const Shape& shape : kShapes)
    for (std::size_t pad : {0u, 5u}) {
      const std::vector<double> a =
          random_values((shape.m + pad) * (shape.k + pad), rng);
      const std::vector<double> b =
          random_values((shape.k + pad) * (shape.n + pad), rng);
      const std::vector<double> c0 = random_values(shape.m * shape.n, rng);
      for (const Variant& variant : kVariants) {
        for (bool accumulate : {false, true}) {
          std::vector<double> c_ref = c0;
          GemmCall call = build_call(shape, variant, a, b, c_ref, accumulate);
          call.lda += pad;
          call.ldb += pad;
          const std::vector<double> expected = reference_gemm(call, c0);
          for (IsaPath path : supported_paths()) {
            PathGuard guard(path);
            std::vector<double> c = c0;
            call.c = c.data();
            gemm(call);
            for (std::size_t v = 0; v < c.size(); ++v)
              EXPECT_NEAR(c[v], expected[v],
                          1e-12 * (1.0 + std::fabs(expected[v])))
                  << path_name(path) << " " << variant.name
                  << " m=" << shape.m << " n=" << shape.n << " k=" << shape.k
                  << " pad=" << pad << " acc=" << accumulate << " elem=" << v;
          }
        }
      }
    }
}

TEST(KernGemm, IntegerInputsAreBitExactAcrossAllPaths) {
  // Small-integer products and sums are exactly representable, so every
  // path — whatever its accumulation tree or FMA usage — must agree to
  // the last bit. This pins blocking/pack bookkeeping, not rounding.
  util::Rng rng(7);
  for (const Shape& shape : {Shape{13, 21, 300}, Shape{97, 9, 130}}) {
    std::vector<double> a(shape.m * shape.k), b(shape.k * shape.n);
    for (double& v : a) v = static_cast<double>(rng.range(-8, 8));
    for (double& v : b) v = static_cast<double>(rng.range(-8, 8));
    for (const Variant& variant : kVariants) {
      std::vector<double> c_scalar(shape.m * shape.n, 0.0);
      {
        PathGuard guard(IsaPath::kScalar);
        gemm(build_call(shape, variant, a, b, c_scalar, false));
      }
      for (IsaPath path : supported_paths()) {
        PathGuard guard(path);
        std::vector<double> c(shape.m * shape.n, 0.0);
        gemm(build_call(shape, variant, a, b, c, false));
        EXPECT_EQ(0, std::memcmp(c.data(), c_scalar.data(),
                                 c.size() * sizeof(double)))
            << path_name(path) << " " << variant.name;
      }
    }
  }
}

TEST(KernGemm, FusedEpilogueMatchesUnfusedTwoPass) {
  util::Rng rng(99);
  const Shape shape{37, 29, 111};
  const std::vector<double> a = random_values(shape.m * shape.k, rng);
  const std::vector<double> b = random_values(shape.k * shape.n, rng);
  const std::vector<double> bias = random_values(shape.n, rng);
  for (IsaPath path : supported_paths()) {
    PathGuard guard(path);
    for (Epilogue epilogue : {Epilogue::kBias, Epilogue::kBiasRelu,
                              Epilogue::kBiasSigmoid, Epilogue::kBiasTanh}) {
      std::vector<double> fused(shape.m * shape.n, 0.0);
      gemm(build_call(shape, kVariants[0], a, b, fused, false, epilogue,
                      bias.data()));
      // Unfused: same path, no epilogue, then the identical scalar sweep.
      std::vector<double> two_pass(shape.m * shape.n, 0.0);
      gemm(build_call(shape, kVariants[0], a, b, two_pass, false));
      for (std::size_t i = 0; i < shape.m; ++i)
        for (std::size_t j = 0; j < shape.n; ++j) {
          double& v = two_pass[i * shape.n + j];
          v = ref_epilogue(epilogue, v, bias[j]);
        }
      // The fused epilogue applies the same double-precision operations in
      // the same order, so the results are bit-identical.
      EXPECT_EQ(0, std::memcmp(fused.data(), two_pass.data(),
                               fused.size() * sizeof(double)))
          << path_name(path) << " epilogue=" << static_cast<int>(epilogue);
    }
  }
}

TEST(KernGemm, KZeroDegeneratesToEpilogueSweep) {
  for (IsaPath path : supported_paths()) {
    PathGuard guard(path);
    const std::vector<double> bias = {1.0, -2.0, 0.5};
    std::vector<double> c = {5.0, 5.0, 5.0, -1.0, -1.0, -1.0};
    gemm_nn(2, 3, 0, nullptr, 0, nullptr, 0, c.data(), 3,
            /*accumulate=*/false, Epilogue::kBiasRelu, bias.data());
    EXPECT_DOUBLE_EQ(c[0], 1.0);  // relu(0 + 1)
    EXPECT_DOUBLE_EQ(c[1], 0.0);  // relu(0 - 2)
    EXPECT_DOUBLE_EQ(c[2], 0.5);
    std::vector<double> d = {5.0, 5.0};
    gemm_nn(1, 2, 0, nullptr, 0, nullptr, 0, d.data(), 2,
            /*accumulate=*/true);
    EXPECT_DOUBLE_EQ(d[0], 5.0);  // accumulate keeps C
  }
}

TEST(KernGemm, ThreadCountNeverChangesTheBits) {
  util::Rng rng(4242);
  const Shape shape{300, 140, 96};  // several MC blocks -> real parallelism
  const std::vector<double> a = random_values(shape.m * shape.k, rng);
  const std::vector<double> b = random_values(shape.k * shape.n, rng);
  for (IsaPath path : supported_paths()) {
    PathGuard guard(path);
    std::vector<double> c1(shape.m * shape.n, 0.0);
    par::set_threads(1);
    gemm(build_call(shape, kVariants[1], a, b, c1, false));
    for (std::size_t threads : {2u, 5u}) {
      par::set_threads(threads);
      std::vector<double> cn(shape.m * shape.n, 0.0);
      gemm(build_call(shape, kVariants[1], a, b, cn, false));
      EXPECT_EQ(0, std::memcmp(c1.data(), cn.data(),
                               c1.size() * sizeof(double)))
          << path_name(path) << " threads=" << threads;
    }
    par::set_threads(1);
  }
}

TEST(KernGemm, SingleRowBlockColumnSplitIsExactAndThreadInvariant) {
  // m <= MC products take the column-panel split: n spans one partial
  // panel (7), one exact chunk (64), a chunk plus one column (65) and the
  // gowalla JOC width (1380); k = 300 > KC accumulates across KC blocks.
  // Each (variant, accumulate) pair carries one of none/ReLU/sigmoid, so
  // every epilogue runs with accumulate on and off.
  const Epilogue kEpilogues[] = {Epilogue::kNone, Epilogue::kBiasRelu,
                                 Epilogue::kBiasSigmoid};
  util::Rng rng(1380);
  for (std::size_t m : {1u, 16u, 96u})
    for (std::size_t n : {7u, 64u, 65u, 1380u})
      for (std::size_t k : {16u, 300u}) {
        const Shape shape{m, n, k};
        const std::vector<double> a = random_values(m * k, rng);
        const std::vector<double> b = random_values(k * n, rng);
        const std::vector<double> c0 = random_values(m * n, rng);
        const std::vector<double> bias = random_values(n, rng);
        std::size_t combo = 0;
        for (const Variant& variant : kVariants)
          for (bool accumulate : {false, true}) {
            const Epilogue epilogue = kEpilogues[combo++ % 3];
            std::vector<double> c_ref = c0;
            const std::vector<double> expected = reference_gemm(
                build_call(shape, variant, a, b, c_ref, accumulate, epilogue,
                           bias.data()),
                c0);
            for (IsaPath path : supported_paths()) {
              PathGuard guard(path);
              std::vector<double> c1;
              for (std::size_t threads : {1u, 2u, 5u}) {
                par::set_threads(threads);
                std::vector<double> c = c0;
                gemm(build_call(shape, variant, a, b, c, accumulate, epilogue,
                                bias.data()));
                if (threads == 1) {
                  for (std::size_t v = 0; v < c.size(); ++v)
                    ASSERT_NEAR(c[v], expected[v],
                                1e-12 * (1.0 + std::fabs(expected[v])))
                        << path_name(path) << " " << variant.name
                        << " m=" << m << " n=" << n << " k=" << k
                        << " acc=" << accumulate << " elem=" << v;
                  c1 = std::move(c);
                } else {
                  EXPECT_EQ(0, std::memcmp(c1.data(), c.data(),
                                           c.size() * sizeof(double)))
                      << path_name(path) << " " << variant.name << " m=" << m
                      << " n=" << n << " k=" << k << " acc=" << accumulate
                      << " threads=" << threads;
                }
              }
            }
          }
      }
  par::set_threads(1);
}

TEST(KernGemm, StepEpilogueEqualsGradientThenSeparateStep) {
  // The fused SGD step against what it replaces: W^T-shaped gradient
  // G = A^T.B accumulated into a zeroed matrix by the same path, then a
  // separate w -= lr * g loop. m covers the column-panel split (16, 48)
  // and the row-block split (97, 320, 1380); n = 7 and 65 leave edge tiles;
  // k = 300 > KC chains two block partial sums before the step. The pad
  // widens lda/ldb on half the shapes.
  constexpr double kLr = 0.0375;
  util::Rng rng(1380320);
  std::size_t case_index = 0;
  for (std::size_t m : {16u, 48u, 97u, 320u, 1380u})
    for (std::size_t n : {7u, 65u, 1380u})
      for (std::size_t k : {16u, 300u}) {
        const std::size_t pad = case_index++ % 2 == 0 ? 0 : 3;
        const std::size_t lda = m + pad, ldb = n + pad;
        const std::vector<double> a = random_values(k * lda, rng);
        std::vector<double> b = random_values(k * ldb, rng);
        for (std::size_t p = 0; p < k; ++p) b[p * ldb] = 0.0;  // g(:, 0) = 0
        std::vector<double> w0 = random_values(m * n, rng);
        w0[0] = -0.0;  // a zero step keeps the sign of a zero weight
        for (IsaPath path : supported_paths()) {
          PathGuard guard(path);
          par::set_threads(1);
          std::vector<double> grad(m * n, 0.0);
          gemm_tn(m, n, k, a.data(), lda, b.data(), ldb, grad.data(), n,
                  /*accumulate=*/true);
          std::vector<double> want = w0;
          for (std::size_t v = 0; v < want.size(); ++v)
            want[v] -= kLr * grad[v];
          for (std::size_t threads : {1u, 2u, 5u}) {
            par::set_threads(threads);
            std::vector<double> w = w0;
            gemm_tn_step(m, n, k, a.data(), lda, b.data(), ldb, w.data(), n,
                         kLr);
            EXPECT_EQ(0, std::memcmp(w.data(), want.data(),
                                     w.size() * sizeof(double)))
                << path_name(path) << " m=" << m << " n=" << n << " k=" << k
                << " pad=" << pad << " threads=" << threads;
          }
        }
      }
  par::set_threads(1);
  // k == 0 steps by a zero gradient: the weights keep their bits.
  std::vector<double> w = {1.5, -0.0, 0.0, -2.0};
  const std::vector<double> w_before = w;
  gemm_tn_step(2, 2, 0, nullptr, 2, nullptr, 2, w.data(), 2, kLr);
  EXPECT_EQ(0, std::memcmp(w.data(), w_before.data(),
                           w.size() * sizeof(double)));
}

TEST(KernGemm, RowMapsReadAndWriteRowsInPlaceBitForBit) {
  // A call whose B rows and C rows sit at mapped rows of larger buffers
  // returns, on every path and thread count, the bits of the same call on
  // the rows gathered into dense operands; a mapped step leaves every
  // unmapped row of its buffer untouched. m = 16 takes the column-panel
  // split, m = 300 the row-block split, k = 300 chains two KC blocks.
  constexpr std::size_t kPool = 700;  // buffer rows the maps pick from
  constexpr double kLr = 0.05;
  util::Rng rng(9);
  const auto pick = [&](std::size_t count) {
    std::vector<std::uint32_t> rows;
    for (std::uint32_t r = 0; r < kPool && rows.size() < count; ++r)
      if (rng.uniform() < 0.5 || kPool - r <= count - rows.size())
        rows.push_back(r);
    return rows;
  };
  const IsaPath previous = active_path();
  for (std::size_t m : {16u, 300u})
    for (std::size_t k : {40u, 300u})
      for (const Variant& variant : kVariants) {
        const std::size_t n = 72;
        const Shape shape{m, n, k};
        const std::size_t b_stored = variant.b_trans ? n : k;
        const std::size_t b_cols = variant.b_trans ? k : n;
        const std::vector<double> a = random_values(m * k, rng);
        const std::vector<double> b_pool = random_values(kPool * b_cols, rng);
        const std::vector<double> c_pool = random_values(kPool * n, rng);
        const std::vector<std::uint32_t> b_rows = pick(b_stored);
        const std::vector<std::uint32_t> c_rows = pick(m);
        std::vector<double> b_dense(b_stored * b_cols), c_dense(m * n);
        for (std::size_t r = 0; r < b_stored; ++r)
          std::copy_n(b_pool.begin() + b_rows[r] * b_cols, b_cols,
                      b_dense.begin() + r * b_cols);
        for (std::size_t i = 0; i < m; ++i)
          std::copy_n(c_pool.begin() + c_rows[i] * n, n,
                      c_dense.begin() + i * n);
        for (bool step : {false, true}) {
          if (step && variant.name != std::string("tn")) continue;
          for (IsaPath path : supported_paths()) {
            force_path(path);
            for (std::size_t threads : {1u, 4u}) {
              par::set_threads(threads);
              std::vector<double> want = c_dense;
              GemmCall dense = build_call(shape, variant, a, b_dense, want,
                                          /*accumulate=*/!step);
              if (step) {
                dense.epilogue = Epilogue::kStep;
                dense.scale = kLr;
              }
              gemm(dense);
              std::vector<double> got = c_pool;
              GemmCall mapped = dense;
              mapped.b = b_pool.data();
              mapped.b_rows = b_rows.data();
              mapped.c = got.data();
              mapped.c_rows = c_rows.data();
              gemm(mapped);
              std::vector<double> expect = c_pool;
              for (std::size_t i = 0; i < m; ++i)
                std::copy_n(want.begin() + i * n, n,
                            expect.begin() + c_rows[i] * n);
              EXPECT_EQ(0, std::memcmp(got.data(), expect.data(),
                                       got.size() * sizeof(double)))
                  << path_name(path) << " " << variant.name << " m=" << m
                  << " k=" << k << " step=" << step
                  << " threads=" << threads;
            }
          }
        }
      }
  force_path(previous);
  par::set_threads(1);

  // C rows that do not ascend strictly would let two chunks write one row.
  std::vector<double> a(4, 1.0), b(4, 1.0), c(8, 0.0);
  const std::vector<std::uint32_t> repeated = {1, 1};
  GemmCall call = build_call({2, 2, 2}, kVariants[0], a, b, c, false);
  call.c_rows = repeated.data();
  EXPECT_THROW(gemm(call), std::invalid_argument);
}

TEST(KernGemm, RejectsMalformedCalls) {
  std::vector<double> a(6), b(6), c(6);
  EXPECT_THROW(gemm_nn(2, 2, 2, nullptr, 2, b.data(), 2, c.data(), 2),
               std::invalid_argument);
  EXPECT_THROW(gemm_nn(2, 2, 2, a.data(), 2, b.data(), 2, c.data(), 1),
               std::invalid_argument);
  EXPECT_THROW(gemm_nn(2, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2,
                       false, Epilogue::kBias, nullptr),
               std::invalid_argument);
  // Leading dimensions shorter than a stored row: A is m x k (k x m
  // transposed), B is k x n (n x k transposed).
  EXPECT_THROW(gemm_nn(2, 2, 2, a.data(), 1, b.data(), 2, c.data(), 2),
               std::invalid_argument);
  EXPECT_THROW(gemm_nn(2, 2, 2, a.data(), 2, b.data(), 1, c.data(), 2),
               std::invalid_argument);
  EXPECT_THROW(gemm_tn(3, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2),
               std::invalid_argument);
  EXPECT_THROW(gemm_nt(2, 2, 3, a.data(), 3, b.data(), 2, c.data(), 2),
               std::invalid_argument);
  EXPECT_NO_THROW(gemm_tn(3, 2, 2, a.data(), 3, b.data(), 2, c.data(), 2));
  EXPECT_NO_THROW(gemm_nn(2, 2, 0, nullptr, 0, nullptr, 0, c.data(), 2));
  // A step may not accumulate, and its output may not overlap an operand.
  GemmCall step;
  step.m = step.n = step.k = 2;
  step.a = a.data();
  step.lda = 2;
  step.a_trans = true;
  step.b = b.data();
  step.ldb = 2;
  step.c = c.data();
  step.ldc = 2;
  step.epilogue = Epilogue::kStep;
  step.scale = 0.1;
  EXPECT_NO_THROW(gemm(step));
  step.accumulate = true;
  EXPECT_THROW(gemm(step), std::invalid_argument);
  step.accumulate = false;
  EXPECT_THROW(gemm_tn_step(2, 2, 2, c.data(), 2, b.data(), 2, c.data(), 2,
                            0.1),
               std::invalid_argument);
  EXPECT_THROW(gemm_tn_step(2, 2, 2, a.data(), 2, c.data(), 2, c.data(), 2,
                            0.1),
               std::invalid_argument);
  // Partial overlap: W's last element is B's first.
  EXPECT_THROW(gemm_tn_step(2, 2, 2, a.data(), 2, c.data() + 3, 2, c.data(),
                            2, 0.1),
               std::invalid_argument);
  EXPECT_NO_THROW(gemm_tn_step(2, 2, 1, a.data(), 2, c.data() + 4, 2,
                               c.data(), 2, 0.1));
}

// ---------- sparse-input products ----------

/// A dense m x k operand with its CSR twin. Row r's layout is picked by
/// r % 5: a sparse row (~6 % non-zero), an empty row, a row whose entries
/// skip a whole KC block (columns < 64 and >= 512 only), a dense row, and
/// a row of one entry in the last column.
struct SparseOperand {
  std::vector<double> dense;
  std::vector<std::uint64_t> offsets{0};
  std::vector<std::uint32_t> index;
  std::vector<double> values;
  CsrView view(std::size_t k) const {
    CsrView v;
    v.rows = offsets.size() - 1;
    v.cols = k;
    v.offsets = offsets.data();
    v.index = index.data();
    v.values = values.data();
    return v;
  }
};

SparseOperand sparse_operand(std::size_t m, std::size_t k, util::Rng& rng,
                             bool all_zero = false) {
  SparseOperand op;
  op.dense.assign(m * k, 0.0);
  for (std::size_t r = 0; r < m && !all_zero; ++r)
    for (std::size_t c = 0; c < k; ++c) {
      bool set = false;
      switch (r % 5) {
        case 0: set = rng.uniform() < 0.06; break;
        case 1: break;
        case 2: set = (c < 64 || c >= 512) && rng.uniform() < 0.2; break;
        case 3: set = true; break;
        case 4: set = c + 1 == k; break;
      }
      if (set) op.dense[r * k + c] = std::log1p(rng.uniform(0.0, 5.0));
    }
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < k; ++c)
      if (op.dense[r * k + c] != 0.0) {
        op.index.push_back(static_cast<std::uint32_t>(c));
        op.values.push_back(op.dense[r * k + c]);
      }
    op.offsets.push_back(op.index.size());
  }
  return op;
}

TEST(KernSparse, ForwardEqualsDenseGemmBitForBit) {
  // k = 1380 spans six KC blocks (rows of layout 2 leave blocks 1 empty);
  // n = 5 and 45 leave vector tails, 320 is the bottom layer's width.
  const Epilogue kEpilogues[] = {Epilogue::kNone, Epilogue::kBias,
                                 Epilogue::kBiasRelu, Epilogue::kBiasSigmoid,
                                 Epilogue::kBiasTanh};
  util::Rng rng(2100);
  std::size_t case_index = 0;
  for (std::size_t m : {1u, 16u, 97u})
    for (std::size_t k : {7u, 300u, 1380u})
      for (std::size_t n : {5u, 45u, 320u})
        for (bool all_zero : {false, true}) {
          const SparseOperand a = sparse_operand(m, k, rng, all_zero);
          const std::vector<double> w = random_values(k * n, rng);  // k x n
          std::vector<double> wt(n * k);                            // n x k
          for (std::size_t p = 0; p < k; ++p)
            for (std::size_t j = 0; j < n; ++j) wt[j * k + p] = w[p * n + j];
          const std::vector<double> bias = random_values(n, rng);
          const Epilogue epilogue = kEpilogues[case_index++ % 5];
          for (IsaPath path : supported_paths()) {
            PathGuard guard(path);
            par::set_threads(1);
            std::vector<double> want_nn(m * n), want_nt(m * n);
            gemm_nn(m, n, k, a.dense.data(), k, w.data(), n, want_nn.data(),
                    n, false, epilogue, bias.data());
            gemm_nt(m, n, k, a.dense.data(), k, wt.data(), k, want_nt.data(),
                    n, false, epilogue, bias.data());
            ASSERT_EQ(0, std::memcmp(want_nn.data(), want_nt.data(),
                                     want_nn.size() * sizeof(double)));
            for (std::size_t threads : {1u, 4u}) {
              par::set_threads(threads);
              std::vector<double> c(m * n, -1.0);
              sparse_gemm_nn(a.view(k), w.data(), n, n, c.data(), n,
                             epilogue, bias.data());
              EXPECT_EQ(0, std::memcmp(c.data(), want_nt.data(),
                                       c.size() * sizeof(double)))
                  << path_name(path) << " m=" << m << " k=" << k
                  << " n=" << n << " zero=" << all_zero
                  << " threads=" << threads;
            }
          }
        }
  par::set_threads(1);
}

TEST(KernSparse, StepEqualsDenseStepBitForBit) {
  // Batches of 16, 280 (two KC blocks of rows) and 600 (three, the middle
  // one empty for every column but 0-7), against gemm_tn_step on the
  // densified batch. An all-zero batch touches no weight, the -0.0 among
  // them included, and must leave every bit as it was.
  constexpr double kLr = 0.0375;
  util::Rng rng(1380280);
  for (std::size_t m : {16u, 280u, 600u})
    for (std::size_t k : {300u, 1380u})
      for (std::size_t n : {5u, 45u, 320u})
        for (bool all_zero : {false, true}) {
          SparseOperand a = sparse_operand(m, k, rng, all_zero);
          if (m == 600 && !all_zero) {
            // Rows 256-511 keep only their entries in columns < 8.
            SparseOperand b;
            b.dense = a.dense;
            for (std::size_t r = 256; r < 512; ++r)
              for (std::size_t c = 8; c < k; ++c) b.dense[r * k + c] = 0.0;
            for (std::size_t r = 0; r < m; ++r) {
              for (std::size_t c = 0; c < k; ++c)
                if (b.dense[r * k + c] != 0.0) {
                  b.index.push_back(static_cast<std::uint32_t>(c));
                  b.values.push_back(b.dense[r * k + c]);
                }
              b.offsets.push_back(b.index.size());
            }
            a = std::move(b);
          }
          const std::vector<double> g = random_values(m * n, rng);
          std::vector<double> w0 = random_values(k * n, rng);
          w0[1 * n] = -0.0;
          for (IsaPath path : supported_paths()) {
            PathGuard guard(path);
            par::set_threads(1);
            std::vector<double> want = w0;
            gemm_tn_step(k, n, m, a.dense.data(), k, g.data(), n, want.data(),
                         n, kLr);
            if (all_zero) {
              ASSERT_EQ(0, std::memcmp(want.data(), w0.data(),
                                       w0.size() * sizeof(double)));
            }
            for (std::size_t threads : {1u, 4u}) {
              par::set_threads(threads);
              std::vector<double> w = w0;
              sparse_tn_step(a.view(k), g.data(), n, n, w.data(), n, kLr);
              EXPECT_EQ(0, std::memcmp(w.data(), want.data(),
                                       w.size() * sizeof(double)))
                  << path_name(path) << " m=" << m << " k=" << k
                  << " n=" << n << " zero=" << all_zero
                  << " threads=" << threads;
            }
          }
        }
  par::set_threads(1);
}

TEST(KernSparse, RejectsMalformedCalls) {
  const std::vector<std::uint64_t> offsets = {0, 2};
  std::vector<std::uint32_t> index = {1, 3};
  const std::vector<double> values = {1.0, 2.0};
  CsrView a;
  a.rows = 1;
  a.cols = 4;
  a.offsets = offsets.data();
  a.index = index.data();
  a.values = values.data();
  std::vector<double> w(4 * 2), c(2), bias(2);
  EXPECT_NO_THROW(sparse_gemm_nn(a, w.data(), 2, 2, c.data(), 2,
                                 Epilogue::kBias, bias.data()));
  EXPECT_THROW(sparse_gemm_nn(a, w.data(), 2, 2, c.data(), 2,
                              Epilogue::kBias, nullptr),
               std::invalid_argument);
  EXPECT_THROW(sparse_gemm_nn(a, w.data(), 2, 2, c.data(), 2,
                              Epilogue::kStep, nullptr),
               std::invalid_argument);
  EXPECT_THROW(sparse_gemm_nn(a, w.data(), 1, 2, c.data(), 2,
                              Epilogue::kNone, nullptr),
               std::invalid_argument);
  EXPECT_THROW(sparse_tn_step(a, w.data(), 2, 2, w.data(), 2, 0.1),
               std::invalid_argument);  // gradient inside the weights
  index = {3, 1};  // descending columns
  EXPECT_THROW(sparse_gemm_nn(a, w.data(), 2, 2, c.data(), 2,
                              Epilogue::kNone, nullptr),
               std::invalid_argument);
  index = {1, 4};  // past the last column
  EXPECT_THROW(sparse_tn_step(a, c.data(), 2, 2, w.data(), 2, 0.1),
               std::invalid_argument);
}

// Values spanning six decades with random signs, so every lane's
// rounding sequence matters.
std::vector<double> mixed_magnitudes(std::size_t count, util::Rng& rng) {
  std::vector<double> values(count);
  for (double& v : values)
    v = rng.normal(0.0, 1.0) * std::pow(10.0, rng.uniform(-3.0, 3.0));
  return values;
}

TEST(KernRows, EveryPathMatchesNaiveLoopBitForBit) {
  // The naive loop below is the contract: any path, any thread count,
  // memcmp-equal. Queries fan out over the pool and share one panel, the
  // way the KNN sweep uses it.
  constexpr std::size_t kQueries = 5;
  util::Rng rng(2400144);
  for (std::size_t n : {1u, 7u, 8u, 9u, 17u, 2400u})
    for (std::size_t dim : {1u, 7u, 8u, 48u, 144u, 1380u}) {
      const std::vector<double> rows = mixed_magnitudes(n * dim, rng);
      const std::vector<double> queries =
          mixed_magnitudes(kQueries * dim, rng);
      std::vector<double> want(kQueries * n);
      for (std::size_t q = 0; q < kQueries; ++q)
        for (std::size_t r = 0; r < n; ++r) {
          double dist = 0.0;
          for (std::size_t c = 0; c < dim; ++c) {
            const double d = rows[r * dim + c] - queries[q * dim + c];
            dist += d * d;
          }
          want[q * n + r] = dist;
        }

      const RowPanel panel(rows.data(), n, dim);
      ASSERT_EQ(packed_rows_size(n, dim), (n + 7) / 8 * 8 * dim);
      for (IsaPath path : supported_paths()) {
        PathGuard guard(path);
        for (std::size_t threads : {1u, 2u, 5u}) {
          par::set_threads(threads);
          std::vector<double> dist(kQueries * n);
          par::ParallelOptions options;
          options.grain = 1;
          par::parallel_for(kQueries, options, [&](std::size_t q) {
            panel.sq_dist(queries.data() + q * dim, dist.data() + q * n);
          });
          EXPECT_EQ(0, std::memcmp(dist.data(), want.data(),
                                   dist.size() * sizeof(double)))
              << "sq_dist " << path_name(path) << " n=" << n
              << " dim=" << dim << " threads=" << threads;
        }
      }
      // A sweep may start at any group: rows [8, n) of the same panel.
      if (n > 8) {
        PathGuard guard(supported_paths().back());
        std::vector<double> tail(n - 8);
        sq_dist_rows(panel.from_row(8), n - 8, dim, queries.data(),
                     tail.data());
        EXPECT_EQ(0, std::memcmp(tail.data(), want.data() + 8,
                                 tail.size() * sizeof(double)))
            << "sub-panel n=" << n << " dim=" << dim;
      }
    }
  par::set_threads(1);
}

TEST(KernRows, AccumulateMatchesScalarLoopOnEveryPath) {
  // Lengths cover empty, sub-group, whole-group and ragged tails; offsets
  // of 0-3 doubles move both operands off any vector alignment, and one
  // trailing element past the range must come back untouched.
  util::Rng rng(4864);
  for (std::size_t n = 0; n <= 67; ++n)
    for (std::size_t acc_off : {0u, 1u, 3u})
      for (std::size_t x_off : {0u, 2u}) {
        const std::vector<double> start =
            mixed_magnitudes(n + acc_off + 1, rng);
        const std::vector<double> x = mixed_magnitudes(n + x_off, rng);
        std::vector<double> want = start;
        for (std::size_t i = 0; i < n; ++i)
          want[acc_off + i] += x[x_off + i];
        for (IsaPath path : supported_paths()) {
          PathGuard guard(path);
          std::vector<double> acc = start;
          accumulate(acc.data() + acc_off, x.data() + x_off, n);
          EXPECT_EQ(0, std::memcmp(acc.data(), want.data(),
                                   acc.size() * sizeof(double)))
              << path_name(path) << " n=" << n << " acc_off=" << acc_off
              << " x_off=" << x_off;
        }
      }
}

TEST(KernGemm, PackedRowsProductEqualsGemmNtBitForBit) {
  // A B operand packed once gives gemm_nt's bits for any A block: shapes
  // cover m across the row-block size, n off the panel widths and k
  // across the KC block; a product on another path than the packing's is
  // refused.
  util::Rng rng(256144);
  const Shape shapes[] = {{1, 1, 1},     {7, 13, 5},    {64, 256, 144},
                          {97, 50, 257}, {200, 33, 40}, {5, 9, 0}};
  for (const Shape& shape : shapes) {
    std::vector<double> a(shape.m * (shape.k + 2));
    std::vector<double> b(shape.n * (shape.k + 3));
    for (double& v : a) v = rng.normal();
    for (double& v : b) v = rng.normal();
    for (IsaPath path : supported_paths()) {
      PathGuard guard(path);
      const std::size_t ldc = shape.n + 1;
      std::vector<double> want(shape.m * ldc, -1.0), got(shape.m * ldc, -1.0);
      gemm_nt(shape.m, shape.n, shape.k, a.data(), shape.k + 2, b.data(),
              shape.k + 3, want.data(), ldc);
      PackedRows packed;
      packed.assign(b.data(), shape.n, shape.k, shape.k + 3);
      EXPECT_TRUE(packed.on_active_path());
      EXPECT_EQ(packed.rows(), shape.n);
      for (std::size_t threads : {1u, 3u}) {
        par::set_threads(threads);
        gemm_nt_packed(shape.m, a.data(), shape.k + 2, packed, got.data(),
                       ldc);
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 got.size() * sizeof(double)))
            << path_name(path) << " m=" << shape.m << " n=" << shape.n
            << " k=" << shape.k << " threads=" << threads;
      }
      for (IsaPath other : supported_paths()) {
        if (other == path) continue;
        PathGuard switched(other);
        EXPECT_FALSE(packed.on_active_path());
        EXPECT_THROW(gemm_nt_packed(shape.m, a.data(), shape.k + 2, packed,
                                    got.data(), ldc),
                     std::logic_error);
      }
    }
  }
  par::set_threads(1);
}

/// Distance in units in the last place between two finite doubles of the
/// same sign.
std::uint64_t ulp_distance(double a, double b) {
  const std::uint64_t x = std::bit_cast<std::uint64_t>(a);
  const std::uint64_t y = std::bit_cast<std::uint64_t>(b);
  return x > y ? x - y : y - x;
}

TEST(KernRbf, ExpIsWithinOneUlpOfStdExpOnEveryPath) {
  // The RBF epilogue's own exp: within 1 ulp of libm on [-708, 0] (every
  // kernel argument -gamma * dist lands there until the term underflows),
  // exactly 1 at +-0, +0 below the underflow point, and the same bits on
  // every path. Odd lengths exercise the tail group.
  util::Rng rng(708);
  std::vector<double> x = {0.0,   -0.0,     -1e-300, -1e-17, -0x1p-53,
                           -0.5,  -1.0,     -708.0,  -707.9, -700.0,
                           -50.0, -0.34657, -0.6931471805599453};
  for (int i = 0; i < 200000; ++i) x.push_back(-708.0 * rng.uniform());
  for (int i = 0; i < 20000; ++i)
    x.push_back(-std::ldexp(rng.uniform(), -(i % 60)));
  x.push_back(-1.0);  // odd length
  std::vector<double> reference;
  for (IsaPath path : supported_paths()) {
    PathGuard guard(path);
    std::vector<double> got(x.size());
    exp_values(x.data(), x.size(), got.data());
    std::uint64_t worst = 0;
    double worst_x = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const std::uint64_t ulps = ulp_distance(got[i], std::exp(x[i]));
      if (ulps > worst) {
        worst = ulps;
        worst_x = x[i];
      }
    }
    EXPECT_LE(worst, 1u) << path_name(path) << " at x=" << worst_x;
    EXPECT_EQ(got[0], 1.0) << path_name(path);
    EXPECT_EQ(got[1], 1.0) << path_name(path);
    if (reference.empty()) reference = got;
    EXPECT_EQ(0, std::memcmp(got.data(), reference.data(),
                             got.size() * sizeof(double)))
        << path_name(path);

    const double below[] = {-745.2, -746.0, -750.0, -1000.0, -1e300,
                            -std::numeric_limits<double>::infinity()};
    double under[std::size(below)];
    exp_values(below, std::size(below), under);
    for (std::size_t i = 0; i < std::size(below); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(under[i]), 0u)
          << path_name(path) << " x=" << below[i];
    const double nan = std::nan("");
    double out = 0.0;
    exp_values(&nan, 1, &out);
    EXPECT_TRUE(std::isnan(out)) << path_name(path);
  }
}

/// A random RBF block: dots from gemm_nt of random queries and support
/// rows, norms from row_norms, on the active path.
struct RbfCase {
  std::size_t m, n, dim;
  std::vector<double> q, s, dots, q_norms, s_norms, weights;

  RbfCase(std::size_t m_, std::size_t n_, std::size_t dim_, util::Rng& rng)
      : m(m_), n(n_), dim(dim_), q(m * dim), s(n * dim), dots(m * n),
        q_norms(m), s_norms(n), weights(n) {
    for (double& v : q) v = rng.normal(0.0, 0.7);
    for (double& v : s) v = rng.normal(0.0, 0.7);
    for (double& v : weights) v = rng.normal(0.0, 3.0);
    // A query equal to a support row: its term must be exactly 1.
    if (m > 1 && n > 2) std::copy_n(s.data() + 2 * dim, dim, q.data() + dim);
    gemm_nt(m, n, dim, q.data(), dim, s.data(), dim, dots.data(), n);
    row_norms(q.data(), m, dim, dim, q_norms.data());
    row_norms(s.data(), n, dim, dim, s_norms.data());
  }

  RbfBlock block(double gamma) const {
    RbfBlock b;
    b.dots = dots.data();
    b.m = m;
    b.n = b.ld = n;
    b.q_norms = q_norms.data();
    b.s_norms = s_norms.data();
    b.gamma = gamma;
    return b;
  }
};

TEST(KernRbf, RowNormsEqualTheGemmDiagonalOnEveryPath) {
  // A row's norm is its own GEMM dot, so a point's RBF distance to itself
  // is exactly 0, on every path; dims straddle the KC block.
  util::Rng rng(144);
  for (std::size_t dim : {1u, 7u, 144u, 255u, 256u, 257u, 700u}) {
    const std::size_t n = 19;
    std::vector<double> x(n * dim);
    for (double& v : x) v = rng.normal(0.0, 1.0);
    for (IsaPath path : supported_paths()) {
      PathGuard guard(path);
      std::vector<double> gram(n * n), norms(n);
      gemm_nt(n, n, dim, x.data(), dim, x.data(), dim, gram.data(), n);
      row_norms(x.data(), n, dim, dim, norms.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(norms[i], gram[i * n + i])
            << path_name(path) << " dim=" << dim << " row=" << i;
        for (std::size_t j = 0; j < i; ++j)
          ASSERT_EQ(gram[i * n + j], gram[j * n + i])
              << path_name(path) << " dim=" << dim;
      }
    }
  }
  std::vector<double> out(1);
  EXPECT_THROW(row_norms(out.data(), 1, 3, 2, out.data()),
               std::invalid_argument);
}

TEST(KernRbf, EpilogueIsPathIndependentAndMatchesItsDefinition) {
  // Given the same dots and norms, every path writes the same terms and the
  // same striped sums; the terms follow exp(-gamma * max(0, qn + sn -
  // 2 dot)) through exp_values, and the sums stripe by column mod 8 and
  // run on across tiles that start at multiples of 8.
  util::Rng rng(967);
  const double gamma = 0.05;
  for (std::size_t n : {1u, 8u, 13u, 40u, 67u})
    for (std::size_t m : {1u, 3u, 9u}) {
      const RbfCase c(m, n, 21, rng);
      const RbfBlock block = c.block(gamma);
      std::vector<double> args(m * n), want(m * n);
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
          const double dist =
              (c.q_norms[i] + c.s_norms[j]) - 2.0 * c.dots[i * n + j];
          args[i * n + j] = -gamma * (dist > 0.0 ? dist : 0.0);
        }
      exp_values(args.data(), args.size(), want.data());
      std::vector<double> want_partials(m * kRowGroup, 0.0);
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
          want_partials[i * kRowGroup + j % kRowGroup] +=
              c.weights[j] * want[i * n + j];
      if (m > 1 && n > 2) {
        EXPECT_EQ(want[n + 2], 1.0);
      }

      for (IsaPath path : supported_paths()) {
        PathGuard guard(path);
        // Written with a wider output stride, and in place over the dots.
        std::vector<double> terms(m * (n + 3), -1.0);
        rbf_kernel(block, terms.data(), n + 3);
        for (std::size_t i = 0; i < m; ++i) {
          EXPECT_EQ(0, std::memcmp(terms.data() + i * (n + 3),
                                   want.data() + i * n, n * sizeof(double)))
              << path_name(path) << " m=" << m << " n=" << n << " row=" << i;
          for (std::size_t j = n; j < n + 3; ++j)
            EXPECT_EQ(terms[i * (n + 3) + j], -1.0);
        }
        std::vector<double> in_place = c.dots;
        RbfBlock self = block;
        self.dots = in_place.data();
        rbf_kernel(self, in_place.data(), n);
        EXPECT_EQ(0, std::memcmp(in_place.data(), want.data(),
                                 want.size() * sizeof(double)))
            << path_name(path);

        std::vector<double> partials(m * kRowGroup, 0.0);
        rbf_accumulate(block, c.weights.data(), partials.data());
        EXPECT_EQ(0, std::memcmp(partials.data(), want_partials.data(),
                                 partials.size() * sizeof(double)))
            << path_name(path) << " m=" << m << " n=" << n;
        // Two tiles split at a multiple of 8 continue one striping.
        if (n > 8) {
          std::vector<double> tiled(m * kRowGroup, 0.0), first(m * 8);
          for (std::size_t i = 0; i < m; ++i)
            std::copy_n(c.dots.data() + i * n, 8, first.data() + i * 8);
          RbfBlock head = block;
          head.dots = first.data();
          head.n = head.ld = 8;
          rbf_accumulate(head, c.weights.data(), tiled.data());
          RbfBlock rest = block;
          rest.dots = c.dots.data() + 8;
          rest.n = n - 8;
          rest.s_norms = c.s_norms.data() + 8;
          rbf_accumulate(rest, c.weights.data() + 8, tiled.data());
          EXPECT_EQ(0, std::memcmp(tiled.data(), want_partials.data(),
                                   tiled.size() * sizeof(double)))
              << path_name(path) << " m=" << m << " n=" << n;
        }
      }
    }
  RbfBlock bad;
  bad.m = bad.n = 4;
  bad.ld = 3;
  double out[16];
  EXPECT_THROW(rbf_kernel(bad, out, 4), std::invalid_argument);
  EXPECT_THROW(rbf_accumulate(bad, out, out), std::invalid_argument);
}

TEST(KernRbf, StripeSumAddsInAFixedTree) {
  const double p[kRowGroup] = {1e16, 1.0, -1e16, 1.0, 0.5, 0.25, 3.0, -3.0};
  EXPECT_EQ(stripe_sum(p), ((p[0] + p[1]) + (p[2] + p[3])) +
                               ((p[4] + p[5]) + (p[6] + p[7])));
}

TEST(KernAligned, PackScratchAndAllocatorAre64ByteAligned) {
  std::vector<double, util::AlignedAllocator<double>> v(7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
  std::vector<float, util::AlignedAllocator<float>> w(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % 64, 0u);
}

}  // namespace
}  // namespace fs::kern
