#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "kern/kern.h"
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
  util::Rng rng(20260809);
  for (const Shape& shape : kShapes) {
    const std::vector<double> a = random_values(shape.m * shape.k, rng);
    const std::vector<double> b = random_values(shape.k * shape.n, rng);
    const std::vector<double> c0 = random_values(shape.m * shape.n, rng);
    for (const Variant& variant : kVariants) {
      for (bool accumulate : {false, true}) {
        std::vector<double> c_ref = c0;
        const GemmCall probe =
            build_call(shape, variant, a, b, c_ref, accumulate);
        const std::vector<double> expected = reference_gemm(probe, c0);
        for (IsaPath path : supported_paths()) {
          PathGuard guard(path);
          std::vector<double> c = c0;
          gemm(build_call(shape, variant, a, b, c, accumulate));
          for (std::size_t v = 0; v < c.size(); ++v)
            EXPECT_NEAR(c[v], expected[v],
                        1e-12 * (1.0 + std::fabs(expected[v])))
                << path_name(path) << " " << variant.name << " m=" << shape.m
                << " n=" << shape.n << " k=" << shape.k << " acc="
                << accumulate << " elem=" << v;
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

TEST(KernGemm, RejectsMalformedCalls) {
  std::vector<double> a(4), b(4), c(4);
  EXPECT_THROW(gemm_nn(2, 2, 2, nullptr, 2, b.data(), 2, c.data(), 2),
               std::invalid_argument);
  EXPECT_THROW(gemm_nn(2, 2, 2, a.data(), 2, b.data(), 2, c.data(), 1),
               std::invalid_argument);
  EXPECT_THROW(gemm_nn(2, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2,
                       false, Epilogue::kBias, nullptr),
               std::invalid_argument);
}

// ---------- quantized KNN lower bounds ----------

struct QuantizedSet {
  std::vector<std::uint8_t> codes;
  std::vector<float> scale, offset, half_scale;
  std::vector<double> raw;  // n x dim, full precision
};

QuantizedSet quantize_rows(std::size_t n, std::size_t dim, util::Rng& rng) {
  QuantizedSet set;
  set.raw = random_values(n * dim, rng);
  set.codes.resize(n * dim);
  set.scale.resize(dim);
  set.offset.resize(dim);
  set.half_scale.resize(dim);
  for (std::size_t c = 0; c < dim; ++c) {
    double lo = set.raw[c], hi = set.raw[c];
    for (std::size_t i = 1; i < n; ++i) {
      lo = std::min(lo, set.raw[i * dim + c]);
      hi = std::max(hi, set.raw[i * dim + c]);
    }
    const double scale = hi > lo ? (hi - lo) / 255.0 : 0.0;
    set.offset[c] = static_cast<float>(lo);
    set.scale[c] = static_cast<float>(scale);
    set.half_scale[c] = static_cast<float>(scale * 0.5);
    for (std::size_t i = 0; i < n; ++i) {
      const double v = set.raw[i * dim + c];
      const long code =
          scale > 0.0 ? std::lround((v - lo) / scale) : 0;
      set.codes[i * dim + c] =
          static_cast<std::uint8_t>(std::clamp(code, 0l, 255l));
    }
  }
  return set;
}

TEST(KernKnnLb, BoundIsAdmissibleAndPathsAgree) {
  util::Rng rng(555);
  for (std::size_t dim : {1u, 3u, 8u, 16u, 19u, 48u}) {
    const std::size_t n = 64;
    const QuantizedSet set = quantize_rows(n, dim, rng);
    const std::vector<double> query_d = random_values(dim, rng);
    std::vector<float> query(dim);
    for (std::size_t c = 0; c < dim; ++c)
      query[c] = static_cast<float>(query_d[c]);

    std::vector<float> lb_scalar(n);
    {
      PathGuard guard(IsaPath::kScalar);
      knn_lower_bounds(set.codes.data(), n, dim, query.data(),
                       set.scale.data(), set.offset.data(),
                       set.half_scale.data(), lb_scalar.data());
    }
    for (std::size_t i = 0; i < n; ++i) {
      double exact = 0.0;
      for (std::size_t c = 0; c < dim; ++c) {
        const double d = query_d[c] - set.raw[i * dim + c];
        exact += d * d;
      }
      // Admissible modulo f32 rounding: the engine prunes with a relative
      // slack, so the bound must not exceed the true distance by more
      // than that slack.
      EXPECT_LE(static_cast<double>(lb_scalar[i]), exact * (1.0 + 1e-3))
          << "dim=" << dim << " row=" << i;
    }
    for (IsaPath path : supported_paths()) {
      PathGuard guard(path);
      std::vector<float> lb(n);
      knn_lower_bounds(set.codes.data(), n, dim, query.data(),
                       set.scale.data(), set.offset.data(),
                       set.half_scale.data(), lb.data());
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(lb[i], lb_scalar[i], 1e-4f * (1.0f + lb_scalar[i]))
            << path_name(path) << " dim=" << dim << " row=" << i;
    }
  }
}

TEST(KernAligned, PackScratchAndAllocatorAre64ByteAligned) {
  std::vector<double, util::AlignedAllocator<double>> v(7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
  std::vector<float, util::AlignedAllocator<float>> w(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % 64, 0u);
}

}  // namespace
}  // namespace fs::kern
