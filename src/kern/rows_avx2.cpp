// AVX2 row sweeps and RBF epilogue: a group is two ymm registers, four
// groups (eight ymm accumulators) per column step. Compiled with -mavx2
// -ffp-contract=off and deliberately without -mfma: separate multiply and
// add are what keep these bits equal to the scalar path's. On any other
// toolchain the TU degrades to a null table and dispatch never selects it.
#include <cstddef>

#include "kern/kern_internal.h"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include "kern/rows_body.h"

namespace fs::kern::detail {

namespace {

struct Avx2Lanes {
  struct Vec {
    __m256d lo, hi;
  };
  static constexpr std::size_t kGroups = 4;

  static Vec zero() { return {_mm256_setzero_pd(), _mm256_setzero_pd()}; }
  static Vec splat(double x) {
    const __m256d v = _mm256_set1_pd(x);
    return {v, v};
  }
  static Vec load(const double* p) {
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
  }
  static void store(double* p, Vec x) {
    _mm256_storeu_pd(p, x.lo);
    _mm256_storeu_pd(p + 4, x.hi);
  }
  static Vec add(Vec a, Vec b) {
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
  }
  static Vec sub(Vec a, Vec b) {
    return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
  }
  static Vec mul(Vec a, Vec b) {
    return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
  }
  static Vec div(Vec a, Vec b) {
    return {_mm256_div_pd(a.lo, b.lo), _mm256_div_pd(a.hi, b.hi)};
  }
  // maxpd/minpd return the second operand when the compare is false,
  // NaN included: a > b ? a : b and a < b ? a : b.
  static Vec max(Vec a, Vec b) {
    return {_mm256_max_pd(a.lo, b.lo), _mm256_max_pd(a.hi, b.hi)};
  }
  static Vec min(Vec a, Vec b) {
    return {_mm256_min_pd(a.lo, b.lo), _mm256_min_pd(a.hi, b.hi)};
  }
  static __m256d pow2(__m256d t) {
    const __m256i bits = _mm256_add_epi64(_mm256_castpd_si256(t),
                                          _mm256_set1_epi64x(1023));
    return _mm256_castsi256_pd(_mm256_slli_epi64(bits, 52));
  }
  static Vec pow2(Vec t) { return {pow2(t.lo), pow2(t.hi)}; }
};

}  // namespace

const RowKernels* rows_avx2() { return row_kernels<Avx2Lanes>(); }

}  // namespace fs::kern::detail

#else

namespace fs::kern::detail {

const RowKernels* rows_avx2() { return nullptr; }

}  // namespace fs::kern::detail

#endif
