// AVX-512F row sweeps and RBF epilogue: a group is one zmm register, four
// groups per column step. Compiled with -mavx512f -ffp-contract=off and
// deliberately without -mfma: separate multiply and add are what keep
// these bits equal to the scalar path's. On any other toolchain the TU
// degrades to a null table.
#include <cstddef>

#include "kern/kern_internal.h"

#if defined(__x86_64__) && defined(__AVX512F__)

#include <immintrin.h>

#include "kern/rows_body.h"

namespace fs::kern::detail {

namespace {

struct Avx512Lanes {
  using Vec = __m512d;
  static constexpr std::size_t kGroups = 4;

  static Vec zero() { return _mm512_setzero_pd(); }
  static Vec splat(double x) { return _mm512_set1_pd(x); }
  static Vec load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, Vec x) { _mm512_storeu_pd(p, x); }
  static Vec add(Vec a, Vec b) { return _mm512_add_pd(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm512_sub_pd(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm512_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) { return _mm512_div_pd(a, b); }
  // maxpd/minpd return the second operand when the compare is false,
  // NaN included: a > b ? a : b and a < b ? a : b.
  static Vec max(Vec a, Vec b) { return _mm512_max_pd(a, b); }
  static Vec min(Vec a, Vec b) { return _mm512_min_pd(a, b); }
  static Vec pow2(Vec t) {
    const __m512i bits =
        _mm512_add_epi64(_mm512_castpd_si512(t), _mm512_set1_epi64(1023));
    return _mm512_castsi512_pd(_mm512_slli_epi64(bits, 52));
  }
};

}  // namespace

const RowKernels* rows_avx512() { return row_kernels<Avx512Lanes>(); }

}  // namespace fs::kern::detail

#else

namespace fs::kern::detail {

const RowKernels* rows_avx512() { return nullptr; }

}  // namespace fs::kern::detail

#endif
