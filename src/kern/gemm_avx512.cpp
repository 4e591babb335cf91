// AVX-512F path: 8x24 register tile of double — three 512-bit B vectors
// per tile row, 24 zmm accumulators (enough independent FMA chains to
// cover the FMA latency on both ports), FMA accumulation in ascending-k
// order. Compiled with -mavx512f -mfma on x86-64 builds; on
// any other toolchain the TU degrades to a null vtable.
#include <cmath>
#include <cstddef>

#include "kern/kern_internal.h"

#if defined(__x86_64__) && defined(__AVX512F__)

#include <immintrin.h>

#include "kern/gemm_body.h"
#include "kern/sparse_body.h"

namespace fs::kern::detail {

namespace {

struct Avx512Arch {
  static constexpr std::size_t kMr = 8;
  static constexpr std::size_t kNr = 24;
  static constexpr std::size_t kCols = kNr / 8;  // zmm vectors per tile row

  static void micro_kernel(std::size_t kc, const double* ap, const double* bp,
                           double* acc) {
    __m512d c[kMr][kCols];
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kMr; ++i)
#pragma GCC unroll 3
      for (std::size_t j = 0; j < kCols; ++j) c[i][j] = _mm512_setzero_pd();
    for (std::size_t p = 0; p < kc; ++p) {
      // Panel bases and the p-stride (24 doubles) are 64-byte aligned.
      __m512d b[kCols];
#pragma GCC unroll 3
      for (std::size_t j = 0; j < kCols; ++j)
        b[j] = _mm512_load_pd(bp + p * kNr + j * 8);
      const double* arow = ap + p * kMr;
#pragma GCC unroll 8
      for (std::size_t i = 0; i < kMr; ++i) {
        const __m512d a = _mm512_set1_pd(arow[i]);
#pragma GCC unroll 3
        for (std::size_t j = 0; j < kCols; ++j)
          c[i][j] = _mm512_fmadd_pd(a, b[j], c[i][j]);
      }
    }
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kMr; ++i)
#pragma GCC unroll 3
      for (std::size_t j = 0; j < kCols; ++j)
        _mm512_store_pd(acc + i * kNr + j * 8, c[i][j]);
  }
};

/// Eight doubles per zmm; FMA like the micro-kernel.
struct Avx512Lanes {
  using V = __m512d;
  static constexpr std::size_t kLanes = 8;
  static V zero() { return _mm512_setzero_pd(); }
  static V load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, V v) { _mm512_storeu_pd(p, v); }
  static V fmadd(double a, V b, V acc) {
    return _mm512_fmadd_pd(_mm512_set1_pd(a), b, acc);
  }
  static double fmadd1(double a, double b, double acc) {
    return std::fma(a, b, acc);
  }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  static V step(V w, double lr, V g) {
    return _mm512_sub_pd(w, _mm512_mul_pd(_mm512_set1_pd(lr), g));
  }
};

void gemm_entry(const GemmCall& call) { run_gemm<Avx512Arch>(call); }

}  // namespace

const VTable* vtable_avx512() {
  static const VTable table{&gemm_entry,
                            Avx512Arch::kNr,
                            &pack_nt_body<Avx512Arch>,
                            &gemm_packed_body<Avx512Arch>,
                            &row_norms_body<Avx512Lanes>,
                            &sparse_rows<Avx512Lanes>,
                            &sparse_step_cols<Avx512Lanes>};
  return &table;
}

}  // namespace fs::kern::detail

#else  // portable build without AVX-512: path compiled out

namespace fs::kern::detail {

const VTable* vtable_avx512() { return nullptr; }

}  // namespace fs::kern::detail

#endif
