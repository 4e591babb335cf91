// Portable row sweeps and RBF epilogue: one group of 8 independent scalar
// lanes at a time. Compiled with -ffp-contract=off; the reference the
// vector paths match bit for bit.
#include <bit>
#include <cstddef>
#include <cstdint>

#include "kern/kern_internal.h"
#include "kern/rows_body.h"

namespace fs::kern::detail {

namespace {

struct ScalarLanes {
  struct Vec {
    double v[kRowGroup];
  };
  static constexpr std::size_t kGroups = 1;

  static Vec zero() { return Vec{}; }
  static Vec splat(double x) {
    Vec r;
#pragma GCC unroll 8
    for (std::size_t l = 0; l < kRowGroup; ++l) r.v[l] = x;
    return r;
  }
  static Vec load(const double* p) {
    Vec r;
#pragma GCC unroll 8
    for (std::size_t l = 0; l < kRowGroup; ++l) r.v[l] = p[l];
    return r;
  }
  static void store(double* p, const Vec& x) {
#pragma GCC unroll 8
    for (std::size_t l = 0; l < kRowGroup; ++l) p[l] = x.v[l];
  }
  static Vec add(const Vec& a, const Vec& b) {
    Vec r;
#pragma GCC unroll 8
    for (std::size_t l = 0; l < kRowGroup; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
  }
  static Vec sub(const Vec& a, const Vec& b) {
    Vec r;
#pragma GCC unroll 8
    for (std::size_t l = 0; l < kRowGroup; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
  }
  static Vec mul(const Vec& a, const Vec& b) {
    Vec r;
#pragma GCC unroll 8
    for (std::size_t l = 0; l < kRowGroup; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
  }
  static Vec div(const Vec& a, const Vec& b) {
    Vec r;
#pragma GCC unroll 8
    for (std::size_t l = 0; l < kRowGroup; ++l) r.v[l] = a.v[l] / b.v[l];
    return r;
  }
  static Vec max(const Vec& a, const Vec& b) {
    Vec r;
#pragma GCC unroll 8
    for (std::size_t l = 0; l < kRowGroup; ++l)
      r.v[l] = a.v[l] > b.v[l] ? a.v[l] : b.v[l];
    return r;
  }
  static Vec min(const Vec& a, const Vec& b) {
    Vec r;
#pragma GCC unroll 8
    for (std::size_t l = 0; l < kRowGroup; ++l)
      r.v[l] = a.v[l] < b.v[l] ? a.v[l] : b.v[l];
    return r;
  }
  static Vec pow2(const Vec& t) {
    Vec r;
#pragma GCC unroll 8
    for (std::size_t l = 0; l < kRowGroup; ++l)
      r.v[l] = std::bit_cast<double>(
          (std::bit_cast<std::uint64_t>(t.v[l]) + 1023) << 52);
    return r;
  }
};

}  // namespace

const RowKernels* rows_scalar() { return row_kernels<ScalarLanes>(); }

}  // namespace fs::kern::detail
