// Shared row-sweep driver, templated over a lane policy.
//
// Each rows_*.cpp instantiates row_kernels<Arch> with a policy type from
// its anonymous namespace (so no instantiation can be ODR-merged across
// ISA flags) providing:
//
//   using Vec = ...;                         // kRowGroup doubles
//   static constexpr std::size_t kGroups;    // groups swept side by side
//   static Vec zero();  static Vec splat(double);
//   static Vec load(const double*);  static void store(double*, Vec);
//   static Vec add(Vec, Vec), sub(Vec, Vec), mul(Vec, Vec);
//
// A lane is one (query, row) element. It starts at 0.0 and, column by
// column in ascending order, adds Op's term: (x - q) * (x - q) or x * q,
// each operation rounded on its own. kGroups independent groups share
// every broadcast of q[c] and hide the add latency; they never mix lanes,
// so the bits are the scalar loop's on every path.
#pragma once

#include <cstddef>

#include "kern/kern.h"

namespace fs::kern::detail {

struct SqDistOp {
  template <typename Arch>
  static typename Arch::Vec term(typename Arch::Vec x, typename Arch::Vec q) {
    const typename Arch::Vec d = Arch::sub(x, q);
    return Arch::mul(d, d);
  }
};

struct DotOp {
  template <typename Arch>
  static typename Arch::Vec term(typename Arch::Vec x, typename Arch::Vec q) {
    return Arch::mul(x, q);
  }
};

/// Writes group g's lanes to out, clipping the tail group at n.
template <typename Arch>
void store_group(typename Arch::Vec v, std::size_t g, std::size_t n,
                 double* out) {
  const std::size_t first = g * kRowGroup;
  if (first + kRowGroup <= n) {
    Arch::store(out + first, v);
    return;
  }
  alignas(64) double lanes[kRowGroup];
  Arch::store(lanes, v);
  for (std::size_t l = 0; first + l < n; ++l) out[first + l] = lanes[l];
}

/// Sweeps `count` (<= Arch::kGroups) groups starting at group g.
template <typename Arch, typename Op, std::size_t kCount>
void sweep_groups(const double* panel, std::size_t g, std::size_t n,
                  std::size_t dim, const double* q, double* out) {
  using Vec = typename Arch::Vec;
  const std::size_t stride = dim * kRowGroup;
  const double* base = panel + g * stride;
  Vec acc[kCount];
#pragma GCC unroll 8
  for (std::size_t t = 0; t < kCount; ++t) acc[t] = Arch::zero();
  for (std::size_t c = 0; c < dim; ++c) {
    const Vec qc = Arch::splat(q[c]);
    const double* col = base + c * kRowGroup;
#pragma GCC unroll 8
    for (std::size_t t = 0; t < kCount; ++t)
      acc[t] = Arch::add(
          acc[t], Op::template term<Arch>(Arch::load(col + t * stride), qc));
  }
#pragma GCC unroll 8
  for (std::size_t t = 0; t < kCount; ++t)
    store_group<Arch>(acc[t], g + t, n, out);
}

template <typename Arch, typename Op>
void sweep_rows(const double* panel, std::size_t n, std::size_t dim,
                const double* q, double* out) {
  const std::size_t groups = (n + kRowGroup - 1) / kRowGroup;
  std::size_t g = 0;
  for (; g + Arch::kGroups <= groups; g += Arch::kGroups)
    sweep_groups<Arch, Op, Arch::kGroups>(panel, g, n, dim, q, out);
  for (; g < groups; ++g) sweep_groups<Arch, Op, 1>(panel, g, n, dim, q, out);
}

/// acc[i] += x[i]: whole groups as vectors, the tail one element at a
/// time. An element is one add either way, so the split changes no bit.
template <typename Arch>
void accumulate_body(double* acc, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + kRowGroup <= n; i += kRowGroup)
    Arch::store(acc + i, Arch::add(Arch::load(acc + i), Arch::load(x + i)));
  for (; i < n; ++i) acc[i] += x[i];
}

/// The RowKernels table for one lane policy.
template <typename Arch>
const RowKernels* row_kernels() {
  static const RowKernels table{&sweep_rows<Arch, SqDistOp>,
                                &sweep_rows<Arch, DotOp>,
                                &accumulate_body<Arch>};
  return &table;
}

}  // namespace fs::kern::detail
