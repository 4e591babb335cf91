// Shared row-sweep and RBF-epilogue driver, templated over a lane policy.
//
// Each rows_*.cpp instantiates row_kernels<Arch> with a policy type from
// its anonymous namespace (so no instantiation can be ODR-merged across
// ISA flags) providing:
//
//   using Vec = ...;                         // kRowGroup doubles
//   static constexpr std::size_t kGroups;    // groups swept side by side
//   static Vec zero();  static Vec splat(double);
//   static Vec load(const double*);  static void store(double*, Vec);
//   static Vec add(Vec, Vec), sub(Vec, Vec), mul(Vec, Vec), div(Vec, Vec);
//   static Vec max(Vec a, Vec b);   // a > b ? a : b, per lane
//   static Vec min(Vec a, Vec b);   // a < b ? a : b, per lane
//   static Vec pow2(Vec t);         // 2^m for t = m + kRound (see exp_lanes)
//
// A lane is one element. Every operation is one IEEE operation rounded on
// its own (the TUs are compiled with -ffp-contract=off and without -mfma),
// and lanes never mix, so every path returns the scalar loop's bits.
//
// sq_dist: a lane is one (query, row) pair. It starts at 0.0 and, column
// by column in ascending order, adds (x - q) * (x - q). kGroups
// independent groups share every broadcast of q[c] and hide the add
// latency.
#pragma once

#include <algorithm>
#include <cstddef>

#include "kern/kern.h"

namespace fs::kern::detail {

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
template <typename Arch, std::size_t kCount>
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
    for (std::size_t t = 0; t < kCount; ++t) {
      const Vec d = Arch::sub(Arch::load(col + t * stride), qc);
      acc[t] = Arch::add(acc[t], Arch::mul(d, d));
    }
  }
#pragma GCC unroll 8
  for (std::size_t t = 0; t < kCount; ++t)
    store_group<Arch>(acc[t], g + t, n, out);
}

template <typename Arch>
void sweep_rows(const double* panel, std::size_t n, std::size_t dim,
                const double* q, double* out) {
  const std::size_t groups = (n + kRowGroup - 1) / kRowGroup;
  std::size_t g = 0;
  for (; g + Arch::kGroups <= groups; g += Arch::kGroups)
    sweep_groups<Arch, Arch::kGroups>(panel, g, n, dim, q, out);
  for (; g < groups; ++g) sweep_groups<Arch, 1>(panel, g, n, dim, q, out);
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

// exp constants: fdlibm's e_exp.c. ln2 splits into a 32-bit head, whose
// product with any |n| < 2^11 is exact, and its tail; P1..P5 fit
// r·(e^r + 1)/(e^r − 1) on |r| <= ln2/2.
inline constexpr double kLn2Hi = 0x1.62e42feep-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kInvLn2 = 0x1.71547652b82fep+0;
inline constexpr double kP1 = 0x1.555555555553ep-3;
inline constexpr double kP2 = -0x1.6c16c16bebd93p-9;
inline constexpr double kP3 = 0x1.1566aaf25de2cp-14;
inline constexpr double kP4 = -0x1.bbd41c5d26bf1p-20;
inline constexpr double kP5 = 0x1.6376972bea4d0p-25;
/// 1.5 * 2^52: adding it rounds a double of magnitude < 2^51 to the
/// nearest integer m, which then sits in the low bits of the sum.
inline constexpr double kRound = 0x1.8p52;
/// Clamp bounds: exp(-750) is +0 and exp(710) is +inf, and inside them
/// every scale factor below is a normal double.
inline constexpr double kExpLo = -750.0;
inline constexpr double kExpHi = 710.0;

/// exp of each lane: x = n·ln2 + r with n = round(x / ln2) and
/// |r| <= ln2/2 (Cody-Waite), e^r from fdlibm's rational correction
/// 1 − ((lo − r·c / (2 − c)) − hi), and the scale 2^n applied as
/// 2^n1 · 2^n2 with n1 = round(n / 2), so a subnormal result rounds once.
/// NaN propagates; exp(±0) is exactly 1.
template <typename Arch>
[[gnu::always_inline]] inline typename Arch::Vec exp_lanes(
    typename Arch::Vec x) {
  using Vec = typename Arch::Vec;
  const Vec round = Arch::splat(kRound);
  x = Arch::min(Arch::splat(kExpHi), Arch::max(Arch::splat(kExpLo), x));
  const Vec n = Arch::sub(
      Arch::add(Arch::mul(x, Arch::splat(kInvLn2)), round), round);
  const Vec hi = Arch::sub(x, Arch::mul(n, Arch::splat(kLn2Hi)));
  const Vec lo = Arch::mul(n, Arch::splat(kLn2Lo));
  const Vec r = Arch::sub(hi, lo);
  const Vec t = Arch::mul(r, r);
  Vec p = Arch::splat(kP5);
  p = Arch::add(Arch::splat(kP4), Arch::mul(t, p));
  p = Arch::add(Arch::splat(kP3), Arch::mul(t, p));
  p = Arch::add(Arch::splat(kP2), Arch::mul(t, p));
  p = Arch::add(Arch::splat(kP1), Arch::mul(t, p));
  const Vec c = Arch::sub(r, Arch::mul(t, p));
  const Vec y = Arch::sub(
      Arch::splat(1.0),
      Arch::sub(Arch::sub(lo, Arch::div(Arch::mul(r, c),
                                        Arch::sub(Arch::splat(2.0), c))),
                hi));
  const Vec t1 = Arch::add(Arch::mul(n, Arch::splat(0.5)), round);
  const Vec n2 = Arch::sub(n, Arch::sub(t1, round));
  return Arch::mul(Arch::mul(y, Arch::pow2(t1)),
                   Arch::pow2(Arch::add(n2, round)));
}

template <typename Arch>
void exp_body(const double* x, std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + kRowGroup <= n; i += kRowGroup)
    Arch::store(out + i, exp_lanes<Arch>(Arch::load(x + i)));
  if (i == n) return;
  alignas(64) double lanes[kRowGroup] = {};
  std::copy(x + i, x + n, lanes);
  Arch::store(lanes, exp_lanes<Arch>(Arch::load(lanes)));
  std::copy(lanes, lanes + (n - i), out + i);
}

/// One group of RBF terms exp(-gamma · max(0, (qn + sn) − 2·dot)).
template <typename Arch>
[[gnu::always_inline]] inline typename Arch::Vec rbf_lanes(
    typename Arch::Vec dot, typename Arch::Vec sn, typename Arch::Vec qn,
    typename Arch::Vec neg_gamma) {
  const typename Arch::Vec dist =
      Arch::sub(Arch::add(qn, sn), Arch::mul(Arch::splat(2.0), dot));
  return exp_lanes<Arch>(Arch::mul(neg_gamma, Arch::max(dist, Arch::zero())));
}

/// Row i's elements [j, n) (fewer than a group) as one zero-padded group:
/// a padded lane reads dot 0, norm 0 and weight 0.
struct RbfTail {
  alignas(64) double dot[kRowGroup] = {};
  alignas(64) double sn[kRowGroup] = {};
  alignas(64) double weight[kRowGroup] = {};
  std::size_t count = 0;

  RbfTail(const RbfBlock& block, std::size_t i, std::size_t j,
          const double* weights)
      : count(block.n - j) {
    std::copy(block.dots + i * block.ld + j, block.dots + i * block.ld +
                                                  block.n, dot);
    std::copy(block.s_norms + j, block.s_norms + block.n, sn);
    if (weights != nullptr) std::copy(weights + j, weights + block.n, weight);
  }
};

template <typename Arch>
void rbf_kernel_body(const RbfBlock& block, double* out, std::size_t ldo) {
  const typename Arch::Vec neg_gamma = Arch::splat(-block.gamma);
  for (std::size_t i = 0; i < block.m; ++i) {
    const double* dots = block.dots + i * block.ld;
    double* row = out + i * ldo;
    const typename Arch::Vec qn = Arch::splat(block.q_norms[i]);
    std::size_t j = 0;
    for (; j + kRowGroup <= block.n; j += kRowGroup)
      Arch::store(row + j,
                  rbf_lanes<Arch>(Arch::load(dots + j),
                                  Arch::load(block.s_norms + j), qn,
                                  neg_gamma));
    if (j == block.n) continue;
    RbfTail tail(block, i, j, nullptr);
    alignas(64) double lanes[kRowGroup];
    Arch::store(lanes, rbf_lanes<Arch>(Arch::load(tail.dot),
                                       Arch::load(tail.sn), qn, neg_gamma));
    std::copy(lanes, lanes + tail.count, row + j);
  }
}

/// partials[i][l] += weight[j] · term(i, j) for every j ≡ l (mod 8), j
/// ascending. A padded lane adds weight 0 times a term in [0, 1], +0.0,
/// which leaves a partial's bits alone (a sum seeded at +0.0 is never
/// -0.0).
template <typename Arch>
void rbf_accumulate_body(const RbfBlock& block, const double* weights,
                         double* partials) {
  using Vec = typename Arch::Vec;
  const Vec neg_gamma = Arch::splat(-block.gamma);
  for (std::size_t i = 0; i < block.m; ++i) {
    const double* dots = block.dots + i * block.ld;
    const Vec qn = Arch::splat(block.q_norms[i]);
    Vec acc = Arch::load(partials + i * kRowGroup);
    std::size_t j = 0;
    for (; j + kRowGroup <= block.n; j += kRowGroup)
      acc = Arch::add(
          acc, Arch::mul(Arch::load(weights + j),
                         rbf_lanes<Arch>(Arch::load(dots + j),
                                         Arch::load(block.s_norms + j), qn,
                                         neg_gamma)));
    if (j < block.n) {
      RbfTail tail(block, i, j, weights);
      acc = Arch::add(
          acc, Arch::mul(Arch::load(tail.weight),
                         rbf_lanes<Arch>(Arch::load(tail.dot),
                                         Arch::load(tail.sn), qn, neg_gamma)));
    }
    Arch::store(partials + i * kRowGroup, acc);
  }
}

/// The RowKernels table for one lane policy.
template <typename Arch>
const RowKernels* row_kernels() {
  static const RowKernels table{&sweep_rows<Arch>, &accumulate_body<Arch>,
                                &exp_body<Arch>, &rbf_kernel_body<Arch>,
                                &rbf_accumulate_body<Arch>};
  return &table;
}

}  // namespace fs::kern::detail
