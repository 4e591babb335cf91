// Sparse-input kernel bodies, templated over a lane policy.
//
// Each per-ISA GEMM translation unit instantiates these (inside its own
// anonymous namespace) with a policy providing:
//
//   using V;                                  // one vector of doubles
//   static constexpr std::size_t kLanes;      // doubles per V
//   static V zero();
//   static V load(const double* p);           // unaligned
//   static void store(double* p, V v);        // unaligned
//   static V fmadd(double a, V b, V acc);     // acc + a * b, rounded as the
//                                             // path's GEMM micro-kernel
//   static double fmadd1(double a, double b, double acc);  // one lane of it
//   static V add(V a, V b);                   // a + b
//   static V step(V w, double lr, V g);       // w - lr * g, two roundings
//
// Both kernels keep one register tile of output columns at a time
// (kSparseTile vectors, then single vectors, then scalar lanes) and walk
// the tile's non-zero inputs in ascending k. A KC-block boundary folds
// the block's accumulator into the running sum exactly as the GEMM's tile
// writeback chains it (sum = acc + sum, the first block's partial against
// +0.0), so every output element gets the dense kernel's bits on the same
// path.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kern/gemm_body.h"
#include "kern/kern.h"
#include "kern/kern_internal.h"

namespace fs::kern::detail {

/// Vectors per register tile: 4 accumulators plus 4 running sums.
inline constexpr std::size_t kSparseTile = 4;

/// The running sums of output columns [j, j + NV * kLanes) over one run of
/// entries [begin, end): entry p contributes value[p] times row key[p] of
/// the dense operand (stride ld) from column j on. `key` is the k index
/// (forward: input column; step: batch row), ascending, so a change of
/// key / kKc is a KC-block boundary.
template <typename Lanes, std::size_t NV>
inline void sparse_tile(const std::uint32_t* key, const double* value,
                        std::uint64_t begin, std::uint64_t end,
                        const double* dense, std::size_t ld, std::size_t j,
                        typename Lanes::V* sum) {
  using V = typename Lanes::V;
  V acc[NV];
  for (std::size_t t = 0; t < NV; ++t) {
    acc[t] = Lanes::zero();
    sum[t] = Lanes::zero();
  }
  std::size_t block = begin < end ? key[begin] / kKc : 0;
  for (std::uint64_t p = begin; p < end; ++p) {
    const std::size_t k = key[p];
    if (k / kKc != block) {
      for (std::size_t t = 0; t < NV; ++t) {
        sum[t] = Lanes::add(acc[t], sum[t]);
        acc[t] = Lanes::zero();
      }
      block = k / kKc;
    }
    const double v = value[p];
    const double* row = dense + k * ld + j;
    for (std::size_t t = 0; t < NV; ++t)
      acc[t] = Lanes::fmadd(v, Lanes::load(row + t * Lanes::kLanes), acc[t]);
  }
  for (std::size_t t = 0; t < NV; ++t) sum[t] = Lanes::add(acc[t], sum[t]);
}

/// sparse_tile for one scalar lane (the tail past the last whole vector).
template <typename Lanes>
inline double sparse_lane(const std::uint32_t* key, const double* value,
                          std::uint64_t begin, std::uint64_t end,
                          const double* dense, std::size_t ld,
                          std::size_t j) {
  double acc = 0.0, sum = 0.0;
  std::size_t block = begin < end ? key[begin] / kKc : 0;
  for (std::uint64_t p = begin; p < end; ++p) {
    const std::size_t k = key[p];
    if (k / kKc != block) {
      sum = acc + sum;
      acc = 0.0;
      block = k / kKc;
    }
    acc = Lanes::fmadd1(value[p], dense[k * ld + j], acc);
  }
  return acc + sum;
}

/// Calls tile.operator()<NV>(j) over [0, n) in kSparseTile-vector tiles,
/// then single vectors; returns where the scalar tail starts.
template <typename Lanes, typename Tile>
inline std::size_t for_each_tile(std::size_t n, Tile&& tile) {
  constexpr std::size_t L = Lanes::kLanes;
  std::size_t j = 0;
  for (; j + kSparseTile * L <= n; j += kSparseTile * L)
    tile.template operator()<kSparseTile>(j);
  for (; j + L <= n; j += L) tile.template operator()<1>(j);
  return j;
}

/// Rows [r0, r1) of C = epilogue(A.W), A sparse.
template <typename Lanes>
void sparse_rows(const CsrView& a, std::size_t r0, std::size_t r1,
                 const double* w, std::size_t ldw, std::size_t n, double* c,
                 std::size_t ldc, Epilogue epilogue, const double* bias) {
  using V = typename Lanes::V;
  constexpr std::size_t L = Lanes::kLanes;
  alignas(64) double sums[kSparseTile * L];
  for (std::size_t r = r0; r < r1; ++r) {
    const std::uint64_t begin = a.offsets[r];
    const std::uint64_t end = a.offsets[r + 1];
    double* crow = c + r * ldc;
    const auto write = [&](std::size_t j, std::size_t count) {
      for (std::size_t jj = 0; jj < count; ++jj)
        crow[j + jj] = apply_epilogue(epilogue, sums[jj],
                                      bias == nullptr ? 0.0 : bias[j + jj]);
    };
    const std::size_t tail = for_each_tile<Lanes>(
        n, [&]<std::size_t NV>(std::size_t j) {
          V sum[NV];
          sparse_tile<Lanes, NV>(a.index, a.values, begin, end, w, ldw, j,
                                 sum);
          for (std::size_t t = 0; t < NV; ++t)
            Lanes::store(sums + t * L, sum[t]);
          write(j, NV * L);
        });
    for (std::size_t j = tail; j < n; ++j) {
      sums[0] = sparse_lane<Lanes>(a.index, a.values, begin, end, w, ldw, j);
      write(j, 1);
    }
  }
}

/// Touched columns [c0, c1) of W -= lr * A^T.G, A given column-wise.
template <typename Lanes>
void sparse_step_cols(const CscView& t, std::size_t c0, std::size_t c1,
                      const double* g, std::size_t ldg, std::size_t n,
                      double* w, std::size_t ldw, double lr) {
  using V = typename Lanes::V;
  constexpr std::size_t L = Lanes::kLanes;
  for (std::size_t ci = c0; ci < c1; ++ci) {
    const std::uint64_t begin = t.start[ci];
    const std::uint64_t end = t.start[ci + 1];
    double* wrow = w + static_cast<std::size_t>(t.col[ci]) * ldw;
    const std::size_t tail = for_each_tile<Lanes>(
        n, [&]<std::size_t NV>(std::size_t j) {
          V sum[NV];
          sparse_tile<Lanes, NV>(t.row, t.value, begin, end, g, ldg, j, sum);
          for (std::size_t v = 0; v < NV; ++v) {
            double* dst = wrow + j + v * L;
            Lanes::store(dst, Lanes::step(Lanes::load(dst), lr, sum[v]));
          }
        });
    for (std::size_t j = tail; j < n; ++j)
      wrow[j] = wrow[j] - lr * sparse_lane<Lanes>(t.row, t.value, begin, end,
                                                   g, ldg, j);
  }
}

}  // namespace fs::kern::detail
