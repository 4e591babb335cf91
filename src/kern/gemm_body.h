// Shared cache-blocked GEMM driver, templated over an Arch policy.
//
// Each per-ISA translation unit instantiates run_gemm<Arch> (inside an
// anonymous namespace) with a policy providing:
//
//   static constexpr std::size_t kMr, kNr;   // register tile shape
//   static void micro_kernel(std::size_t kc, const double* ap,
//                            const double* bp, double* acc);
//       // acc[kMr*kNr] = sum_{p<kc} ap[p*kMr+i] * bp[p*kNr+j], overwriting
//
// Blocking follows the BLIS decomposition, with two parallel axes chosen
// by m (never by the thread count):
//
//   * m > kMc — run_row_blocks: B is packed into NR-wide column panels per
//     (jc, pc) block by the calling thread; A is packed into MR-tall row
//     panels per MC block by whichever worker owns that block. The
//     parallel axis is the MC row-block index, a pure function of m.
//   * m <= kMc (mini-batch products) — run_column_panels: one row block,
//     so the calling thread packs A once and the parallel axis is groups
//     of NR-wide column panels, a pure function of n; each chunk packs its
//     own B panels.
//
// A chunk holds at least kMinChunkFlop FLOPs of the product (the grain
// comes from m, n and k alone), so a product below that floor runs as one
// inline chunk instead of forking onto the pool for microseconds of work.
//
// Both axes keep each C element's micro-kernel inputs and its ascending
// pc accumulation order, so with the fs::par determinism contract (chunks
// independent of thread count) the output bits are thread-count-invariant
// for a fixed Arch. Full panels pack with plain strided copies; edge
// panels are zero-padded, so the micro-kernel always runs a full MR x NR
// tile and writeback clips.
//
// Epilogues fuse into tile writeback on the LAST pc block: by then the
// tile holds its complete k-accumulation (the pc loop is outer to the
// tile loops), so bias+activation costs no extra pass over C. The step
// epilogue (kStep) writes C = C - lr * product instead; when k spans
// several pc blocks, the earlier blocks chain their partial sums through
// a scratch gradient, since C holds the weights rather than the sum.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "kern/kern.h"
#include "kern/kern_internal.h"
#include "par/par.h"

namespace fs::kern::detail {

// Blocking parameters in doubles: a KC-deep A strip streams from L1, the
// packed MC x KC A block (~192 KiB) targets L2, the packed KC x NC B block
// (~1 MiB) targets L3.
inline constexpr std::size_t kKc = 256;
inline constexpr std::size_t kMc = 96;
inline constexpr std::size_t kNc = 512;

/// Logical A(i, p) of the m x k operand, whichever way it is stored.
inline double load_a(const GemmCall& call, std::size_t i, std::size_t p) {
  return call.a_trans ? call.a[p * call.lda + i] : call.a[i * call.lda + p];
}

/// Stored row r of B, through the b_rows map.
inline const double* b_row(const GemmCall& call, std::size_t r) {
  return call.b + (call.b_rows != nullptr ? call.b_rows[r] : r) * call.ldb;
}

/// Row i of C, through the c_rows map.
inline double* c_row(const GemmCall& call, std::size_t i) {
  return call.c + (call.c_rows != nullptr ? call.c_rows[i] : i) * call.ldc;
}

/// Logical B(p, j) of the k x n operand.
inline double load_b(const GemmCall& call, std::size_t p, std::size_t j) {
  return call.b_trans ? b_row(call, j)[p] : b_row(call, p)[j];
}

/// Packs logical A rows [ic, ic + mc), columns [pc, pc + kc) into MR-tall
/// panels: dst[p * MR + ii] = A(ir + ii, p). Full panels are plain strided
/// copies, one loop per storage order with no per-element branch; only a
/// trailing partial panel goes through load_a and zero-pads its rows.
template <std::size_t MR>
inline void pack_a_block(const GemmCall& call, std::size_t ic, std::size_t mc,
                         std::size_t pc, std::size_t kc, double* ap) {
  const std::size_t full = mc / MR * MR;
  const std::size_t lda = call.lda;
  if (call.a_trans) {
    // A^T is stored: each panel row is MR contiguous doubles.
    for (std::size_t ir = 0; ir < full; ir += MR) {
      double* dst = ap + ir * kc;
      const double* src = call.a + pc * lda + ic + ir;
      for (std::size_t p = 0; p < kc; ++p)
        for (std::size_t ii = 0; ii < MR; ++ii)
          dst[p * MR + ii] = src[p * lda + ii];
    }
  } else {
    for (std::size_t ir = 0; ir < full; ir += MR) {
      double* dst = ap + ir * kc;
      const double* src = call.a + (ic + ir) * lda + pc;
      for (std::size_t ii = 0; ii < MR; ++ii)
        for (std::size_t p = 0; p < kc; ++p)
          dst[p * MR + ii] = src[ii * lda + p];
    }
  }
  if (full == mc) return;
  double* dst = ap + full * kc;
  const std::size_t mr = mc - full;
  for (std::size_t p = 0; p < kc; ++p)
    for (std::size_t ii = 0; ii < MR; ++ii)
      dst[p * MR + ii] = ii < mr ? load_a(call, ic + full + ii, pc + p) : 0.0;
}

/// Packs logical B rows [pc, pc + kc), columns [jc, jc + nc) into NR-wide
/// panels: dst[p * NR + jj] = B(p, jr + jj), full panels branch-free as in
/// pack_a_block.
template <std::size_t NR>
inline void pack_b_block(const GemmCall& call, std::size_t jc, std::size_t nc,
                         std::size_t pc, std::size_t kc, double* bp) {
  const std::size_t full = nc / NR * NR;
  if (call.b_trans) {
    for (std::size_t jr = 0; jr < full; jr += NR) {
      double* dst = bp + jr * kc;
      for (std::size_t jj = 0; jj < NR; ++jj) {
        const double* src = b_row(call, jc + jr + jj) + pc;
        for (std::size_t p = 0; p < kc; ++p) dst[p * NR + jj] = src[p];
      }
    }
  } else {
    // B is stored row-major: each panel row is NR contiguous doubles.
    for (std::size_t jr = 0; jr < full; jr += NR) {
      double* dst = bp + jr * kc;
      for (std::size_t p = 0; p < kc; ++p) {
        const double* src = b_row(call, pc + p) + jc + jr;
        for (std::size_t jj = 0; jj < NR; ++jj) dst[p * NR + jj] = src[jj];
      }
    }
  }
  if (full == nc) return;
  double* dst = bp + full * kc;
  const std::size_t nr = nc - full;
  for (std::size_t p = 0; p < kc; ++p)
    for (std::size_t jj = 0; jj < NR; ++jj)
      dst[p * NR + jj] = jj < nr ? load_b(call, pc + p, jc + full + jj) : 0.0;
}

/// Bias + activation on one finished accumulator value. Sigmoid/tanh go
/// through libm on every path, so epilogue bits never depend on the ISA.
inline double apply_epilogue(Epilogue epilogue, double v, double bias) {
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
    case Epilogue::kStep:  // written back by step_tile
      break;
  }
  return v;
}

/// One tile row of the step: w[j] = w[j] - lr * (g[j] + prev[j]). A full
/// row has a compile-time width, so the compiler can vectorize it.
template <std::size_t NR>
inline void step_row(double* __restrict w, const double* __restrict g,
                     const double* __restrict prev, double lr,
                     std::size_t nr) {
  if (nr == NR) {
    for (std::size_t j = 0; j < NR; ++j) w[j] = w[j] - lr * (g[j] + prev[j]);
    return;
  }
  for (std::size_t j = 0; j < nr; ++j) w[j] = w[j] - lr * (g[j] + prev[j]);
}

/// kStep writeback of one tile. A product spanning several KC blocks
/// carries its partial sums in `partial` (m x n, ld n) until the last
/// block; `chained` says an earlier block left a sum there. Each weight
/// therefore sees exactly the unfused sequence: g = 0.0, g = acc + g per
/// block, w = w - lr * g (two roundings: -ffp-contract=off keeps the
/// compiler from fusing them).
template <std::size_t NR>
inline void step_tile(const GemmCall& call, double* partial, std::size_t i0,
                      std::size_t mr, std::size_t j0, std::size_t nr,
                      const double* acc, bool chained, bool finish) {
  static constexpr double kNoSum[NR] = {};
  for (std::size_t i = 0; i < mr; ++i) {
    const double* g = acc + i * NR;
    double* sum =
        partial == nullptr ? nullptr : partial + (i0 + i) * call.n + j0;
    const double* prev = chained ? sum : kNoSum;
    if (finish)
      step_row<NR>(c_row(call, i0 + i) + j0, g, prev, call.scale, nr);
    else
      for (std::size_t j = 0; j < nr; ++j) sum[j] = g[j] + prev[j];
  }
}

template <std::size_t MR, std::size_t NR>
inline void write_tile(const GemmCall& call, double* partial, std::size_t i0,
                       std::size_t mr, std::size_t j0, std::size_t nr,
                       const double* acc, bool accumulate, bool finish) {
  if (call.epilogue == Epilogue::kStep) {
    step_tile<NR>(call, partial, i0, mr, j0, nr, acc, accumulate, finish);
    return;
  }
  const bool epi = finish && call.epilogue != Epilogue::kNone;
  for (std::size_t i = 0; i < mr; ++i) {
    double* crow = c_row(call, i0 + i) + j0;
    for (std::size_t j = 0; j < nr; ++j) {
      double v = acc[i * NR + j];
      if (accumulate) v += crow[j];
      if (epi) v = apply_epilogue(call.epilogue, v, call.bias[j0 + j]);
      crow[j] = v;
    }
  }
}

/// k == 0 degenerates to an epilogue-only sweep: C = epilogue(C or 0), and
/// a step by a zero gradient.
inline void epilogue_only(const GemmCall& call) {
  for (std::size_t i = 0; i < call.m; ++i) {
    double* crow = c_row(call, i);
    for (std::size_t j = 0; j < call.n; ++j) {
      if (call.epilogue == Epilogue::kStep) {
        crow[j] = crow[j] - call.scale * 0.0;
        continue;
      }
      double v = call.accumulate ? crow[j] : 0.0;
      if (call.epilogue != Epilogue::kNone)
        v = apply_epilogue(call.epilogue, v, call.bias[j]);
      crow[j] = v;
    }
  }
}

/// m > kMc: row blocks are the parallel axis. B is packed per (jc, pc)
/// block by the calling thread and shared; each chunk packs its own
/// MC x KC A block.
template <typename Arch>
void run_row_blocks(const GemmCall& call, double* partial) {
  constexpr std::size_t MR = Arch::kMr;
  constexpr std::size_t NR = Arch::kNr;
  const std::size_t num_ic = (call.m + kMc - 1) / kMc;
  par::ParallelOptions options;
  options.what = "kern.gemm";

  for (std::size_t jc = 0; jc < call.n; jc += kNc) {
    const std::size_t nc = std::min(kNc, call.n - jc);
    const std::size_t nc_padded = (nc + NR - 1) / NR * NR;
    for (std::size_t pc = 0; pc < call.k; pc += kKc) {
      const std::size_t kc = std::min(kKc, call.k - pc);
      const bool last_pc = pc + kc == call.k;
      const bool acc_c = call.accumulate || pc != 0;
      options.grain = flop_grain(2 * kMc * nc * kc);  // MC blocks per chunk
      double* bp = pack_scratch_b(nc_padded * kc);
      pack_b_block<NR>(call, jc, nc, pc, kc, bp);
      par::parallel_for(num_ic, options, [&, bp](std::size_t blk) {
        const std::size_t ic = blk * kMc;
        const std::size_t mc = std::min(kMc, call.m - ic);
        const std::size_t mc_padded = (mc + MR - 1) / MR * MR;
        double* ap = pack_scratch_a(mc_padded * kc);
        pack_a_block<MR>(call, ic, mc, pc, kc, ap);
        alignas(64) double acc[MR * NR];
        for (std::size_t jr = 0; jr < nc; jr += NR) {
          const double* bpanel = bp + (jr / NR) * kc * NR;
          const std::size_t nr = std::min(NR, nc - jr);
          for (std::size_t ir = 0; ir < mc; ir += MR) {
            Arch::micro_kernel(kc, ap + (ir / MR) * kc * MR, bpanel, acc);
            write_tile<MR, NR>(call, partial, ic + ir, std::min(MR, mc - ir),
                               jc + jr, nr, acc, acc_c, last_pc);
          }
        }
      });
    }
  }
}

/// m <= kMc (mini-batch products): a single row block, so the parallel
/// axis is groups of column panels. The calling thread
/// packs the whole A strip once (one MR x KC panel set per KC block, about
/// the size of A itself) before the one parallel region; each chunk packs
/// only its own B panels into its thread's scratch and walks the KC blocks
/// in ascending order. A C element therefore gets bit-for-bit what
/// run_row_blocks would give it.
///
/// With `b_packed` (pack_nt_body's layout of the whole B), the chunks read
/// their panels from it instead of packing them: the same panel bytes, so
/// the same bits.
template <typename Arch>
void run_column_panels(const GemmCall& call, double* partial,
                       const double* b_packed = nullptr) {
  constexpr std::size_t MR = Arch::kMr;
  constexpr std::size_t NR = Arch::kNr;
  const std::size_t m_padded = (call.m + MR - 1) / MR * MR;
  const std::size_t n_padded = (call.n + NR - 1) / NR * NR;
  double* ap = pack_scratch_a(m_padded * call.k);
  for (std::size_t pc = 0; pc < call.k; pc += kKc)
    pack_a_block<MR>(call, 0, call.m, pc, std::min(kKc, call.k - pc),
                     ap + m_padded * pc);

  const auto chunk_body = [&](const par::ChunkRange& chunk) {
    const std::size_t j0 = chunk.begin * NR;
    const std::size_t nc = std::min(chunk.end * NR, call.n) - j0;
    double* scratch =
        b_packed != nullptr
            ? nullptr
            : pack_scratch_b((chunk.end - chunk.begin) * NR *
                             std::min(kKc, call.k));
    alignas(64) double acc[MR * NR];
    for (std::size_t pc = 0; pc < call.k; pc += kKc) {
      const std::size_t kc = std::min(kKc, call.k - pc);
      const bool last_pc = pc + kc == call.k;
      const bool acc_c = call.accumulate || pc != 0;
      const double* apc = ap + m_padded * pc;
      const double* bp = scratch;
      if (b_packed != nullptr)
        bp = b_packed + n_padded * pc + chunk.begin * kc * NR;
      else
        pack_b_block<NR>(call, j0, nc, pc, kc, scratch);
      for (std::size_t jr = 0; jr < nc; jr += NR) {
        const double* bpanel = bp + (jr / NR) * kc * NR;
        const std::size_t nr = std::min(NR, nc - jr);
        for (std::size_t ir = 0; ir < call.m; ir += MR) {
          Arch::micro_kernel(kc, apc + (ir / MR) * kc * MR, bpanel, acc);
          write_tile<MR, NR>(call, partial, ir, std::min(MR, call.m - ir),
                             j0 + jr, nr, acc, acc_c, last_pc);
        }
      }
    }
  };
  par::ParallelOptions options;
  options.what = "kern.gemm";
  // Panels per chunk: enough FLOPs to be worth a fork, but at most NC
  // columns, so a chunk's packed B never outgrows the KC x NC block the
  // blocking sizes for L3 (a one-row product would otherwise pack all of B).
  options.grain = std::min(kNc / NR, flop_grain(2 * call.m * call.k * NR));
  par::parallel_for_chunks((call.n + NR - 1) / NR, options, chunk_body);
}

/// The n stored rows of a gemm_nt B operand (k wide, stride ld) in this
/// path's B panels, each KC block of columns after the last: block pc
/// starts at dst + n_padded * pc and holds its ceil(n / NR) panels of
/// kc x NR, exactly what run_column_panels packs per chunk.
template <typename Arch>
void pack_nt_body(const double* rows, std::size_t n, std::size_t k,
                  std::size_t ld, double* dst) {
  constexpr std::size_t NR = Arch::kNr;
  GemmCall call;
  call.n = n;
  call.k = k;
  call.b = rows;
  call.ldb = ld;
  call.b_trans = true;
  const std::size_t n_padded = (n + NR - 1) / NR * NR;
  for (std::size_t pc = 0; pc < k; pc += kKc)
    pack_b_block<NR>(call, 0, n, pc, std::min(kKc, k - pc),
                     dst + n_padded * pc);
}

/// C = A B^T against a B packed by pack_nt_body: A in row blocks of at
/// most kMc, each one run_column_panels product, so each C element runs
/// gemm_nt's chain.
template <typename Arch>
void gemm_packed_body(std::size_t m, std::size_t n, std::size_t k,
                      const double* a, std::size_t lda, const double* packed,
                      double* c, std::size_t ldc) {
  GemmCall call;
  call.n = n;
  call.k = k;
  call.lda = lda;
  call.b_trans = true;
  call.ldc = ldc;
  for (std::size_t i0 = 0; i0 < m; i0 += kMc) {
    call.m = std::min(kMc, m - i0);
    call.a = a + i0 * lda;
    call.c = c + i0 * ldc;
    if (k == 0)
      epilogue_only(call);
    else
      run_column_panels<Arch>(call, nullptr, packed);
  }
}

/// kern::row_norms on one path: each row's x.x accumulated as the
/// micro-kernel accumulates a C element (from +0.0, p ascending, through
/// Lanes::fmadd1, the path's scalar twin of its FMA), one KC block at a
/// time, the blocks chained as write_tile chains them (v = acc + v).
template <typename Lanes>
void row_norms_body(const double* rows, std::size_t n, std::size_t dim,
                    std::size_t ld, double* out) {
  for (std::size_t r = 0; r < n; ++r) {
    const double* x = rows + r * ld;
    double total = 0.0;
    for (std::size_t pc = 0; pc < dim; pc += kKc) {
      const std::size_t end = std::min(dim, pc + kKc);
      double acc = 0.0;
      for (std::size_t p = pc; p < end; ++p)
        acc = Lanes::fmadd1(x[p], x[p], acc);
      total = pc == 0 ? acc : acc + total;
    }
    out[r] = total;
  }
}

template <typename Arch>
void run_gemm(const GemmCall& call) {
  if (call.m == 0 || call.n == 0) return;
  if (call.k == 0) {
    epilogue_only(call);
    return;
  }
  // A step whose product spans several KC blocks chains the block sums
  // through a scratch gradient; with one block there is nothing to carry.
  double* partial = call.epilogue == Epilogue::kStep && call.k > kKc
                        ? step_scratch(call.m * call.n)
                        : nullptr;
  if (call.m <= kMc)
    run_column_panels<Arch>(call, partial);
  else
    run_row_blocks<Arch>(call, partial);
}

}  // namespace fs::kern::detail
