// Shared cache-blocked GEMM driver, templated over an Arch policy.
//
// Each per-ISA translation unit instantiates run_gemm<Arch> (inside an
// anonymous namespace) with a policy providing:
//
//   static constexpr std::size_t kMr, kNr;   // register tile shape
//   static void micro_kernel(std::size_t kc, const double* ap,
//                            const double* bp, double* acc);
//       // acc[kMr*kNr] = sum_{p<kc} ap[p*kMr+i] * bp[p*kNr+j], overwriting
//   static float lb_row(const std::uint8_t* codes, std::size_t dim,
//                       const float* query, const float* scale,
//                       const float* offset, const float* half_scale);
//
// Blocking follows the BLIS decomposition, with two parallel axes chosen
// by m (never by the thread count):
//
//   * m > kMc — run_row_blocks: B is packed into NR-wide column panels per
//     (jc, pc) block by the calling thread; A is packed into MR-tall row
//     panels per MC block by whichever worker owns that block. The
//     parallel axis is the MC row-block index, a pure function of m.
//   * m <= kMc (mini-batch products) — run_column_panels: one row block,
//     so the calling thread packs A once and the parallel axis is fixed
//     groups of kPanelsPerChunk column panels, a pure function of n; each
//     chunk packs its own B panels.
//
// Both axes keep each C element's micro-kernel inputs and its ascending
// pc accumulation order, so with the fs::par determinism contract (chunks
// independent of thread count) the output bits are thread-count-invariant
// for a fixed Arch. Edge tiles are zero-padded during packing, so the
// micro-kernel always runs a full MR x NR tile and writeback clips.
//
// Epilogues fuse into tile writeback on the LAST pc block: by then the
// tile holds its complete k-accumulation (the pc loop is outer to the
// tile loops), so bias+activation costs no extra pass over C.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

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
/// Column panels per chunk in run_column_panels (64 columns at NR = 8).
inline constexpr std::size_t kPanelsPerChunk = 8;

/// Logical A(i, p) of the m x k operand, whichever way it is stored.
inline double load_a(const GemmCall& call, std::size_t i, std::size_t p) {
  return call.a_trans ? call.a[p * call.lda + i] : call.a[i * call.lda + p];
}

/// Logical B(p, j) of the k x n operand.
inline double load_b(const GemmCall& call, std::size_t p, std::size_t j) {
  return call.b_trans ? call.b[j * call.ldb + p] : call.b[p * call.ldb + j];
}

template <std::size_t MR>
inline void pack_a_block(const GemmCall& call, std::size_t ic, std::size_t mc,
                         std::size_t pc, std::size_t kc, double* ap) {
  std::size_t panel = 0;
  for (std::size_t ir = 0; ir < mc; ir += MR, ++panel) {
    double* dst = ap + panel * kc * MR;
    const std::size_t mr = std::min(MR, mc - ir);
    for (std::size_t p = 0; p < kc; ++p)
      for (std::size_t ii = 0; ii < MR; ++ii)
        dst[p * MR + ii] =
            ii < mr ? load_a(call, ic + ir + ii, pc + p) : 0.0;
  }
}

template <std::size_t NR>
inline void pack_b_block(const GemmCall& call, std::size_t jc, std::size_t nc,
                         std::size_t pc, std::size_t kc, double* bp) {
  std::size_t panel = 0;
  for (std::size_t jr = 0; jr < nc; jr += NR, ++panel) {
    double* dst = bp + panel * kc * NR;
    const std::size_t nr = std::min(NR, nc - jr);
    for (std::size_t p = 0; p < kc; ++p)
      for (std::size_t jj = 0; jj < NR; ++jj)
        dst[p * NR + jj] =
            jj < nr ? load_b(call, pc + p, jc + jr + jj) : 0.0;
  }
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
  }
  return v;
}

template <std::size_t MR, std::size_t NR>
inline void write_tile(const GemmCall& call, std::size_t i0, std::size_t mr,
                       std::size_t j0, std::size_t nr, const double* acc,
                       bool accumulate, bool finish) {
  const bool epi = finish && call.epilogue != Epilogue::kNone;
  for (std::size_t i = 0; i < mr; ++i) {
    double* crow = call.c + (i0 + i) * call.ldc + j0;
    for (std::size_t j = 0; j < nr; ++j) {
      double v = acc[i * NR + j];
      if (accumulate) v += crow[j];
      if (epi) v = apply_epilogue(call.epilogue, v, call.bias[j0 + j]);
      crow[j] = v;
    }
  }
}

/// k == 0 degenerates to an epilogue-only sweep: C = epilogue(C or 0).
inline void epilogue_only(const GemmCall& call) {
  for (std::size_t i = 0; i < call.m; ++i) {
    double* crow = call.c + i * call.ldc;
    for (std::size_t j = 0; j < call.n; ++j) {
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
void run_row_blocks(const GemmCall& call) {
  constexpr std::size_t MR = Arch::kMr;
  constexpr std::size_t NR = Arch::kNr;
  const std::size_t num_ic = (call.m + kMc - 1) / kMc;
  par::ParallelOptions options;
  options.what = "kern.gemm";
  options.grain = 1;  // one chunk per MC row block — never thread-derived

  for (std::size_t jc = 0; jc < call.n; jc += kNc) {
    const std::size_t nc = std::min(kNc, call.n - jc);
    const std::size_t nc_padded = (nc + NR - 1) / NR * NR;
    for (std::size_t pc = 0; pc < call.k; pc += kKc) {
      const std::size_t kc = std::min(kKc, call.k - pc);
      const bool last_pc = pc + kc == call.k;
      const bool acc_c = call.accumulate || pc != 0;
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
            write_tile<MR, NR>(call, ic + ir, std::min(MR, mc - ir), jc + jr,
                               nr, acc, acc_c, last_pc);
          }
        }
      });
    }
  }
}

/// m <= kMc (mini-batch products): a single row block, so the parallel
/// axis is groups of kPanelsPerChunk column panels. The calling thread
/// packs the whole A strip once (one MR x KC panel set per KC block, about
/// the size of A itself) before the one parallel region; each chunk packs
/// only its own B panels into its thread's scratch and walks the KC blocks
/// in ascending order. A C element therefore gets bit-for-bit what
/// run_row_blocks would give it.
template <typename Arch>
void run_column_panels(const GemmCall& call) {
  constexpr std::size_t MR = Arch::kMr;
  constexpr std::size_t NR = Arch::kNr;
  const std::size_t m_padded = (call.m + MR - 1) / MR * MR;
  double* ap = pack_scratch_a(m_padded * call.k);
  for (std::size_t pc = 0; pc < call.k; pc += kKc)
    pack_a_block<MR>(call, 0, call.m, pc, std::min(kKc, call.k - pc),
                     ap + m_padded * pc);

  const auto chunk_body = [&](const par::ChunkRange& chunk) {
    const std::size_t j0 = chunk.begin * NR;
    const std::size_t nc = std::min(chunk.end * NR, call.n) - j0;
    double* bp = pack_scratch_b((chunk.end - chunk.begin) * NR * kKc);
    alignas(64) double acc[MR * NR];
    for (std::size_t pc = 0; pc < call.k; pc += kKc) {
      const std::size_t kc = std::min(kKc, call.k - pc);
      const bool last_pc = pc + kc == call.k;
      const bool acc_c = call.accumulate || pc != 0;
      const double* apc = ap + m_padded * pc;
      pack_b_block<NR>(call, j0, nc, pc, kc, bp);
      for (std::size_t jr = 0; jr < nc; jr += NR) {
        const double* bpanel = bp + (jr / NR) * kc * NR;
        const std::size_t nr = std::min(NR, nc - jr);
        for (std::size_t ir = 0; ir < call.m; ir += MR) {
          Arch::micro_kernel(kc, apc + (ir / MR) * kc * MR, bpanel, acc);
          write_tile<MR, NR>(call, ir, std::min(MR, call.m - ir), j0 + jr,
                             nr, acc, acc_c, last_pc);
        }
      }
    }
  };
  par::ParallelOptions options;
  options.what = "kern.gemm";
  options.grain = kPanelsPerChunk;  // chunks are a function of n alone
  par::parallel_for_chunks((call.n + NR - 1) / NR, options, chunk_body);
}

template <typename Arch>
void run_gemm(const GemmCall& call) {
  if (call.m == 0 || call.n == 0) return;
  if (call.k == 0) {
    epilogue_only(call);
    return;
  }
  if (call.m <= kMc)
    run_column_panels<Arch>(call);
  else
    run_row_blocks<Arch>(call);
}

template <typename Arch>
void run_knn_lb(const std::uint8_t* codes, std::size_t n, std::size_t dim,
                const float* query, const float* scale, const float* offset,
                const float* half_scale, float* out_lb) {
  // Serial on purpose: callers (KNN predict) already run one query per
  // fs::par chunk, and nested regions would inline anyway.
  for (std::size_t i = 0; i < n; ++i)
    out_lb[i] =
        Arch::lb_row(codes + i * dim, dim, query, scale, offset, half_scale);
}

}  // namespace fs::kern::detail
