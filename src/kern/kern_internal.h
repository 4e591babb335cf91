// Internal seams between the dispatcher (kern.cpp) and the per-ISA
// translation units. Each arch TU is compiled with its own instruction-set
// flags and exposes exactly one symbol: its table accessor (gemm_*.cpp a
// VTable, rows_*.cpp a RowKernels). Everything else in those TUs lives in
// anonymous namespaces, so template code instantiated under
// -mavx2/-mavx512f can never be ODR-merged into the scalar path (which
// must stay free of FMA contraction).
#pragma once

#include <cstddef>
#include <cstdint>

#include "kern/kern.h"

namespace fs::kern::detail {

/// The sparse step's operand read column-wise: the `count` columns of A
/// that hold a non-zero, ascending, column ci's entries at
/// [start[ci], start[ci + 1]) of `row` (ascending) and `value`.
struct CscView {
  std::size_t count = 0;
  const std::uint32_t* col = nullptr;
  const std::uint64_t* start = nullptr;
  const std::uint32_t* row = nullptr;
  const double* value = nullptr;
};

struct VTable {
  void (*gemm)(const GemmCall& call);
  /// B panel width, and the packed-B pair behind kern::PackedRows:
  /// pack_nt writes ceil(n / nr) * nr * k doubles.
  std::size_t nr;
  void (*pack_nt)(const double* rows, std::size_t n, std::size_t k,
                  std::size_t ld, double* dst);
  void (*gemm_packed)(std::size_t m, std::size_t n, std::size_t k,
                      const double* a, std::size_t lda, const double* packed,
                      double* c, std::size_t ldc);
  /// row_norms on this path's GEMM dot chain.
  void (*row_norms)(const double* rows, std::size_t n, std::size_t dim,
                    std::size_t ld, double* out);
  /// Rows [r0, r1) of a sparse_gemm_nn call.
  void (*sparse_rows)(const CsrView& a, std::size_t r0, std::size_t r1,
                      const double* w, std::size_t ldw, std::size_t n,
                      double* c, std::size_t ldc, Epilogue epilogue,
                      const double* bias);
  /// Touched columns [c0, c1) of a sparse_tn_step call.
  void (*sparse_step_cols)(const CscView& a, std::size_t c0, std::size_t c1,
                           const double* g, std::size_t ldg, std::size_t n,
                           double* w, std::size_t ldw, double lr);
};

/// Always available; the golden reference.
const VTable* vtable_scalar();
/// Null when the build (not the CPU) lacks the path.
const VTable* vtable_avx2();
const VTable* vtable_avx512();

/// Row-sweep and RBF-epilogue bodies (rows_*.cpp, all compiled with
/// -ffp-contract=off and without -mfma, so every path returns the scalar
/// reference's bits).
struct RowKernels {
  void (*sq_dist)(const double* panel, std::size_t n, std::size_t dim,
                  const double* q, double* out);
  void (*accumulate)(double* acc, const double* x, std::size_t n);
  void (*exp)(const double* x, std::size_t n, double* out);
  void (*rbf_kernel)(const RbfBlock& block, double* out, std::size_t ldo);
  void (*rbf_accumulate)(const RbfBlock& block, const double* weights,
                         double* partials);
};

const RowKernels* rows_scalar();
const RowKernels* rows_avx2();
const RowKernels* rows_avx512();

/// The least work one parallel chunk of a kernel carries, in FLOPs (a
/// multiply-add counts 2): about 30 us on one AVX-512 core, where handing
/// a chunk to a pool worker costs 10-15 us (4-vCPU host). A smaller
/// product runs as one inline chunk.
inline constexpr std::size_t kMinChunkFlop = std::size_t{1} << 20;

/// Items per chunk so that a chunk of items costing `item_flop` each
/// reaches kMinChunkFlop: a function of the operands' shape alone.
inline std::size_t flop_grain(std::size_t item_flop) {
  if (item_flop == 0) item_flop = 1;
  return (kMinChunkFlop + item_flop - 1) / item_flop;
}

/// 64-byte-aligned thread-local pack scratch, grown monotonically. Two
/// separate arenas because one GEMM holds both an A block and a B block.
double* pack_scratch_a(std::size_t count);
double* pack_scratch_b(std::size_t count);
/// The calling thread's scratch gradient for a step whose product spans
/// several KC blocks (the block partial sums, shared by the workers).
double* step_scratch(std::size_t count);

}  // namespace fs::kern::detail
