// Portable scalar path — the golden reference every vector path is
// measured against. This TU is compiled with -ffp-contract=off so the
// compiler can never fuse the multiply-add below into an FMA: the
// reference semantics are exactly "round after multiply, round after add"
// in ascending-k order, on any host.
#include <cstddef>

#include "kern/gemm_body.h"
#include "kern/kern_internal.h"
#include "kern/sparse_body.h"

namespace fs::kern::detail {

namespace {

struct ScalarArch {
  static constexpr std::size_t kMr = 4;
  static constexpr std::size_t kNr = 4;

  static void micro_kernel(std::size_t kc, const double* ap, const double* bp,
                           double* acc) {
    double local[kMr * kNr] = {};
    for (std::size_t p = 0; p < kc; ++p) {
      const double* arow = ap + p * kMr;
      const double* brow = bp + p * kNr;
      for (std::size_t i = 0; i < kMr; ++i) {
        const double a = arow[i];
        for (std::size_t j = 0; j < kNr; ++j)
          local[i * kNr + j] += a * brow[j];
      }
    }
    for (std::size_t v = 0; v < kMr * kNr; ++v) acc[v] = local[v];
  }

};

/// One lane per "vector": multiply, then add, each rounded.
struct ScalarLanes {
  using V = double;
  static constexpr std::size_t kLanes = 1;
  static V zero() { return 0.0; }
  static V load(const double* p) { return *p; }
  static void store(double* p, V v) { *p = v; }
  static V fmadd(double a, V b, V acc) { return acc + a * b; }
  static double fmadd1(double a, double b, double acc) { return acc + a * b; }
  static V add(V a, V b) { return a + b; }
  static V step(V w, double lr, V g) { return w - lr * g; }
};

void gemm_entry(const GemmCall& call) { run_gemm<ScalarArch>(call); }

}  // namespace

const VTable* vtable_scalar() {
  static const VTable table{&gemm_entry,
                            ScalarArch::kNr,
                            &pack_nt_body<ScalarArch>,
                            &gemm_packed_body<ScalarArch>,
                            &row_norms_body<ScalarLanes>,
                            &sparse_rows<ScalarLanes>,
                            &sparse_step_cols<ScalarLanes>};
  return &table;
}

}  // namespace fs::kern::detail
