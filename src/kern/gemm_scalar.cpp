// Portable scalar path — the golden reference every vector path is
// measured against. This TU is compiled with -ffp-contract=off so the
// compiler can never fuse the multiply-add below into an FMA: the
// reference semantics are exactly "round after multiply, round after add"
// in ascending-k order, on any host.
#include <cstddef>

#include "kern/gemm_body.h"
#include "kern/kern_internal.h"

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

void gemm_entry(const GemmCall& call) { run_gemm<ScalarArch>(call); }

}  // namespace

const VTable* vtable_scalar() {
  static const VTable table{&gemm_entry};
  return &table;
}

}  // namespace fs::kern::detail
