// fs::kern — the compute kernel layer.
//
// The pipeline's hot dense primitive is GEMM (the autoencoder's
// forward/backward products, batch encoding, Gram matrices). This layer
// implements it as a cache-blocked, register-tiled kernel with runtime
// ISA dispatch:
//
//   * GEMM packs A into MR-tall row panels and B into NR-wide column
//     panels (BLIS-style MC/KC/NC blocking), then drives an MR x NR
//     micro-kernel of FMA accumulators per ISA path. The three logical
//     variants (NN, NT, TN) differ only in how the pack routines read the
//     operands, so all of them share one macro kernel.
//   * Epilogues (bias add, bias+ReLU/sigmoid/tanh) are fused into the
//     C-tile writeback, so callers get activated layer outputs in a single
//     pass instead of re-sweeping the matrix.
//
// Dispatch model: the ISA path (scalar, AVX2, AVX-512) is chosen once, at
// first use, from CPU capabilities, and can be pinned with FS_KERNEL=
// scalar|avx2|avx512 for differential testing. Determinism contract: for a
// FIXED path, every kernel accumulates each output element over k in
// ascending order with a fixed blocking scheme, and parallel execution
// (over fs::par, chunked by MC row blocks — never by thread count) assigns
// every output element to exactly one chunk. An N-thread run is therefore
// byte-identical to a 1-thread run on the same path. Different paths
// legitimately differ in low-order bits (FMA vs separate multiply-add,
// vector-lane epilogue order); the scalar path is the golden reference the
// parity suite measures the vector paths against.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace fs::kern {

// ---------------------------------------------------------------------------
// ISA dispatch
// ---------------------------------------------------------------------------

enum class IsaPath { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Name used in FS_KERNEL, perf_bench output, and test logs.
const char* path_name(IsaPath path);

/// True when the running CPU (and this build) can execute the path.
bool path_supported(IsaPath path);

/// Every supported path, in ascending capability order (always starts with
/// kScalar).
std::vector<IsaPath> supported_paths();

/// The active path. Resolved once on first call: FS_KERNEL if set (an
/// unsupported or unknown value throws std::runtime_error), otherwise the
/// most capable supported path.
IsaPath active_path();

/// The FS_KERNEL override in effect, or "" when the path was auto-detected.
std::string requested_path();

/// Pins the active path (differential testing and kernel_bench only —
/// production code must let FS_KERNEL/auto-detection decide). Throws
/// std::runtime_error if the path is unsupported on this host.
void force_path(IsaPath path);

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

/// Fused epilogue applied to C during tile writeback, after the full k
/// accumulation. Bias is indexed by output column and may be null only for
/// kNone. Sigmoid/tanh call the same libm routines on every path, so the
/// epilogue itself never contributes cross-path divergence.
enum class Epilogue {
  kNone = 0,
  kBias,         // c += bias[j]
  kBiasRelu,     // c = max(c + bias[j], 0)
  kBiasSigmoid,  // c = 1 / (1 + exp(-(c + bias[j])))
  kBiasTanh,     // c = tanh(c + bias[j])
};

/// One GEMM invocation: C (m x n, row-major, leading dimension ldc) gets
/// A.B (+ C when `accumulate`). The transpose flags say how the operand is
/// stored, not what it means: logical A is always m x k and logical B is
/// always k x n; with a_trans the buffer holds A^T (k x m, lda >= m), with
/// b_trans it holds B^T (n x k, ldb >= k).
struct GemmCall {
  std::size_t m = 0, n = 0, k = 0;
  const double* a = nullptr;
  std::size_t lda = 0;
  bool a_trans = false;
  const double* b = nullptr;
  std::size_t ldb = 0;
  bool b_trans = false;
  double* c = nullptr;
  std::size_t ldc = 0;
  bool accumulate = false;
  Epilogue epilogue = Epilogue::kNone;
  const double* bias = nullptr;
};

/// C = A.B (+C): a is m x k (lda), b is k x n (ldb).
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, bool accumulate = false,
             Epilogue epilogue = Epilogue::kNone, const double* bias = nullptr);

/// C = A.B^T (+C): a is m x k (lda), b is n x k (ldb).
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, bool accumulate = false,
             Epilogue epilogue = Epilogue::kNone, const double* bias = nullptr);

/// C = A^T.B (+C): a is k x m (lda), b is k x n (ldb).
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, bool accumulate = false,
             Epilogue epilogue = Epilogue::kNone, const double* bias = nullptr);

/// Raw entry point behind the three wrappers (kernel_bench uses it).
void gemm(const GemmCall& call);

}  // namespace fs::kern
