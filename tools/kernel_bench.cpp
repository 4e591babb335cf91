// kernel_bench — fs::kern micro-benchmark. Sweeps the GEMM macro-kernel,
// the sparse-input kernels, the row sweeps and the RBF epilogue over every
// ISA path this host supports (pinned per measurement with
// kern::force_path) and writes a machine-readable JSON report: GFLOP/s per
// (path, variant, shape) and
// per (path, op, shape), so kernel regressions show up as a number diff
// instead of a pipeline-level slowdown with no attribution.
//
//   kernel_bench [--out kernel_bench.json] [--threads N] [--min-ms 80]
//                [--quick]
//
// Shapes are the calls autoencoder training makes on the gowalla bench
// world (JOC width 2100, encoder 2100 -> 320 -> 48, head 48 -> 32 -> 1,
// mini-batches of 16 rows): the decoder's output layer on a sampled batch
// of about 300 of its 2100 columns (forward, input gradient, step), the
// lower layers, the 128-row chunks of batch encoding, plus square stress
// shapes. Training runs the sampled products through GemmCall row maps on
// the full weight matrix; they are timed here on dense operands of the
// same shape, since a row map moves only the pack and writeback
// addresses. Every GEMM is timed at --threads.
//
// The step section times the fused SGD step (gemm_tn_step: W -= lr * A^T B
// in the GEMM writeback) at those layers' weight gradients, next to the
// unfused sequence it replaces (tn GEMM into a zeroed gradient, then a
// separate w -= lr * g loop). Each entry records whether the two give
// memcmp-equal weights, which the step contract requires; a mismatch on
// any path exits 1.
//
// The sparse section times the encoder's bottom layer, which reads JOC
// rows of about 21 non-zeros in 2100 (1 %): kern::sparse_gemm_nn (the
// forward, a training batch and an encode chunk) and kern::sparse_tn_step
// (its weight step). Each entry records whether its output memcmp-equals
// the dense kernel's on the densified batch, which the sparse contract
// requires; a mismatch exits 1.
//
// The rows section times sq_dist_rows at KNN's reference-set shape: a
// batch of queries fans out over --threads, all sharing one packed panel.
// It also times kern::accumulate at phase 2's path-sum shape (per pair,
// 48 + 232 presence rows of d = 48 or 64 scattered over a 10,011-row code
// matrix, added into two length slots), in GB/s of operand traffic. Each
// entry records whether its output memcmp-equals the scalar path's, which
// the row-sweep contract requires; a mismatch exits 1.
//
// The rbf section times the RBF-SVM's kernel evaluations as the SVM runs
// them, GEMM dots followed by the RBF epilogue: the phase-2 decide block
// (64 queries x 967 support vectors x 144, against 256-row support tiles
// packed once, weighted sums) and the fit's Gram fill (1200 x 1200 x 144,
// terms written in place), in GFLOP/s of the GEMM and ns per (query,
// support vector). Each entry records whether the epilogue, fed the scalar path's
// dots and norms, memcmp-equals the scalar path's output, and each path
// records exp_max_ulp, the epilogue exp's worst distance from std::exp on
// [-708, 0]; the epilogue contract requires matches_scalar and at most
// 1 ulp, and a failure of either exits 1.
// --quick shrinks reps and the shape list for CI smoke.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "kern/kern.h"
#include "nn/matrix.h"
#include "nn/sparse.h"
#include "obs/json.h"
#include "par/par.h"
#include "par/pool.h"
#include "util/args.h"
#include "util/rng.h"

namespace {

using namespace fs;
namespace json = obs::json;

struct Shape {
  /// "nn": C = A B; "nt": C = A B^T (Dense::forward); "tn": C = A^T B
  /// (Dense weight gradients).
  const char* variant;
  std::size_t m, n, k;
  const char* what;  // which pipeline product this stands in for
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times `body` with rep-doubling until the measured wall clears `min_ms`
/// (one warm-up call first), returning {wall_ms, reps}.
template <typename Body>
std::pair<double, std::size_t> measure(double min_ms, const Body& body) {
  body();  // warm-up: touch pages, resolve dispatch, fill pack scratch
  std::size_t reps = 1;
  for (;;) {
    const double start = now_ms();
    for (std::size_t r = 0; r < reps; ++r) body();
    const double wall = now_ms() - start;
    if (wall >= min_ms || reps >= (1u << 20)) return {wall, reps};
    reps *= 2;
  }
}

json::Object bench_gemm(const Shape& shape, double min_ms, util::Rng& rng) {
  // Operands in their stored layout: A is k x m for tn, B is n x k for nt.
  kern::GemmCall call;
  call.m = shape.m;
  call.n = shape.n;
  call.k = shape.k;
  call.a_trans = shape.variant[0] == 't';
  call.b_trans = shape.variant[1] == 't';
  nn::Matrix a(call.a_trans ? shape.k : shape.m,
               call.a_trans ? shape.m : shape.k);
  nn::Matrix b(call.b_trans ? shape.n : shape.k,
               call.b_trans ? shape.k : shape.n);
  nn::Matrix c(shape.m, shape.n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal();
  call.a = a.data();
  call.lda = a.cols();
  call.b = b.data();
  call.ldb = b.cols();
  call.c = c.data();
  call.ldc = shape.n;

  const auto [wall_ms, reps] = measure(min_ms, [&] { kern::gemm(call); });
  const double flops = 2.0 * static_cast<double>(shape.m) *
                       static_cast<double>(shape.n) *
                       static_cast<double>(shape.k) *
                       static_cast<double>(reps);
  json::Object entry;
  entry["what"] = std::string(shape.what);
  entry["variant"] = std::string(shape.variant);
  entry["m"] = shape.m;
  entry["n"] = shape.n;
  entry["k"] = shape.k;
  entry["reps"] = reps;
  entry["wall_ms"] = wall_ms;
  entry["gflops"] = wall_ms > 0.0 ? flops / (wall_ms * 1e6) : 0.0;
  return entry;
}

/// The fused step and its unfused twin on one tn shape (m x n weights, k
/// batch rows): timings, and whether both leave the same weight bits.
json::Object bench_step(const Shape& shape, double min_ms, util::Rng& rng) {
  constexpr double kLr = 1e-3;
  nn::Matrix a(shape.k, shape.m), b(shape.k, shape.n);
  nn::Matrix w0(shape.m, shape.n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal();
  for (std::size_t i = 0; i < w0.size(); ++i) w0.data()[i] = rng.normal();
  nn::Matrix grad(shape.m, shape.n);
  const auto fused = [&](nn::Matrix& w) {
    kern::gemm_tn_step(shape.m, shape.n, shape.k, a.data(), shape.m,
                       b.data(), shape.n, w.data(), shape.n, kLr);
  };
  const auto unfused = [&](nn::Matrix& w) {
    grad.fill(0.0);
    kern::gemm_tn(shape.m, shape.n, shape.k, a.data(), shape.m, b.data(),
                  shape.n, grad.data(), shape.n, /*accumulate=*/true);
    for (std::size_t i = 0; i < w.size(); ++i)
      w.data()[i] -= kLr * grad.data()[i];
  };

  nn::Matrix w_fused = w0, w_unfused = w0;
  fused(w_fused);
  unfused(w_unfused);
  const bool matches = std::memcmp(w_fused.data(), w_unfused.data(),
                                   w0.size() * sizeof(double)) == 0;

  const auto [wall_ms, reps] = measure(min_ms, [&] { fused(w_fused); });
  const auto [unfused_ms, unfused_reps] =
      measure(min_ms, [&] { unfused(w_unfused); });
  const double flops_per_call = 2.0 * static_cast<double>(shape.m) *
                                static_cast<double>(shape.n) *
                                static_cast<double>(shape.k);
  const auto gflops = [&](double ms, std::size_t count) {
    return ms > 0.0 ? flops_per_call * static_cast<double>(count) / (ms * 1e6)
                    : 0.0;
  };
  json::Object entry;
  entry["what"] = std::string(shape.what);
  entry["variant"] = std::string(shape.variant);
  entry["m"] = shape.m;
  entry["n"] = shape.n;
  entry["k"] = shape.k;
  entry["reps"] = reps;
  entry["wall_ms"] = wall_ms;
  entry["gflops"] = gflops(wall_ms, reps);
  entry["unfused_reps"] = unfused_reps;
  entry["unfused_wall_ms"] = unfused_ms;
  entry["unfused_gflops"] = gflops(unfused_ms, unfused_reps);
  entry["matches_unfused"] = matches;
  return entry;
}

/// One sparse-input call: `rows` JOC rows `width` wide with `nnz` non-zeros
/// each, against `n` output units.
struct SparseShape {
  const char* op;  // "forward" (sparse_gemm_nn) or "step" (sparse_tn_step)
  std::size_t rows, width, nnz, n;
  const char* what;
};

json::Object bench_sparse(const SparseShape& shape, double min_ms,
                          util::Rng& rng) {
  constexpr double kLr = 1e-3;
  nn::Matrix dense(shape.rows, shape.width);
  for (std::size_t r = 0; r < shape.rows; ++r)
    for (std::size_t e = 0; e < shape.nnz; ++e)
      dense(r, rng.index(shape.width)) = rng.uniform(0.5, 2.0);
  const nn::SparseRows a = nn::SparseRows::from_dense(dense);
  nn::Matrix w0(shape.width, shape.n), g(shape.rows, shape.n);
  for (std::size_t i = 0; i < w0.size(); ++i) w0.data()[i] = rng.normal();
  for (std::size_t i = 0; i < g.size(); ++i) g.data()[i] = rng.normal();
  const std::vector<double> bias(shape.n, 0.125);
  const bool forward = std::strcmp(shape.op, "forward") == 0;

  nn::Matrix out(shape.rows, shape.n), want(shape.rows, shape.n);
  nn::Matrix w = w0, w_want = w0;
  const auto call = [&] {
    if (forward)
      kern::sparse_gemm_nn(a.view(), w0.data(), shape.n, shape.n, out.data(),
                           shape.n, kern::Epilogue::kBiasRelu, bias.data());
    else
      kern::sparse_tn_step(a.view(), g.data(), shape.n, shape.n, w.data(),
                           shape.n, kLr);
  };
  call();
  if (forward)
    kern::gemm_nn(shape.rows, shape.n, shape.width, dense.data(),
                  shape.width, w0.data(), shape.n, want.data(), shape.n,
                  /*accumulate=*/false, kern::Epilogue::kBiasRelu,
                  bias.data());
  else
    kern::gemm_tn_step(shape.width, shape.n, shape.rows, dense.data(),
                       shape.width, g.data(), shape.n, w_want.data(), shape.n,
                       kLr);
  const nn::Matrix& got = forward ? out : w;
  const nn::Matrix& expected = forward ? want : w_want;
  const bool matches = std::memcmp(got.data(), expected.data(),
                                   got.size() * sizeof(double)) == 0;

  const auto [wall_ms, reps] = measure(min_ms, call);
  const double flops = 2.0 * static_cast<double>(a.nnz()) *
                       static_cast<double>(shape.n) *
                       static_cast<double>(reps);
  json::Object entry;
  entry["what"] = std::string(shape.what);
  entry["op"] = std::string(shape.op);
  entry["rows"] = shape.rows;
  entry["width"] = shape.width;
  entry["nnz"] = a.nnz();
  entry["n"] = shape.n;
  entry["reps"] = reps;
  entry["wall_ms"] = wall_ms;
  entry["gflops"] = wall_ms > 0.0 ? flops / (wall_ms * 1e6) : 0.0;
  entry["matches_dense"] = matches;
  return entry;
}

struct RowShape {
  std::size_t n, dim;
  const char* what;
};

/// Queries per timed batch: enough chunks to spread over the pool.
constexpr std::size_t kRowQueries = 64;

/// Outputs of one (op, shape) on the scalar path, keyed "op:n:dim".
using RowReference = std::map<std::string, std::vector<double>>;

json::Object bench_sq_dist(const RowShape& shape, double min_ms,
                           RowReference& reference) {
  // Seeded by shape alone, so every path sweeps the same operands.
  util::Rng rng(shape.n * 131 + shape.dim);
  nn::Matrix rows(shape.n, shape.dim), queries(kRowQueries, shape.dim);
  for (std::size_t i = 0; i < rows.size(); ++i) rows.data()[i] = rng.normal();
  for (std::size_t i = 0; i < queries.size(); ++i)
    queries.data()[i] = rng.normal();
  const kern::RowPanel panel(rows.data(), shape.n, shape.dim);
  std::vector<double> out(kRowQueries * shape.n);
  par::ParallelOptions options;
  options.grain = 1;
  const auto sweep = [&] {
    par::parallel_for(kRowQueries, options, [&](std::size_t q) {
      panel.sq_dist(queries.row(q), out.data() + q * shape.n);
    });
  };
  const auto [wall_ms, reps] = measure(min_ms, sweep);

  const std::string key = "sq_dist:" + std::to_string(shape.n) + ":" +
                          std::to_string(shape.dim);
  if (kern::active_path() == kern::IsaPath::kScalar) reference[key] = out;
  const std::vector<double>& want = reference.at(key);
  const bool matches =
      std::memcmp(want.data(), out.data(), out.size() * sizeof(double)) == 0;

  // A subtract, a multiply and an add per element.
  const double flops = 3.0 * static_cast<double>(shape.n) *
                       static_cast<double>(shape.dim) *
                       static_cast<double>(kRowQueries) *
                       static_cast<double>(reps);
  json::Object entry;
  entry["what"] = std::string(shape.what);
  entry["op"] = std::string("sq_dist");
  entry["n"] = shape.n;
  entry["dim"] = shape.dim;
  entry["queries"] = kRowQueries;
  entry["reps"] = reps;
  entry["wall_ms"] = wall_ms;
  entry["gflops"] = wall_ms > 0.0 ? flops / (wall_ms * 1e6) : 0.0;
  entry["matches_scalar"] = matches;
  return entry;
}

/// One RBF-SVM kernel evaluation shape: m queries against n support rows
/// of `dim`. "decide" runs SvmClassifier::decide's sequence (query norms,
/// then per 256-row tile of support rows packed at fit, a packed GEMM and
/// the alpha*y-weighted sums); "gram" runs the fit's kernel fill (the n
/// rows' norms, their gemm_nt with themselves and the terms in place;
/// m == n).
struct RbfShape {
  const char* op;
  std::size_t m, n, dim;
  const char* what;
};

/// The kernel width phase 2's fits land near on the gowalla preset, and
/// the SVM's support tile (ml::SvmScratch::kSupportTile).
constexpr double kRbfGamma = 1.0 / 144.0;
constexpr std::size_t kSupportTile = 256;

json::Object bench_rbf(const RbfShape& shape, double min_ms,
                       RowReference& reference) {
  util::Rng rng(shape.m * 7919 + shape.n * 131 + shape.dim);
  const bool decide = std::strcmp(shape.op, "decide") == 0;
  nn::Matrix support(shape.n, shape.dim);
  nn::Matrix queries(decide ? shape.m : 0, shape.dim);
  for (std::size_t i = 0; i < support.size(); ++i)
    support.data()[i] = rng.normal(0.0, 0.5);
  for (std::size_t i = 0; i < queries.size(); ++i)
    queries.data()[i] = rng.normal(0.0, 0.5);
  const double* q = decide ? queries.data() : support.data();
  std::vector<double> weights(shape.n);
  for (double& w : weights) w = rng.normal();
  std::vector<double> q_norms(shape.m), s_norms(shape.n),
      partials(shape.m * kern::kRowGroup);
  std::vector<double> dots(shape.m * (decide ? kSupportTile : shape.n));

  const auto block_of = [&](const double* block_dots, std::size_t s0,
                            std::size_t n) {
    kern::RbfBlock block;
    block.dots = block_dots;
    block.m = shape.m;
    block.n = block.ld = n;
    block.q_norms = q_norms.data();
    block.s_norms = s_norms.data() + s0;
    block.gamma = kRbfGamma;
    return block;
  };
  kern::row_norms(support.data(), shape.n, shape.dim, shape.dim,
                  s_norms.data());
  std::vector<kern::PackedRows> tiles;
  for (std::size_t s0 = 0; decide && s0 < shape.n; s0 += kSupportTile)
    tiles.emplace_back().assign(support.row(s0),
                                std::min(kSupportTile, shape.n - s0),
                                shape.dim, shape.dim);
  const auto evaluate = [&] {
    kern::row_norms(q, shape.m, shape.dim, shape.dim, q_norms.data());
    if (!decide) {
      kern::gemm_nt(shape.m, shape.n, shape.dim, q, shape.dim, q, shape.dim,
                    dots.data(), shape.n);
      kern::rbf_kernel(block_of(dots.data(), 0, shape.n), dots.data(),
                       shape.n);
      return;
    }
    std::fill(partials.begin(), partials.end(), 0.0);
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      const std::size_t s0 = t * kSupportTile;
      kern::gemm_nt_packed(shape.m, q, shape.dim, tiles[t], dots.data(),
                           tiles[t].rows());
      kern::rbf_accumulate(block_of(dots.data(), s0, tiles[t].rows()),
                           weights.data() + s0, partials.data());
    }
  };
  const auto [wall_ms, reps] = measure(min_ms, evaluate);

  // Epilogue bits on the scalar path's dots and norms (the whole m x n
  // block at once), which differ from this path's only through the GEMM.
  const std::string key = std::string("rbf:") + shape.op;
  if (kern::active_path() == kern::IsaPath::kScalar) {
    std::vector<double> inputs(shape.m * shape.n + shape.m + shape.n);
    kern::gemm_nt(shape.m, shape.n, shape.dim, q, shape.dim, support.data(),
                  shape.dim, inputs.data(), shape.n);
    kern::row_norms(q, shape.m, shape.dim, shape.dim,
                    inputs.data() + shape.m * shape.n);
    std::copy(s_norms.begin(), s_norms.end(),
              inputs.end() - static_cast<std::ptrdiff_t>(shape.n));
    reference[key + ":in"] = std::move(inputs);
  }
  const std::vector<double>& inputs = reference.at(key + ":in");
  std::vector<double> out(inputs.begin(), inputs.begin() + shape.m * shape.n);
  std::copy_n(inputs.begin() + shape.m * shape.n, shape.m, q_norms.begin());
  std::copy_n(inputs.end() - static_cast<std::ptrdiff_t>(shape.n), shape.n,
              s_norms.begin());
  const kern::RbfBlock whole = block_of(out.data(), 0, shape.n);
  if (decide) {
    std::fill(partials.begin(), partials.end(), 0.0);
    kern::rbf_accumulate(whole, weights.data(), partials.data());
    out = partials;
  } else {
    kern::rbf_kernel(whole, out.data(), shape.n);
  }
  if (kern::active_path() == kern::IsaPath::kScalar) reference[key] = out;
  const std::vector<double>& want = reference.at(key);
  const bool matches =
      std::memcmp(want.data(), out.data(), out.size() * sizeof(double)) == 0;

  const double evals = static_cast<double>(shape.m) *
                       static_cast<double>(shape.n) *
                       static_cast<double>(reps);
  json::Object entry;
  entry["what"] = std::string(shape.what);
  entry["op"] = std::string("rbf");
  entry["variant"] = std::string(shape.op);
  entry["m"] = shape.m;
  entry["n"] = shape.n;
  entry["dim"] = shape.dim;
  entry["reps"] = reps;
  entry["wall_ms"] = wall_ms;
  entry["gflops"] = wall_ms > 0.0 ? 2.0 * static_cast<double>(shape.dim) *
                                        evals / (wall_ms * 1e6)
                                  : 0.0;
  entry["ns_per_sv"] = evals > 0.0 ? wall_ms * 1e6 / evals : 0.0;
  entry["matches_scalar"] = matches;
  return entry;
}

/// The epilogue exp's worst distance from std::exp, in ulps, over a dense
/// sweep of [-708, 0] (the kernel arguments before a term underflows).
double exp_max_ulp() {
  constexpr std::size_t kPoints = 1 << 18;
  std::vector<double> x(kPoints), got(kPoints);
  util::Rng rng(708);
  for (std::size_t i = 0; i < kPoints; ++i)
    x[i] = i % 2 == 0 ? -708.0 * static_cast<double>(i) / kPoints
                      : -std::ldexp(rng.uniform(), -static_cast<int>(i % 64));
  kern::exp_values(x.data(), kPoints, got.data());
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < kPoints; ++i) {
    const auto a = std::bit_cast<std::uint64_t>(got[i]);
    const auto b = std::bit_cast<std::uint64_t>(std::exp(x[i]));
    worst = std::max(worst, a > b ? a - b : b - a);
  }
  return static_cast<double>(worst);
}

/// Phase 2's path-sum shape, counted on attack_full (gowalla preset, every
/// pair scored, k = 3): a pair's composite adds on average 48 presence rows
/// into its length-2 slot and 232 into its length-3 slot, each row one of
/// the 10,011 scored pairs' codes reached through the edge table.
constexpr std::size_t kPathCodeRows = 10011;
constexpr std::size_t kSlotRows[] = {48, 232};

/// kern::accumulate as phase 2 calls it: each of kRowQueries pairs (fanned
/// out over the pool) fills its two length slots from rows scattered over
/// a kPathCodeRows-row code matrix, in a fixed pseudo-random order.
json::Object bench_accumulate(std::size_t dim, double min_ms,
                              RowReference& reference) {
  util::Rng rng(kPathCodeRows * 131 + dim);
  nn::Matrix codes(kPathCodeRows, dim);
  for (std::size_t i = 0; i < codes.size(); ++i)
    codes.data()[i] = rng.normal();
  const std::size_t rows_per_pair = kSlotRows[0] + kSlotRows[1];
  std::vector<std::size_t> picks(kRowQueries * rows_per_pair);
  for (std::size_t& pick : picks) pick = rng.index(kPathCodeRows);
  std::vector<double> out(kRowQueries * 2 * dim);
  par::ParallelOptions options;
  options.grain = 1;
  const auto sweep = [&] {
    par::parallel_for(kRowQueries, options, [&](std::size_t q) {
      double* slots = out.data() + q * 2 * dim;
      std::fill(slots, slots + 2 * dim, 0.0);
      const std::size_t* pick = picks.data() + q * rows_per_pair;
      for (std::size_t slot = 0; slot < 2; ++slot)
        for (std::size_t i = 0; i < kSlotRows[slot]; ++i)
          kern::accumulate(slots + slot * dim, codes.row(*pick++), dim);
    });
  };
  const auto [wall_ms, reps] = measure(min_ms, sweep);

  const std::string key = "accumulate:" + std::to_string(dim);
  if (kern::active_path() == kern::IsaPath::kScalar) reference[key] = out;
  const std::vector<double>& want = reference.at(key);
  const bool matches =
      std::memcmp(want.data(), out.data(), out.size() * sizeof(double)) == 0;

  // Each add reads the slot and the row and writes the slot back.
  const double bytes = 3.0 * sizeof(double) * static_cast<double>(dim) *
                       static_cast<double>(rows_per_pair) *
                       static_cast<double>(kRowQueries) *
                       static_cast<double>(reps);
  json::Object entry;
  entry["what"] = std::string("phase2.path_sum");
  entry["op"] = std::string("accumulate");
  entry["n"] = rows_per_pair;
  entry["dim"] = dim;
  entry["queries"] = kRowQueries;
  entry["reps"] = reps;
  entry["wall_ms"] = wall_ms;
  entry["gb_per_s"] = wall_ms > 0.0 ? bytes / (wall_ms * 1e6) : 0.0;
  entry["matches_scalar"] = matches;
  return entry;
}

int run(const util::ArgParser& args) {
  par::set_threads(static_cast<std::size_t>(args.get_int_in(
      "threads", 0, static_cast<long long>(par::kMaxThreads))));
  const bool quick = args.get_flag("quick");
  const double min_ms = quick ? 5.0 : args.get_double("min-ms");

  // The dense products of one gowalla training batch (16 rows; sampled
  // output layer about 300 of 2100 columns; encoder 2100 -> 320 -> 48, so
  // decoder 48 -> 320 -> 2100), in the variant each runs (input-major
  // weights: forward nn, input gradient nt; the output-major output layer
  // the other way round), an encode chunk, and square stress shapes.
  std::vector<Shape> shapes = {
      {"nt", 16, 300, 320, "decoder.out.forward (sampled)"},
      {"nn", 16, 320, 300, "decoder.out.grad_input (sampled)"},
      {"nn", 16, 48, 320, "encoder.l2.forward"},
      {"nt", 16, 320, 48, "encoder.l2.grad_input"},
      {"nn", 16, 320, 48, "decoder.l1.forward"},
      {"nt", 16, 48, 320, "decoder.l1.grad_input"},
      {"nn", 128, 48, 320, "encode.l2 (128-row chunk)"},
      {"nn", 256, 256, 256, "square"},
  };
  if (!quick) shapes.push_back({"nn", 512, 512, 512, "square-large"});

  // The weight steps of the same batch: W_S -= lr * dPre^T . h on the
  // sampled output rows, and the two lower layers.
  const std::vector<Shape> step_shapes = {
      {"tn", 300, 320, 16, "decoder.out.step (sampled)"},
      {"tn", 320, 48, 16, "encoder.l2.step"},
      {"tn", 48, 320, 16, "decoder.l1.step"},
  };

  // The encoder's sparse bottom layer (2100 -> 320) at gowalla's ~21
  // non-zeros per JOC row: a training batch's forward and step, and a
  // 128-row encode chunk.
  const std::vector<SparseShape> sparse_shapes = {
      {"forward", 16, 2100, 21, 320, "encoder.l1.forward (sparse)"},
      {"step", 16, 2100, 21, 320, "encoder.l1.step (sparse)"},
      {"forward", 128, 2100, 21, 320, "encode.l1 (128-row chunk)"},
  };

  // KNN's distance sweep over the attack_full 2400 x 48 reference set.
  const RowShape knn_shape = {2400, 48, "knn.reference"};

  // The RBF-SVM on attack_full: a phase-2 decide block against 967
  // support vectors of the 144-wide composite, and the Gram fill of a
  // 1200-row fit.
  const std::vector<RbfShape> rbf_shapes = {
      {"decide", 64, 967, 144, "svm.decide (64-row block)"},
      {"gram", 1200, 1200, 144, "svm.fit.gram"},
  };

  json::Array paths;
  bool rows_match = true;
  bool steps_match = true;
  bool sparse_match = true;
  bool rbf_match = true;
  bool exp_ok = true;
  RowReference reference;  // filled by the scalar path, which runs first
  for (const kern::IsaPath path : kern::supported_paths()) {
    kern::force_path(path);
    util::Rng rng(20260809);  // same operands for every path
    json::Object section;
    section["path"] = std::string(kern::path_name(path));
    json::Array gemm;
    for (const Shape& shape : shapes)
      gemm.emplace_back(bench_gemm(shape, min_ms, rng));
    section["gemm"] = std::move(gemm);
    json::Array step;
    for (const Shape& shape : step_shapes) {
      json::Object entry = bench_step(shape, min_ms, rng);
      steps_match = steps_match && entry["matches_unfused"].as_bool();
      step.emplace_back(std::move(entry));
    }
    section["step"] = std::move(step);
    json::Array sparse;
    for (const SparseShape& shape : sparse_shapes) {
      json::Object entry = bench_sparse(shape, min_ms, rng);
      sparse_match = sparse_match && entry["matches_dense"].as_bool();
      sparse.emplace_back(std::move(entry));
    }
    section["sparse"] = std::move(sparse);
    json::Array rows;
    {
      json::Object entry = bench_sq_dist(knn_shape, min_ms, reference);
      rows_match = rows_match && entry["matches_scalar"].as_bool();
      rows.emplace_back(std::move(entry));
    }
    for (const std::size_t dim : {48u, 64u}) {
      json::Object entry = bench_accumulate(dim, min_ms, reference);
      rows_match = rows_match && entry["matches_scalar"].as_bool();
      rows.emplace_back(std::move(entry));
    }
    section["rows"] = std::move(rows);
    json::Array rbf;
    for (const RbfShape& shape : rbf_shapes) {
      json::Object entry = bench_rbf(shape, min_ms, reference);
      rbf_match = rbf_match && entry["matches_scalar"].as_bool();
      rbf.emplace_back(std::move(entry));
    }
    section["rbf"] = std::move(rbf);
    const double ulps = exp_max_ulp();
    exp_ok = exp_ok && ulps <= 1.0;
    section["exp_max_ulp"] = ulps;
    paths.emplace_back(std::move(section));
  }

  json::Object root;
  root["schema_version"] = 8;
  root["threads"] = par::threads();
  root["paths"] = std::move(paths);

  const json::Value report(std::move(root));
  json::write_file(args.get("out"), report, 2);

  // Human-readable recap: GFLOP/s per (path, variant, shape).
  std::printf("threads %zu\n", par::threads());
  for (const json::Value& section : report.at("paths").as_array()) {
    const char* path = section.at("path").as_string().c_str();
    for (const json::Value& entry : section.at("gemm").as_array())
      std::printf("%-7s %s(%4.0f,%4.0f,%4.0f) %7.2f GFLOP/s  %s\n", path,
                  entry.at("variant").as_string().c_str(),
                  entry.at("m").as_number(), entry.at("n").as_number(),
                  entry.at("k").as_number(), entry.at("gflops").as_number(),
                  entry.at("what").as_string().c_str());
  }
  for (const json::Value& section : report.at("paths").as_array()) {
    const char* path = section.at("path").as_string().c_str();
    for (const json::Value& entry : section.at("step").as_array())
      std::printf("%-7s step(%4.0f,%4.0f,%4.0f) %7.2f GFLOP/s  (unfused "
                  "%.2f)  %s%s\n",
                  path, entry.at("m").as_number(), entry.at("n").as_number(),
                  entry.at("k").as_number(), entry.at("gflops").as_number(),
                  entry.at("unfused_gflops").as_number(),
                  entry.at("what").as_string().c_str(),
                  entry.at("matches_unfused").as_bool() ? "" : "  MISMATCH");
  }
  for (const json::Value& section : report.at("paths").as_array()) {
    const char* path = section.at("path").as_string().c_str();
    for (const json::Value& entry : section.at("sparse").as_array())
      std::printf("%-7s %-7s(%4.0f x %4.0f, nnz %5.0f, n %4.0f) %7.2f "
                  "GFLOP/s  %s%s\n",
                  path, entry.at("op").as_string().c_str(),
                  entry.at("rows").as_number(), entry.at("width").as_number(),
                  entry.at("nnz").as_number(), entry.at("n").as_number(),
                  entry.at("gflops").as_number(),
                  entry.at("what").as_string().c_str(),
                  entry.at("matches_dense").as_bool() ? "" : "  MISMATCH");
  }
  for (const json::Value& section : report.at("paths").as_array()) {
    const char* path = section.at("path").as_string().c_str();
    for (const json::Value& entry : section.at("rows").as_array()) {
      const bool bandwidth = entry.contains("gb_per_s");
      std::printf("%-7s %-10s(%4.0f x %4.0f) %7.2f %s  %s%s\n", path,
                  entry.at("op").as_string().c_str(),
                  entry.at("n").as_number(), entry.at("dim").as_number(),
                  entry.at(bandwidth ? "gb_per_s" : "gflops").as_number(),
                  bandwidth ? "GB/s   " : "GFLOP/s",
                  entry.at("what").as_string().c_str(),
                  entry.at("matches_scalar").as_bool() ? ""
                                                       : "  MISMATCH");
    }
  }
  for (const json::Value& section : report.at("paths").as_array()) {
    const char* path = section.at("path").as_string().c_str();
    for (const json::Value& entry : section.at("rbf").as_array())
      std::printf("%-7s rbf %-6s(%4.0f x %4.0f x %3.0f) %7.2f GFLOP/s  "
                  "%6.2f ns/SV  %s%s\n",
                  path, entry.at("variant").as_string().c_str(),
                  entry.at("m").as_number(), entry.at("n").as_number(),
                  entry.at("dim").as_number(), entry.at("gflops").as_number(),
                  entry.at("ns_per_sv").as_number(),
                  entry.at("what").as_string().c_str(),
                  entry.at("matches_scalar").as_bool() ? "" : "  MISMATCH");
    std::printf("%-7s exp max error %.0f ulp\n", path,
                section.at("exp_max_ulp").as_number());
  }
  std::printf("wrote %s\n", args.get("out").c_str());
  if (!steps_match)
    std::fprintf(stderr,
                 "kernel_bench: a fused step differs from the unfused one\n");
  if (!sparse_match)
    std::fprintf(stderr,
                 "kernel_bench: a sparse kernel differs from the dense one\n");
  if (!rows_match)
    std::fprintf(stderr,
                 "kernel_bench: a row sweep differs from the scalar path\n");
  if (!rbf_match)
    std::fprintf(stderr,
                 "kernel_bench: an RBF epilogue differs from the scalar "
                 "path\n");
  if (!exp_ok)
    std::fprintf(stderr,
                 "kernel_bench: the epilogue exp is more than 1 ulp from "
                 "std::exp\n");
  return rows_match && steps_match && sparse_match && rbf_match && exp_ok
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args;
  args.add_option("out", "kernel_bench.json", "JSON report output file");
  args.add_option("threads", "1",
                  "worker threads for the GEMM and row-sweep regions (1 gives "
                  "clean per-ISA numbers; results are identical regardless)");
  args.add_option("min-ms", "80",
                  "minimum measured wall per (path, shape); reps double "
                  "until it is reached");
  args.add_flag("quick", "CI smoke: small shapes, short measurements");
  args.add_flag("help", "show options");
  try {
    args.parse(argc, argv);
    if (args.get_flag("help")) {
      std::fputs(args.help().c_str(), stderr);
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kernel_bench: %s\n", e.what());
    return 1;
  }
}
