#include "kern/kern.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "kern/kern_internal.h"
#include "par/par.h"
#include "util/aligned.h"

namespace fs::kern {

namespace {

// The GEMM and row-sweep tables of one path; null members when the build
// lacks the path.
struct PathKernels {
  const detail::VTable* gemm;
  const detail::RowKernels* rows;
};

const PathKernels* kernels_for(IsaPath path) {
  static const PathKernels table[] = {
      {detail::vtable_scalar(), detail::rows_scalar()},
      {detail::vtable_avx2(), detail::rows_avx2()},
      {detail::vtable_avx512(), detail::rows_avx512()},
  };
  return &table[static_cast<int>(path)];
}

bool cpu_supports(IsaPath path) {
  switch (path) {
    case IsaPath::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case IsaPath::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case IsaPath::kAvx512:
      return __builtin_cpu_supports("avx512f");
#else
    case IsaPath::kAvx2:
    case IsaPath::kAvx512:
      return false;
#endif
  }
  return false;
}

IsaPath parse_path(const std::string& name) {
  if (name == "scalar") return IsaPath::kScalar;
  if (name == "avx2") return IsaPath::kAvx2;
  if (name == "avx512") return IsaPath::kAvx512;
  throw std::runtime_error("FS_KERNEL: unknown kernel path '" + name +
                           "' (expected scalar|avx2|avx512)");
}

struct Dispatch {
  IsaPath path = IsaPath::kScalar;
  std::string requested;  // FS_KERNEL value, "" when auto-detected
};

std::mutex g_mutex;
Dispatch g_dispatch;
// The hot path reads one atomic: the resolved tables (null = unresolved).
std::atomic<const PathKernels*> g_kernels{nullptr};

const PathKernels* resolve_locked() {
  const char* env = std::getenv("FS_KERNEL");
  if (env != nullptr && *env != '\0') {
    const IsaPath requested = parse_path(env);
    if (!path_supported(requested))
      throw std::runtime_error(std::string("FS_KERNEL=") + env +
                               " is not supported on this host/build");
    g_dispatch = Dispatch{requested, env};
  } else {
    IsaPath best = IsaPath::kScalar;
    for (IsaPath candidate : {IsaPath::kAvx2, IsaPath::kAvx512})
      if (path_supported(candidate)) best = candidate;
    g_dispatch = Dispatch{best, ""};
  }
  const PathKernels* kernels = kernels_for(g_dispatch.path);
  g_kernels.store(kernels, std::memory_order_release);
  return kernels;
}

const PathKernels* active_kernels() {
  const PathKernels* kernels = g_kernels.load(std::memory_order_acquire);
  if (kernels != nullptr) return kernels;
  std::lock_guard<std::mutex> lock(g_mutex);
  kernels = g_kernels.load(std::memory_order_acquire);
  if (kernels != nullptr) return kernels;
  return resolve_locked();
}

}  // namespace

const char* path_name(IsaPath path) {
  switch (path) {
    case IsaPath::kScalar:
      return "scalar";
    case IsaPath::kAvx2:
      return "avx2";
    case IsaPath::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool path_supported(IsaPath path) {
  const PathKernels* kernels = kernels_for(path);
  return cpu_supports(path) && kernels->gemm != nullptr &&
         kernels->rows != nullptr;
}

std::vector<IsaPath> supported_paths() {
  std::vector<IsaPath> paths;
  for (IsaPath candidate :
       {IsaPath::kScalar, IsaPath::kAvx2, IsaPath::kAvx512})
    if (path_supported(candidate)) paths.push_back(candidate);
  return paths;
}

IsaPath active_path() {
  active_kernels();
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_dispatch.path;
}

std::string requested_path() {
  active_kernels();
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_dispatch.requested;
}

void force_path(IsaPath path) {
  if (!path_supported(path))
    throw std::runtime_error(std::string("force_path: ") + path_name(path) +
                             " is not supported on this host/build");
  std::lock_guard<std::mutex> lock(g_mutex);
  g_dispatch.path = path;
  g_kernels.store(kernels_for(path), std::memory_order_release);
}

namespace detail {

double* pack_scratch_a(std::size_t count) {
  thread_local std::vector<double, util::AlignedAllocator<double>> buffer;
  if (buffer.size() < count) buffer.resize(count);
  return buffer.data();
}

double* pack_scratch_b(std::size_t count) {
  thread_local std::vector<double, util::AlignedAllocator<double>> buffer;
  if (buffer.size() < count) buffer.resize(count);
  return buffer.data();
}

double* step_scratch(std::size_t count) {
  thread_local std::vector<double, util::AlignedAllocator<double>> buffer;
  if (buffer.size() < count) buffer.resize(count);
  return buffer.data();
}

}  // namespace detail

namespace {

/// True when the doubles [a, a + a_len) and [b, b + b_len) share an address.
bool overlaps(const double* a, std::size_t a_len, const double* b,
              std::size_t b_len) {
  const auto a0 = reinterpret_cast<std::uintptr_t>(a);
  const auto b0 = reinterpret_cast<std::uintptr_t>(b);
  return a0 < b0 + b_len * sizeof(double) && b0 < a0 + a_len * sizeof(double);
}

/// The highest buffer row a `rows`-row operand reaches through `map`.
std::size_t last_row(const std::uint32_t* map, std::size_t rows) {
  if (map == nullptr) return rows - 1;
  return *std::max_element(map, map + rows);
}

}  // namespace

void gemm(const GemmCall& call) {
  if (call.m == 0 || call.n == 0) return;
  if (call.c == nullptr)
    throw std::invalid_argument("kern::gemm: null output");
  if (call.k != 0 && (call.a == nullptr || call.b == nullptr))
    throw std::invalid_argument("kern::gemm: null operand");
  const bool step = call.epilogue == Epilogue::kStep;
  if (call.epilogue != Epilogue::kNone && !step && call.bias == nullptr)
    throw std::invalid_argument("kern::gemm: epilogue without bias");
  if (call.ldc < call.n)
    throw std::invalid_argument("kern::gemm: ldc < n");
  // Stored operand shapes: A is m x k (k x m transposed), B is k x n
  // (n x k transposed). A leading dimension shorter than a stored row
  // would read the next row's elements.
  const std::size_t a_rows = call.a_trans ? call.k : call.m;
  const std::size_t a_cols = call.a_trans ? call.m : call.k;
  const std::size_t b_rows = call.b_trans ? call.n : call.k;
  const std::size_t b_cols = call.b_trans ? call.k : call.n;
  if (call.k != 0 && call.lda < a_cols)
    throw std::invalid_argument("kern::gemm: lda shorter than a row of A");
  if (call.k != 0 && call.ldb < b_cols)
    throw std::invalid_argument("kern::gemm: ldb shorter than a row of B");
  if (step && call.accumulate)
    throw std::invalid_argument("kern::gemm: a step call cannot accumulate");
  // Two C rows mapped to one buffer row would race between chunks.
  if (call.c_rows != nullptr)
    for (std::size_t i = 1; i < call.m; ++i)
      if (call.c_rows[i] <= call.c_rows[i - 1])
        throw std::invalid_argument("kern::gemm: c_rows must ascend");
  if (step && call.k != 0) {
    const std::size_t c_len =
        last_row(call.c_rows, call.m) * call.ldc + call.n;
    const std::size_t b_len =
        last_row(call.b_rows, b_rows) * call.ldb + b_cols;
    if (overlaps(call.c, c_len, call.a, (a_rows - 1) * call.lda + a_cols) ||
        overlaps(call.c, c_len, call.b, b_len))
      throw std::invalid_argument(
          "kern::gemm: step output overlaps an operand");
  }
  active_kernels()->gemm->gemm(call);
}

namespace {

GemmCall make_call(std::size_t m, std::size_t n, std::size_t k,
                   const double* a, std::size_t lda, bool a_trans,
                   const double* b, std::size_t ldb, bool b_trans, double* c,
                   std::size_t ldc, bool accumulate, Epilogue epilogue,
                   const double* bias) {
  GemmCall call;
  call.m = m;
  call.n = n;
  call.k = k;
  call.a = a;
  call.lda = lda;
  call.a_trans = a_trans;
  call.b = b;
  call.ldb = ldb;
  call.b_trans = b_trans;
  call.c = c;
  call.ldc = ldc;
  call.accumulate = accumulate;
  call.epilogue = epilogue;
  call.bias = bias;
  return call;
}

}  // namespace

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, bool accumulate, Epilogue epilogue,
             const double* bias) {
  gemm(make_call(m, n, k, a, lda, /*a_trans=*/false, b, ldb,
                 /*b_trans=*/false, c, ldc, accumulate, epilogue, bias));
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, bool accumulate, Epilogue epilogue,
             const double* bias) {
  gemm(make_call(m, n, k, a, lda, /*a_trans=*/false, b, ldb,
                 /*b_trans=*/true, c, ldc, accumulate, epilogue, bias));
}

void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, bool accumulate, Epilogue epilogue,
             const double* bias) {
  gemm(make_call(m, n, k, a, lda, /*a_trans=*/true, b, ldb,
                 /*b_trans=*/false, c, ldc, accumulate, epilogue, bias));
}

void gemm_tn_step(std::size_t m, std::size_t n, std::size_t k,
                  const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* w, std::size_t ldw, double lr) {
  GemmCall call = make_call(m, n, k, a, lda, /*a_trans=*/true, b, ldb,
                            /*b_trans=*/false, w, ldw, /*accumulate=*/false,
                            Epilogue::kStep, /*bias=*/nullptr);
  call.scale = lr;
  gemm(call);
}

namespace {

/// Throws std::invalid_argument unless every row's columns ascend strictly
/// and stay below a.cols: the kernels index the dense operand by them.
void check_csr(const CsrView& a, const char* who) {
  if (a.rows == 0) return;
  if (a.offsets == nullptr)
    throw std::invalid_argument(std::string(who) + ": null offsets");
  if (a.offsets[a.rows] != 0 && (a.index == nullptr || a.values == nullptr))
    throw std::invalid_argument(std::string(who) + ": null entries");
  for (std::size_t r = 0; r < a.rows; ++r) {
    if (a.offsets[r + 1] < a.offsets[r])
      throw std::invalid_argument(std::string(who) + ": offsets descend");
    for (std::uint64_t p = a.offsets[r]; p < a.offsets[r + 1]; ++p)
      if (a.index[p] >= a.cols ||
          (p > a.offsets[r] && a.index[p] <= a.index[p - 1]))
        throw std::invalid_argument(
            std::string(who) + ": row columns must ascend below cols");
  }
}

/// Items per parallel chunk so a chunk holds kMinChunkFlop FLOPs of
/// `entries` non-zeros spread over `items`, each n wide: a function of
/// the operands alone.
std::size_t sparse_grain(std::uint64_t entries, std::size_t items,
                         std::size_t n) {
  const std::size_t per_item =
      static_cast<std::size_t>(entries / std::max<std::size_t>(items, 1)) + 1;
  return detail::flop_grain(2 * per_item * n);
}

/// sparse_tn_step's column-wise view of its operand, rebuilt per call in
/// thread-local buffers.
struct StepScratch {
  std::vector<std::pair<std::uint64_t, double>> entries;  // (col << 32 | row)
  std::vector<std::uint32_t> col;
  std::vector<std::uint64_t> start;
  std::vector<std::uint32_t> row;
  std::vector<double> value;
};

detail::CscView transpose(const CsrView& a, StepScratch& s) {
  s.entries.clear();
  for (std::size_t r = 0; r < a.rows; ++r)
    for (std::uint64_t p = a.offsets[r]; p < a.offsets[r + 1]; ++p)
      s.entries.emplace_back(std::uint64_t{a.index[p]} << 32 | r,
                             a.values[p]);
  // Keys are unique (one entry per row and column): the order is total.
  std::sort(s.entries.begin(), s.entries.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  s.col.clear();
  s.start.clear();
  s.row.clear();
  s.value.clear();
  for (const auto& [key, value] : s.entries) {
    const auto column = static_cast<std::uint32_t>(key >> 32);
    if (s.col.empty() || s.col.back() != column) {
      s.col.push_back(column);
      s.start.push_back(s.row.size());
    }
    s.row.push_back(static_cast<std::uint32_t>(key));
    s.value.push_back(value);
  }
  s.start.push_back(s.row.size());
  detail::CscView view;
  view.count = s.col.size();
  view.col = s.col.data();
  view.start = s.start.data();
  view.row = s.row.data();
  view.value = s.value.data();
  return view;
}

}  // namespace

void sparse_gemm_nn(const CsrView& a, const double* w, std::size_t ldw,
                    std::size_t n, double* c, std::size_t ldc,
                    Epilogue epilogue, const double* bias) {
  if (a.rows == 0 || n == 0) return;
  if (c == nullptr || w == nullptr)
    throw std::invalid_argument("kern::sparse_gemm_nn: null operand");
  if (ldw < n || ldc < n)
    throw std::invalid_argument("kern::sparse_gemm_nn: ldw or ldc < n");
  if (epilogue == Epilogue::kStep)
    throw std::invalid_argument("kern::sparse_gemm_nn: kStep is a step");
  if (epilogue != Epilogue::kNone && bias == nullptr)
    throw std::invalid_argument("kern::sparse_gemm_nn: epilogue without bias");
  check_csr(a, "kern::sparse_gemm_nn");
  const detail::VTable* table = active_kernels()->gemm;
  par::ParallelOptions options;
  options.what = "kern.sparse_gemm";
  options.grain = sparse_grain(a.offsets[a.rows], a.rows, n);
  par::parallel_for_chunks(a.rows, options, [&](const par::ChunkRange& ch) {
    table->sparse_rows(a, ch.begin, ch.end, w, ldw, n, c, ldc, epilogue,
                       bias);
  });
}

void sparse_tn_step(const CsrView& a, const double* g, std::size_t ldg,
                    std::size_t n, double* w, std::size_t ldw, double lr) {
  if (a.rows == 0 || n == 0) return;
  if (g == nullptr || w == nullptr)
    throw std::invalid_argument("kern::sparse_tn_step: null operand");
  if (ldg < n || ldw < n)
    throw std::invalid_argument("kern::sparse_tn_step: ldg or ldw < n");
  if (a.rows > std::uint64_t{0xffffffff})
    throw std::invalid_argument("kern::sparse_tn_step: too many rows");
  if (a.cols != 0 &&
      overlaps(w, (a.cols - 1) * ldw + n, g, (a.rows - 1) * ldg + n))
    throw std::invalid_argument(
        "kern::sparse_tn_step: weights overlap the gradient");
  check_csr(a, "kern::sparse_tn_step");
  thread_local StepScratch scratch;
  const detail::CscView t = transpose(a, scratch);
  const detail::VTable* table = active_kernels()->gemm;
  par::ParallelOptions options;
  options.what = "kern.sparse_step";
  options.grain = sparse_grain(a.offsets[a.rows], t.count, n);
  par::parallel_for_chunks(t.count, options, [&](const par::ChunkRange& ch) {
    table->sparse_step_cols(t, ch.begin, ch.end, g, ldg, n, w, ldw, lr);
  });
}

std::size_t packed_rows_size(std::size_t n, std::size_t dim) {
  return (n + kRowGroup - 1) / kRowGroup * kRowGroup * dim;
}

void pack_rows8(const double* rows, std::size_t n, std::size_t dim,
                double* out) {
  const std::size_t groups = (n + kRowGroup - 1) / kRowGroup;
  for (std::size_t g = 0; g < groups; ++g) {
    double* group = out + g * kRowGroup * dim;
    for (std::size_t lane = 0; lane < kRowGroup; ++lane) {
      const std::size_t r = g * kRowGroup + lane;
      for (std::size_t c = 0; c < dim; ++c)
        group[c * kRowGroup + lane] = r < n ? rows[r * dim + c] : 0.0;
    }
  }
}

void sq_dist_rows(const double* panel, std::size_t n, std::size_t dim,
                  const double* q, double* out) {
  active_kernels()->rows->sq_dist(panel, n, dim, q, out);
}

void accumulate(double* acc, const double* x, std::size_t n) {
  active_kernels()->rows->accumulate(acc, x, n);
}

void PackedRows::assign(const double* rows, std::size_t n, std::size_t k,
                        std::size_t ld) {
  if (n != 0 && k > ld)
    throw std::invalid_argument("kern::PackedRows: ld shorter than a row");
  const detail::VTable* table = active_kernels()->gemm;
  path_ = active_path();
  n_ = n;
  k_ = k;
  data_.resize((n + table->nr - 1) / table->nr * table->nr * k);
  table->pack_nt(rows, n, k, ld, data_.data());
}

bool PackedRows::on_active_path() const {
  return kernels_for(path_)->gemm == active_kernels()->gemm;
}

void gemm_nt_packed(std::size_t m, const double* a, std::size_t lda,
                    const PackedRows& b, double* c, std::size_t ldc) {
  if (!b.on_active_path())
    throw std::logic_error("kern::gemm_nt_packed: rows packed for " +
                           std::string(path_name(b.path_)) + ", active path " +
                           path_name(active_path()));
  if (m == 0 || b.n_ == 0) return;
  if (a == nullptr || c == nullptr)
    throw std::invalid_argument("kern::gemm_nt_packed: null operand");
  if ((b.k_ != 0 && lda < b.k_) || ldc < b.n_)
    throw std::invalid_argument("kern::gemm_nt_packed: lda or ldc too short");
  active_kernels()->gemm->gemm_packed(m, b.n_, b.k_, a, lda, b.data_.data(),
                                      c, ldc);
}

void row_norms(const double* rows, std::size_t n, std::size_t dim,
               std::size_t ld, double* out) {
  if (n != 0 && dim > ld)
    throw std::invalid_argument("kern::row_norms: ld shorter than a row");
  active_kernels()->gemm->row_norms(rows, n, dim, ld, out);
}

void exp_values(const double* x, std::size_t n, double* out) {
  active_kernels()->rows->exp(x, n, out);
}

void rbf_kernel(const RbfBlock& block, double* out, std::size_t ldo) {
  if (block.m != 0 && (block.ld < block.n || ldo < block.n))
    throw std::invalid_argument("kern::rbf_kernel: ld or ldo < n");
  active_kernels()->rows->rbf_kernel(block, out, ldo);
}

void rbf_accumulate(const RbfBlock& block, const double* weights,
                    double* partials) {
  if (block.m != 0 && block.ld < block.n)
    throw std::invalid_argument("kern::rbf_accumulate: ld < n");
  active_kernels()->rows->rbf_accumulate(block, weights, partials);
}

double stripe_sum(const double* p) {
  static_assert(kRowGroup == 8);
  return ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
}

RowPanel::RowPanel(const double* rows, std::size_t n, std::size_t dim) {
  assign(rows, n, dim);
}

void RowPanel::assign(const double* rows, std::size_t n, std::size_t dim) {
  data_.resize(packed_rows_size(n, dim));  // every element is packed below
  rows_ = n;
  dim_ = dim;
  pack_rows8(rows, n, dim, data_.data());
}

}  // namespace fs::kern
