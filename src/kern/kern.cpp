#include "kern/kern.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "kern/kern_internal.h"
#include "util/aligned.h"

namespace fs::kern {

namespace {

const detail::VTable* vtable_for(IsaPath path) {
  switch (path) {
    case IsaPath::kScalar:
      return detail::vtable_scalar();
    case IsaPath::kAvx2:
      return detail::vtable_avx2();
    case IsaPath::kAvx512:
      return detail::vtable_avx512();
  }
  return nullptr;
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
// The hot path reads one atomic: the resolved vtable (null = unresolved).
std::atomic<const detail::VTable*> g_vtable{nullptr};

const detail::VTable* resolve_locked() {
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
  const detail::VTable* table = vtable_for(g_dispatch.path);
  g_vtable.store(table, std::memory_order_release);
  return table;
}

const detail::VTable* active_vtable() {
  const detail::VTable* table = g_vtable.load(std::memory_order_acquire);
  if (table != nullptr) return table;
  std::lock_guard<std::mutex> lock(g_mutex);
  table = g_vtable.load(std::memory_order_acquire);
  if (table != nullptr) return table;
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
  return cpu_supports(path) && vtable_for(path) != nullptr;
}

std::vector<IsaPath> supported_paths() {
  std::vector<IsaPath> paths;
  for (IsaPath candidate :
       {IsaPath::kScalar, IsaPath::kAvx2, IsaPath::kAvx512})
    if (path_supported(candidate)) paths.push_back(candidate);
  return paths;
}

IsaPath active_path() {
  active_vtable();
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_dispatch.path;
}

std::string requested_path() {
  active_vtable();
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_dispatch.requested;
}

void force_path(IsaPath path) {
  if (!path_supported(path))
    throw std::runtime_error(std::string("force_path: ") + path_name(path) +
                             " is not supported on this host/build");
  std::lock_guard<std::mutex> lock(g_mutex);
  g_dispatch.path = path;
  g_vtable.store(vtable_for(path), std::memory_order_release);
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

}  // namespace detail

void gemm(const GemmCall& call) {
  if (call.m == 0 || call.n == 0) return;
  if (call.c == nullptr)
    throw std::invalid_argument("kern::gemm: null output");
  if (call.k != 0 && (call.a == nullptr || call.b == nullptr))
    throw std::invalid_argument("kern::gemm: null operand");
  if (call.epilogue != Epilogue::kNone && call.bias == nullptr)
    throw std::invalid_argument("kern::gemm: epilogue without bias");
  if (call.ldc < call.n)
    throw std::invalid_argument("kern::gemm: ldc < n");
  active_vtable()->gemm(call);
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

}  // namespace fs::kern
