#include "par/pool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"

namespace fs::par {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads - 1);
  for (std::size_t slot = 1; slot < threads; ++slot)
    workers_.emplace_back([this, slot] { worker_loop(slot); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run(const std::function<void(std::size_t)>& work) {
  if (workers_.empty()) {
    work(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    work_ = &work;
    active_ = workers_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  work(0);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return active_ == 0; });
  work_ = nullptr;
}

void ThreadPool::worker_loop(std::size_t slot) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t)>* work = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] {
        return stopping_ || generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
      work = work_;
    }
    (*work)(slot);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (active_ == 0) done_cv_.notify_all();
    }
  }
}

namespace {

std::mutex g_pool_mu;
std::size_t g_configured_threads = 0;  // 0 = not configured yet
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

std::size_t default_threads() {
  if (const char* env = std::getenv("FS_THREADS")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && n > 0)
      return std::min(static_cast<std::size_t>(n), kMaxThreads);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, kMaxThreads);
}

void set_threads(std::size_t threads) {
  if (threads > kMaxThreads)
    throw std::invalid_argument("par::set_threads: " +
                                std::to_string(threads) + " exceeds the " +
                                std::to_string(kMaxThreads) +
                                "-thread ceiling");
  if (threads == 0) threads = default_threads();
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_configured_threads = threads;
  if (g_pool != nullptr && g_pool->threads() != threads) g_pool.reset();
}

std::size_t threads() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_configured_threads == 0) g_configured_threads = default_threads();
  return g_configured_threads;
}

ThreadPool& pool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_configured_threads == 0) g_configured_threads = default_threads();
  if (g_pool == nullptr) {
    g_pool = std::make_unique<ThreadPool>(g_configured_threads);
    obs::metrics()
        .gauge("par.threads", {}, "thread-pool size (caller included)")
        .set(static_cast<double>(g_pool->threads()));
  }
  return *g_pool;
}

}  // namespace fs::par
