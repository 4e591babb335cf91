// Fixed-size fork-join thread pool — the substrate of fs::par.
//
// The pool owns `threads - 1` long-lived workers; the calling thread is
// always the remaining participant, so `threads == 1` means "no workers at
// all" and a parallel region degenerates to plain inline execution. A
// region (ThreadPool::run) wakes every worker, runs the same callable on
// all participants, and returns once the last one finishes. Work
// distribution, determinism, and exception handling live a layer up in
// par.h/par.cpp — the pool only provides cheap fork-join.
//
// Process-wide configuration: the pool is created lazily on first use,
// sized by set_threads() (CLI --threads), the FS_THREADS environment
// variable, or std::thread::hardware_concurrency(), in that order of
// precedence.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fs::par {

class ThreadPool {
 public:
  /// A pool with `threads` total participants: `threads - 1` spawned
  /// workers plus the thread that calls run(). threads == 0 is clamped
  /// to 1.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total participants, calling thread included.
  std::size_t threads() const { return workers_.size() + 1; }

  /// Runs `work(slot)` on every participant — slot 0 is the calling
  /// thread, slots 1..threads-1 the workers — and blocks until all have
  /// returned. `work` must not throw (the dispatch layer in par.cpp
  /// catches per-chunk exceptions before they reach the pool) and must
  /// not call run() on the same pool (regions do not nest; nested
  /// parallel_for calls run inline instead).
  void run(const std::function<void(std::size_t)>& work);

 private:
  void worker_loop(std::size_t slot);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* work_ = nullptr;
  std::uint64_t generation_ = 0;  // bumped per region; workers wait on it
  std::size_t active_ = 0;        // workers still inside the current region
  bool stopping_ = false;
};

/// Ceiling on the process-wide pool size, for every caller: a thread count
/// from a flag or the environment never asks for more workers than this.
inline constexpr std::size_t kMaxThreads = 1024;

/// Thread count from the environment: FS_THREADS when set to a positive
/// integer, otherwise hardware_concurrency() (minimum 1); either is capped
/// at kMaxThreads.
std::size_t default_threads();

/// Configures the process-wide pool size. 0 means default_threads(). If a
/// pool of a different size already exists it is torn down and lazily
/// recreated on the next parallel region; must not be called from inside
/// one. Throws std::invalid_argument above kMaxThreads, leaving the
/// configured count unchanged.
void set_threads(std::size_t threads);

/// The currently configured thread count (without forcing pool creation).
std::size_t threads();

/// The process-wide pool, created on first use with the configured size.
ThreadPool& pool();

}  // namespace fs::par
