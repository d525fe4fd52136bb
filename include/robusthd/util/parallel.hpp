#pragma once
// Deterministic data parallelism.
//
// parallel_for statically chunks [0, n) across hardware threads: each
// index is visited exactly once, outputs indexed by i land in the same
// place regardless of thread count, so results are bit-identical to the
// serial loop — determinism is a core property of this repo's experiments
// and must survive the speedup.
//
// The callable is invoked directly (no std::function type-erasure), so
// the per-index cost is one inlinable call.

#include <algorithm>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace robusthd::util {

/// Number of worker threads parallel_for will use (>= 1).
std::size_t hardware_threads() noexcept;

namespace detail {

/// Below this, thread startup costs more than it saves.
inline constexpr std::size_t kParallelSerialThreshold = 16;

/// Shared implementation: statically partitions [0, n) into `workers`
/// contiguous ranges and runs them on `workers - 1` spawned threads plus
/// the calling thread. Exceptions thrown by fn are rethrown (first wins).
template <typename Fn>
void parallel_run(std::size_t n, Fn& fn, std::size_t max_threads) {
  if (n == 0) return;
  std::size_t workers = max_threads == 0 ? hardware_threads() : max_threads;
  workers = std::min(workers, n);

  if (workers <= 1 || n < kParallelSerialThreshold) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto run_range = [&](std::size_t begin, std::size_t end) {
    try {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  const std::size_t chunk = (n + workers - 1) / workers;
  for (std::size_t w = 1; w < workers; ++w) {
    const std::size_t begin = w * chunk;
    if (begin >= n) break;
    threads.emplace_back(run_range, begin, std::min(begin + chunk, n));
  }
  run_range(0, std::min(chunk, n));
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail

/// Invokes fn(i) for every i in [0, n), in parallel when n is large
/// enough to amortise thread startup. `max_threads` == 0 means use all
/// hardware threads. Exceptions thrown by fn are rethrown (first one wins).
template <typename Fn>
void parallel_for(std::size_t n, Fn fn, std::size_t max_threads = 0) {
  detail::parallel_run(n, fn, max_threads);
}

}  // namespace robusthd::util
