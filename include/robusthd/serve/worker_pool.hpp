#pragma once
// Persistent serving workers.
//
// Unlike util::parallel_for (fork/join over an index range), serving
// workers are long-running: each one loops "take a batch, score it,
// complete the requests" until the request queue closes and drains. This
// class owns only the thread lifecycle — start N workers on the same
// main function, join them, and surface the first worker exception on
// join instead of losing it to std::terminate.

#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace robusthd::serve {

class WorkerPool {
 public:
  WorkerPool() = default;
  ~WorkerPool() { join(); }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Launches `threads` workers, each running worker_main(worker_index)
  /// to completion. Call once.
  void start(std::size_t threads,
             std::function<void(std::size_t)> worker_main) {
    main_ = std::move(worker_main);
    threads_.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) {
      threads_.emplace_back([this, w] {
        try {
          main_(w);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex_);
          if (!first_error_) first_error_ = std::current_exception();
        }
      });
    }
  }

  std::size_t size() const noexcept { return threads_.size(); }

  /// Joins every worker; rethrows the first exception any of them died
  /// with. Idempotent (subsequent calls are no-ops).
  void join() {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    std::exception_ptr error;
    {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      std::swap(error, first_error_);
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  std::vector<std::thread> threads_;
  std::function<void(std::size_t)> main_;
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

}  // namespace robusthd::serve
