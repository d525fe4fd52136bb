#pragma once
// Bounded MPMC request queue — the admission edge of the serving runtime.
//
// Multiple producer threads (client frontends) push encoded queries;
// multiple consumer threads (batching workers) pop them. The queue is
// bounded so overload turns into backpressure (push blocks) or explicit
// rejection (try_push fails) instead of unbounded memory growth — a
// serving system's first line of defence.
//
// Shutdown contract: close() wakes every blocked producer and consumer.
// Pushes after close fail; pops continue to *drain* whatever was accepted
// before the close and only then report exhaustion. Graceful shutdown is
// therefore "close, then join consumers": no accepted request is dropped.
//
// Bypass: a producer may serve a batch on its own thread instead of
// pushing it, but only while the queue is open and empty, which is when a
// consumer would take the batch at once anyway. Bypasses are granted
// under the same lock as close(), so none starts after a close, and
// wait_bypasses() lets shutdown wait out the ones already running.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <iterator>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace robusthd::serve {

/// Mutex + condvar bounded queue. Simple by design: a blocking queue
/// gives exact FIFO and a provable drain-on-close — properties the
/// lock-free trust ring (scrubber.hpp) deliberately trades away. Workers
/// take whole batches with pop_batch, so the lock round trip is paid once
/// per batch, not once per request.
template <typename T>
class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Blocks while the queue is full. Returns false (item not consumed)
  /// if the queue is closed. `on_push` runs under the lock once the item
  /// is queued, so it happens before any consumer can take the item.
  template <typename OnPush = void (*)()>
  bool push(T&& item, OnPush on_push = [] {}) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    on_push();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; on failure (full or closed) `item` is untouched.
  template <typename OnPush = void (*)()>
  bool try_push(T& item, OnPush on_push = [] {}) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      on_push();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Waits up to `timeout` for one item; nullopt on timeout, or once the
  /// queue is closed and drained.
  template <typename Rep, typename Period>
  std::optional<T> pop_for(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!not_empty_.wait_for(lock, timeout,
                             [&] { return closed_ || !items_.empty(); })) {
      return std::nullopt;
    }
    return take(lock);
  }

  /// Batch pop: blocks until an item is available, then moves up to `max`
  /// items, oldest first, onto the back of `out` under that one lock
  /// acquisition. Returns how many it moved: 0 only once the queue is
  /// closed and drained.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    return take_batch(lock, out, max);
  }

  /// Non-blocking pop_batch: 0 when nothing is queued right now.
  std::size_t try_pop_batch(std::vector<T>& out, std::size_t max) {
    std::unique_lock<std::mutex> lock(mutex_);
    return take_batch(lock, out, max);
  }

  /// Grants a bypass when the queue is open and empty; every grant must
  /// be ended with end_bypass().
  bool try_bypass() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || !items_.empty()) return false;
    ++bypasses_;
    return true;
  }

  void end_bypass() {
    bool last_after_close = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      last_after_close = --bypasses_ == 0 && closed_;
    }
    if (last_after_close) bypass_done_.notify_all();
  }

  /// Call after close(): blocks until every bypass granted before the
  /// close has ended (none can start after it).
  void wait_bypasses() {
    std::unique_lock<std::mutex> lock(mutex_);
    bypass_done_.wait(lock, [&] { return bypasses_ == 0; });
  }

  /// Rejects future pushes and wakes every waiter. Idempotent.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Instantaneous number of queued items (monitoring only).
  std::size_t depth() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::optional<T> take(std::unique_lock<std::mutex>& lock) {
    if (items_.empty()) return std::nullopt;
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  std::size_t take_batch(std::unique_lock<std::mutex>& lock,
                         std::vector<T>& out, std::size_t max) {
    const std::size_t n = std::min(max, items_.size());
    const auto first = items_.begin();
    const auto last = first + static_cast<std::ptrdiff_t>(n);
    out.insert(out.end(), std::make_move_iterator(first),
               std::make_move_iterator(last));
    items_.erase(first, last);
    lock.unlock();
    // n slots freed: wake up to n blocked producers.
    if (n == 1) {
      not_full_.notify_one();
    } else if (n > 1) {
      not_full_.notify_all();
    }
    return n;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::condition_variable bypass_done_;
  std::deque<T> items_;
  std::size_t bypasses_ = 0;  ///< bypasses granted and not yet ended
  bool closed_ = false;
};

}  // namespace robusthd::serve
