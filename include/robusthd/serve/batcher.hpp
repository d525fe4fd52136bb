#pragma once
// Batch coalescing over the request queue.
//
// Scoring a query is a handful of word-parallel Hamming kernels; the
// bookkeeping around it (snapshot acquisition, completion delivery,
// stats) amortises much better over a batch. The batcher is the policy
// layer: block for the first request and take whatever else is already
// queued (up to max_batch) under the same lock, optionally lingering a
// bounded time to let a batch fill under light load.
//
// Latency/throughput knobs:
//  * max_batch — upper bound on coalescing (per-request latency under
//    load is ~batch service time, so keep it modest);
//  * linger — how long to hold an underfull batch open. Zero (default)
//    never waits beyond the first blocking pop: idle-load latency stays
//    at one queue hop, batches form naturally once the queue backs up.

#include <chrono>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "robusthd/serve/request_queue.hpp"

namespace robusthd::serve {

template <typename T>
class Batcher {
 public:
  /// Inspects a popped request before it joins a batch; returning true
  /// drops it (the predicate owns its disposal — completing the request,
  /// counting the shed). The deadline-propagation path uses this to skip
  /// work whose client has already given up, without the batcher knowing
  /// what a deadline is.
  using DropPredicate = std::function<bool(T&)>;

  Batcher(RequestQueue<T>& queue, std::size_t max_batch,
          std::chrono::nanoseconds linger = std::chrono::nanoseconds::zero(),
          DropPredicate drop = nullptr)
      : queue_(queue),
        max_batch_(max_batch == 0 ? 1 : max_batch),
        linger_(linger),
        drop_(std::move(drop)) {}

  std::size_t max_batch() const noexcept { return max_batch_; }

  /// Fills `out` with 1..max_batch requests. Blocks until at least one
  /// request is available. Returns false — with `out` empty — only when
  /// the queue is closed and fully drained (the worker's exit signal).
  /// Dropped requests never occupy a batch slot: an expired backlog is
  /// burned through at pop speed, not at scoring speed, and the batch is
  /// topped up from the queue in their place.
  bool next_batch(std::vector<T>& out) {
    out.clear();
    // One lock round trip moves everything already queued (up to
    // max_batch); later rounds only replace shed requests and never
    // block while the batch holds a live one.
    while (out.size() < max_batch_) {
      const std::size_t start = out.size();
      const std::size_t room = max_batch_ - start;
      const std::size_t got = out.empty() ? queue_.pop_batch(out, room)
                                          : queue_.try_pop_batch(out, room);
      if (got == 0) break;
      shed_dropped(out, start);
    }
    if (out.empty()) return false;  // closed and drained

    if (linger_ > std::chrono::nanoseconds::zero()) {
      const auto deadline = std::chrono::steady_clock::now() + linger_;
      while (out.size() < max_batch_) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        auto next = queue_.pop_for(deadline - now);
        if (!next) break;
        if (drop_ && drop_(*next)) continue;
        out.push_back(std::move(*next));
      }
    }
    return true;
  }

 private:
  /// Runs the drop predicate over out[start..] in arrival order and
  /// compacts the survivors in place.
  void shed_dropped(std::vector<T>& out, std::size_t start) {
    if (!drop_) return;
    std::size_t kept = start;
    for (std::size_t i = start; i < out.size(); ++i) {
      if (drop_(out[i])) continue;
      if (kept != i) out[kept] = std::move(out[i]);
      ++kept;
    }
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(kept), out.end());
  }

  RequestQueue<T>& queue_;
  const std::size_t max_batch_;
  const std::chrono::nanoseconds linger_;
  const DropPredicate drop_;
};

}  // namespace robusthd::serve
