#pragma once
// The in-process closed loop shared by score_bulk and heal_features: one
// generator thread keeps a fixed number of requests outstanding against a
// serve::Server, waits for the oldest, checks it, and submits the next.

#include <cstddef>
#include <deque>
#include <future>
#include <optional>

#include "harness.hpp"
#include "robusthd/serve/server.hpp"

namespace perfbench {

struct LoopSpec {
  std::size_t outstanding = 64;
  std::size_t warmup_requests = 4096;  ///< answered before the window opens
  std::size_t queries = 1;             ///< input count; query i % queries
  double seconds = 10.0;
  const char* submit_span = "serve.submit";
};

/// How the workload judged one answer.
struct Verdict {
  bool answered = false;  ///< an OK answer (not abstained/expired/error)
  bool correct = false;   ///< equal to the query's label
  bool valid = true;      ///< passed the workload's answer check
};

/// Runs warm-up, then the window, then drains what is still in flight.
///
/// `submit(q)` returns the future of query q, or nullopt when the server
/// refused it; `judge(q, response)` checks one answer; `after_answer(n)`
/// runs after the n-th answer of the window (heal_features ticks its chaos
/// campaign there). `before`/`after` bracket the window with stats
/// snapshots. Returns false when some answer failed the check.
template <class Submit, class Judge, class AfterAnswer>
bool closed_loop(robusthd::serve::Server& server, const LoopSpec& spec,
                 Submit&& submit, Judge&& judge, AfterAnswer&& after_answer,
                 SpanLog& log, Window& window, WindowTally& tally,
                 robusthd::serve::ServerStats& before,
                 robusthd::serve::ServerStats& after) {
  struct Pending {
    std::future<robusthd::serve::Response> future;
    std::size_t query;
    std::uint64_t request;
    std::uint64_t root;
    Clock::time_point submitted;
  };
  std::deque<Pending> inflight;
  std::size_t next_query = 0;
  std::uint64_t next_request = 0;
  std::uint64_t refused = 0;
  bool in_window = false;

  const auto issue = [&] {
    const std::size_t q = next_query++ % spec.queries;
    const std::uint64_t request = ++next_request;
    const std::uint64_t root = log.new_id();
    const auto t0 = Clock::now();
    auto future = submit(q);
    if (log.enabled()) {
      log.record({spec.submit_span, t0, Clock::now(), log.new_id(), root,
                  request});
    }
    if (!future) {
      ++refused;
      if (in_window) ++tally.attempted;
      return;
    }
    inflight.push_back({std::move(*future), q, request, root, t0});
  };

  bool valid = true;
  bool closed = false;
  std::size_t warm = 0;
  Clock::time_point end{};
  while (true) {
    while (inflight.size() < spec.outstanding) {
      const auto before_refused = refused;
      issue();
      if (refused != before_refused) break;  // retry after the next answer
    }
    if (inflight.empty()) break;  // everything refused: nothing to wait on
    Pending p = std::move(inflight.front());
    inflight.pop_front();
    const auto wait_start = log.enabled() ? Clock::now() : p.submitted;
    std::optional<robusthd::serve::Response> response;
    try {
      response = p.future.get();
    } catch (const std::exception&) {
      response.reset();
    }
    const auto done = Clock::now();

    if (!in_window) {
      if (++warm >= spec.warmup_requests) {
        window.open();
        log.open_window(window.start());
        before = server.stats();
        end = window.start() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(spec.seconds));
        in_window = true;
      }
      continue;
    }
    if (done >= end) {
      window.close();
      after = server.stats();
      closed = true;
      break;
    }

    for (std::size_t n = tally.cross(done, window); n > 0; --n) window.mark();
    ++tally.attempted;
    if (response) {
      const Verdict v = judge(p.query, *response);
      valid = valid && v.valid;
      if (v.answered) {
        ++tally.answered;
        tally.record(done - p.submitted);
      }
      if (v.correct) ++tally.correct;
    }
    if (log.enabled()) {
      log.record({"serve.wait", wait_start, done, log.new_id(), p.root,
                  p.request});
      log.record({"request", p.submitted, done, p.root, 0, p.request});
    }
    after_answer(tally.attempted);
  }
  if (!closed) {
    // Every submit was refused: close the window on what was measured.
    if (!in_window) {
      window.open();
      before = server.stats();
    }
    window.close();
    after = server.stats();
  }
  for (auto& p : inflight) p.future.wait();
  return valid;
}

}  // namespace perfbench
