#pragma once
// How a serve::Server hands a request's outcome back to its caller.
//
// Every accepted request carries a CompletionTarget and receives exactly
// one completion, with an explicit status:
//
//   kAnswered — a worker scored it (or the open breaker abstained);
//   kExpired  — its propagated deadline passed in the queue, unscored;
//   kDropped  — the server let go of it unanswered (a target destroyed
//               while still armed: shutdown or a worker that died).
//
// Two kinds of target exist. In-process callers get a future: the target
// holds the promise (the one allocation per request they have always
// paid). Event loops get a CompletionQueue: workers push tagged
// completions into it and ring an eventfd doorbell the loop keeps in its
// poll set, so one poll(2) waits for socket input and finished inference
// alike, with no promise, no future and no allocation per completion.

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace robusthd::serve {

/// What a client gets back for one query.
struct Response {
  int predicted = -1;
  double confidence = 0.0;
  /// Confidence cleared the recovery gate — the query was forwarded to
  /// the scrubber as a pseudo-labeled repair hint.
  bool trusted = false;
  /// Snapshot publication count the scoring model carried (telemetry:
  /// lets a client correlate answers with repair activity).
  std::uint64_t model_version = 0;
  /// Scored with quarantined chunks masked out (rung (b) of the
  /// degradation ladder): the answer is best-effort over the surviving
  /// dimensions.
  bool degraded = false;
  /// The circuit breaker was open (rung (c)): no scoring happened and
  /// `predicted` is -1 — the client should retry or fail over.
  bool abstained = false;
  /// The request's propagated deadline expired before a worker reached
  /// it: no scoring happened, `predicted` is -1, and retrying is futile —
  /// the budget is spent (the caller should surface kDeadlineExceeded).
  bool expired = false;
};

enum class CompletionStatus : std::uint8_t {
  kAnswered = 0,
  kExpired,
  kDropped,
};

/// One finished request as a CompletionQueue hands it back.
struct Completion {
  std::uint64_t tag = 0;  ///< the caller's tag from submission
  CompletionStatus status = CompletionStatus::kAnswered;
  Response response;  ///< meaningful for kAnswered (and kExpired's flag)
};

/// Multi-producer, single-consumer completion queue with an eventfd
/// doorbell. Workers push(); the owning loop polls fd() for POLLIN and
/// then drain()s. Only the first push after a drain rings the doorbell,
/// so a burst of completions from one batch costs one write(2) and one
/// wake-up.
///
/// Lifetime: held by shared_ptr. Every in-flight request keeps a
/// reference, so a loop may stop (and drop its own) while workers still
/// complete into the queue; the eventfd is closed when the last
/// reference goes, never while a worker could still ring it.
class CompletionQueue {
 public:
  /// Throws std::system_error when the eventfd cannot be created.
  CompletionQueue();
  ~CompletionQueue();

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// The doorbell: readable (POLLIN) while completions are waiting or
  /// after notify().
  int fd() const noexcept { return fd_; }

  void push(std::uint64_t tag, CompletionStatus status,
            const Response& response);

  /// Rings the doorbell without a completion (wakes the consumer, e.g.
  /// so it notices a stop request).
  void notify() noexcept;

  /// Consumer side: clears the doorbell and replaces `out` with every
  /// waiting completion, oldest first. The two buffers swap, so
  /// steady-state draining allocates nothing.
  void drain(std::vector<Completion>& out);

 private:
  void ring() noexcept;

  int fd_ = -1;
  std::mutex mutex_;
  std::vector<Completion> items_;
  bool rung_ = false;  ///< doorbell rung since the last drain
};

/// Where one request's outcome goes: a promise (the future adapter) or a
/// tagged slot in a CompletionQueue. Move-only. complete() delivers once
/// and disarms; destroying a still-armed target delivers kDropped, so an
/// accepted request is never silently lost.
class CompletionTarget {
 public:
  CompletionTarget() = default;
  explicit CompletionTarget(std::promise<Response> promise)
      : promise_(std::move(promise)) {}
  CompletionTarget(std::shared_ptr<CompletionQueue> queue, std::uint64_t tag)
      : queue_(std::move(queue)), tag_(tag) {}

  CompletionTarget(CompletionTarget&& other) noexcept;
  CompletionTarget& operator=(CompletionTarget&& other) noexcept;
  ~CompletionTarget() { complete(CompletionStatus::kDropped, Response{}); }

  /// Delivers the outcome and disarms; a no-op once disarmed. A promise
  /// receives kAnswered/kExpired as a value and kDropped as a
  /// std::runtime_error. noexcept on purpose: an outcome that could not
  /// be delivered would leave its caller waiting forever, so a failed
  /// allocation in CompletionQueue::push ends the program instead.
  void complete(CompletionStatus status, const Response& response) noexcept;

  /// Disarms without delivering — for a submission refused synchronously,
  /// whose caller already knows.
  void disarm() noexcept {
    promise_.reset();
    queue_.reset();
  }

 private:
  std::optional<std::promise<Response>> promise_;
  std::shared_ptr<CompletionQueue> queue_;
  std::uint64_t tag_ = 0;
};

}  // namespace robusthd::serve
