#pragma once
// robusthd::fleet::Frontend — the fleet's TCP face.
//
// One listener + one poll(2) event loop thread per shard: shard i's
// endpoint is ports()[i]. A connection may still talk about any tenant
// — every predict request is routed through Fleet::route (so
// server-side failover and breaker shedding apply no matter which port
// the client picked); connecting to the tenant's primary port is a
// locality optimisation the client-side router makes, not a
// correctness requirement.
//
// Each loop iteration reads every ready connection, then dispatches the
// predict requests it collected. Each is routed once, and one whose
// propagated deadline has passed is shed (Fleet::shed_expired). The
// first max_batch requests routed to the loop's own shard may be
// answered on the loop itself, through the workers' own per-batch code
// (serve::Server::answer_now), with the answers framed in the same
// iteration (FrontendCounters::answered_inline). That happens only when
// the shard is idle (queue open and empty, batch_linger zero) and it
// pays: the shard's measured service time for the batch is no longer
// than its measured hand-off to an idle worker (Server::inline_pays).
// So a loop only ever scores batches cheaper than the wake-up it saves,
// and a heavy model keeps all its scoring on its (possibly many)
// workers. Loop-answered requests run on the loop thread, which
// ShardConfig::cpus does not pin.
//
// Everything else (another shard's requests, a busy, lingering or heavy
// shard, a fresh shard that has not measured its costs yet, the rest of
// a burst larger than one batch) takes the queue path, where the loop
// never blocks on inference. The request is submitted with a completion
// target (Fleet::try_submit_to): the loop's serve::CompletionQueue and a
// tag naming the connection, its generation and the request. Workers push
// each outcome (answered, expired in queue, or dropped at shutdown, as
// an explicit status) into that queue and ring its eventfd, which sits
// in the loop's poll set next to the sockets — so one poll(2) waits for
// input and completions alike, and no request waits for another
// connection's inference. A completion whose connection closed
// meanwhile is dropped, even when a new peer already holds the same fd
// number: every connection carries a generation the completion must
// match. stop() wakes the loop through the same eventfd, and the only
// poll timeout left is the reapers' next deadline (read_deadline,
// idle_timeout). All reads and writes for a connection happen on its
// shard's loop thread, so per-connection state needs no locks; only
// counters are atomic.
//
// Framing violations (bad magic/CRC/length — see fleet/wire.hpp) poison
// the connection and it is closed without a reply; semantically invalid
// but well-framed requests (wrong dimension, unparseable payload, full
// queue) get an error frame and the connection lives on.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "robusthd/fleet/fleet.hpp"
#include "robusthd/fleet/wire.hpp"
#include "robusthd/util/metrics.hpp"

namespace robusthd::fleet {

struct FrontendConfig {
  std::string host = "127.0.0.1";
  /// First port; shard i listens on base_port + i. 0 = ephemeral ports
  /// (read the actual ones back via ports()).
  std::uint16_t base_port = 0;
  int backlog = 64;
  std::size_t max_connections_per_shard = 128;
  std::size_t max_payload = wire::kMaxPayload;
  /// A connection whose unflushed output exceeds this is dropped — a
  /// peer that stops reading cannot pin server memory.
  std::size_t max_write_buffer = 8u << 20;
  /// Slowloris defense: a connection holding a *partial* frame (header
  /// or payload bytes buffered, frame incomplete) longer than this is
  /// reaped. A peer trickling one byte at a time cannot pin a
  /// connection slot indefinitely. 0 disables.
  std::chrono::milliseconds read_deadline{2000};
  /// Reap connections with no traffic and nothing in flight for this
  /// long. 0 (default) disables — benches hold idle connections open.
  std::chrono::milliseconds idle_timeout{0};
  /// Queue-aware admission: consult the routed shard's estimated queue
  /// wait against a request's propagated deadline and refuse early
  /// (kBusy) instead of enqueueing work that will expire in the queue.
  bool admission_control = true;
};

/// The frontend's metrics by name (Frontend::counters()).
struct FrontendCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t protocol_errors = 0;  ///< poisoned framing → closed
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t busy_rejections = 0;       ///< kBusy error frames
  std::uint64_t dimension_rejections = 0;  ///< kDimensionMismatch frames
  std::uint64_t bad_requests = 0;          ///< kBadRequest frames
  /// Requests shed over deadlines (admission refusals + in-queue
  /// expiries surfaced to this frontend's clients).
  std::uint64_t deadline_sheds = 0;
  /// Connections closed by the read-deadline / idle reaper.
  std::uint64_t reaped_connections = 0;
  /// Completions that arrived after their connection had closed: dropped
  /// unframed, even when a new peer already holds the same fd number.
  std::uint64_t stale_completions = 0;
  /// Predict requests the loop answered itself (Server::answer_now)
  /// instead of queueing them for the shard's workers.
  std::uint64_t answered_inline = 0;
};

class Frontend {
 public:
  /// The fleet must outlive the frontend.
  explicit Frontend(Fleet& fleet, FrontendConfig config = {});
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Binds every listener (throws std::runtime_error on bind failure)
  /// and starts the loop threads. ports() is valid once this returns.
  void start();

  /// Closes listeners and every connection, joins the loops. Idempotent.
  void stop();

  /// Actual listening port per shard (after start()).
  std::vector<std::uint16_t> ports() const { return ports_; }

  FrontendCounters counters() const;

 private:
  struct Loop;  // one per shard; definition in frontend.cpp

  Fleet& fleet_;
  FrontendConfig config_;
  std::vector<std::uint16_t> ports_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  bool started_ = false;

  // Metrics (all loops record into these).
  util::MetricsRegistry metrics_;
  util::Counter& connections_accepted_ =
      metrics_.counter("frontend.connections_accepted");
  util::Counter& connections_closed_ =
      metrics_.counter("frontend.connections_closed");
  util::Counter& protocol_errors_ =
      metrics_.counter("frontend.protocol_errors");
  util::Counter& frames_in_ = metrics_.counter("frontend.frames_in");
  util::Counter& frames_out_ = metrics_.counter("frontend.frames_out");
  util::Counter& busy_rejections_ =
      metrics_.counter("frontend.busy_rejections");
  util::Counter& dimension_rejections_ =
      metrics_.counter("frontend.dimension_rejections");
  util::Counter& bad_requests_ = metrics_.counter("frontend.bad_requests");
  util::Counter& deadline_sheds_ = metrics_.counter("frontend.deadline_sheds");
  util::Counter& reaped_connections_ =
      metrics_.counter("frontend.reaped_connections");
  util::Counter& stale_completions_ =
      metrics_.counter("frontend.stale_completions");
  util::Counter& answered_inline_ =
      metrics_.counter("frontend.answered_inline");

  void loop_main(Loop& loop);
  friend struct Loop;
};

}  // namespace robusthd::fleet
