#pragma once
// robusthd::serve::Server — concurrent batched inference with in-service
// self-recovery.
//
//   clients --submit()--> [bounded MPMC queue] --> batcher --> workers
//                                                               |
//     futures / completion queues <--(CompletionTarget)---------+--trusted queries--> [lock-free ring]
//                                                                                          |
//                                   workers <--acquire()-- [model snapshots] <--publish()--scrubber thread
//
// The serving path is read-only: workers score immutable model snapshots
// and never touch the stored planes. The repair path is single-writer:
// the scrubber replays trusted queries through the paper's RecoveryEngine
// on a private working copy and publishes repaired snapshots. The two
// meet only at the version-gated snapshot pointer, so inference latency is
// independent of recovery activity — the paper's "repair while serving"
// claim, made concrete.
//
// An event loop holding a whole batch may skip the queue: answer_now()
// scores it on the caller's thread through the workers' own per-batch
// code, but only when the queue is open and empty and batch_linger is
// zero, so it never overtakes queued work or defeats a linger.
// inline_pays() says whether doing so is worth it: whether the batch is
// expected to take less time than handing it to an idle worker, as the
// server has measured both.
//
// Determinism: scoring is pure, so for a fixed model snapshot the
// server's predictions are bit-identical to calling HdcModel::predict
// serially — batching, worker count and scheduling cannot change a
// result (serve_test asserts this).

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "robusthd/fault/injector.hpp"
#include "robusthd/hv/binvec.hpp"
#include "robusthd/hv/encoder_base.hpp"
#include "robusthd/model/hdc_model.hpp"
#include "robusthd/persist/epoch_log.hpp"
#include "robusthd/persist/recover.hpp"
#include "robusthd/serve/batcher.hpp"
#include "robusthd/serve/chaos.hpp"
#include "robusthd/serve/completion.hpp"
#include "robusthd/serve/model_snapshot.hpp"
#include "robusthd/serve/request_queue.hpp"
#include "robusthd/serve/scrubber.hpp"
#include "robusthd/serve/sentinel.hpp"
#include "robusthd/serve/stats.hpp"
#include "robusthd/serve/worker_pool.hpp"

namespace robusthd::core {
class HdcClassifier;
}

namespace robusthd::serve {

/// Server tuning knobs (docs/serving.md discusses the trade-offs).
struct ServerConfig {
  std::size_t worker_threads = 4;    ///< 0 = hardware_threads()
  std::size_t queue_capacity = 1024; ///< admission bound (backpressure)
  std::size_t max_batch = 32;        ///< coalescing bound
  /// How long a worker holds an underfull batch open (0 = never).
  std::chrono::microseconds batch_linger{0};
  /// Run the background scrubber. Requires a 1-bit model.
  bool enable_recovery = true;
  ScrubberConfig scrubber{};
  /// Optional server-side encoder: enables submit_features(), with the
  /// encoding done on the worker threads through per-worker reusable
  /// workspaces (zero allocations per request at steady state).
  std::shared_ptr<const hv::Encoder> encoder;
  /// Live-fire chaos campaign against the serving model (off by default;
  /// docs/resilience.md). Only sane together with the sentinel or a bench
  /// that measures the damage it causes.
  ChaosConfig chaos{};
  /// Plane health sentinel driving the graceful-degradation ladder.
  /// Requires a non-empty canary set below when enabled.
  SentinelConfig sentinel{};
  /// Held-out labeled canaries the sentinel replays each round. Never
  /// served to clients; encode them with the same encoder as the model.
  std::vector<hv::BinVec> canaries;
  std::vector<int> canary_labels;  ///< one label per canary
  /// CPU ids to pin the worker threads to (worker i takes
  /// cpu_affinity[i % size]). Empty = no pinning. A fleet shard passes
  /// its core set here so shards keep cache-warm planes and stay out of
  /// each other's way; ids beyond the machine are ignored (pinning is a
  /// hint, never a failure).
  std::vector<int> cpu_affinity;
  /// Epoch-based crash durability (docs/serialization.md, "Durability &
  /// crash recovery"). A non-empty dir writes an atomic base checkpoint
  /// at construction and journals every snapshot publication into a
  /// fsync-committed WAL; Server::recover(dir) replays it after a crash.
  /// Empty dir (the default) disables the layer entirely.
  persist::PersistConfig persist{};
};

class Server {
  struct Request;

 public:
  /// One thread's scoring context: its cached snapshot and quarantine
  /// mask, its encode and score workspaces, and the buffers of the batch
  /// it is serving. Each worker owns one, and so does an event loop that
  /// answers with answer_now(). Use it from one thread at a time.
  class Lane {
   public:
    /// The answers of the lane's last batch, in query order.
    std::span<const Response> responses() const noexcept {
      return responses_;
    }

   private:
    friend class Server;
    std::shared_ptr<const model::HdcModel> model_;
    std::uint64_t version_ = 0;
    /// null means the quarantine is empty: unmasked kernels.
    std::shared_ptr<const QuarantineMask> qmask_;
    std::uint64_t qmask_version_ = 0;
    hv::EncodeWorkspace encode_ws_;
    model::ScoreWorkspace score_ws_;
    std::vector<Request> batch_;
    std::vector<const hv::BinVec*> query_ptrs_;
    std::vector<Response> responses_;
    /// Debug builds check that a warmed encode workspace never grows.
    bool encode_warmed_ = false;
    std::pair<std::size_t, std::size_t> encode_sig_{};
  };

  /// Takes ownership of the model (it becomes snapshot version 0).
  /// Throws std::invalid_argument when recovery is enabled on a
  /// multi-bit model (the substitution operator is binary-only).
  explicit Server(model::HdcModel model, const ServerConfig& config = {});
  ~Server();

  /// Crash recovery: rebuilds the serving model from a persist directory
  /// (base checkpoint + closed WAL epochs, torn tail discarded), starts a
  /// server on it with persistence re-enabled into the same directory
  /// (a fresh generation — the replayed one is never appended to), and
  /// rehydrates the scrubber's recovery-engine counters when the log
  /// carried them. Throws std::runtime_error when `dir` holds no usable
  /// state; replay_stats() reports what was applied and what was torn.
  static std::unique_ptr<Server> recover(const std::string& dir,
                                         ServerConfig config = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues a query; blocks while the queue is full (backpressure).
  /// The future is fulfilled by a worker; it carries a std::runtime_error
  /// when the server refused the request (after shutdown()) or dropped it
  /// unanswered.
  std::future<Response> submit(hv::BinVec query);

  /// Non-blocking admission; returns nullopt when the queue is full or
  /// the server is shutting down (the rejection is counted). A finite
  /// `deadline` travels with the request: a worker that dequeues it past
  /// the deadline sheds it with Response::expired instead of scoring
  /// (counted as ServerStats::deadline_sheds).
  std::optional<std::future<Response>> try_submit(
      hv::BinVec query,
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max());

  /// try_submit for event loops: no promise and no future. On true the
  /// request was accepted and exactly one Completion carrying `tag` will
  /// be pushed to `completions` (answered, expired or dropped); on false
  /// it was refused (full or shut down, counted) and nothing will be.
  bool try_submit_to(hv::BinVec query,
                     std::chrono::steady_clock::time_point deadline,
                     std::shared_ptr<CompletionQueue> completions,
                     std::uint64_t tag);

  /// Answers `queries` as one batch on the calling thread, through the
  /// same per-batch code the workers run, when a worker would take them
  /// at once: the queue is open and empty, batch_linger is zero and there
  /// are at most max_batch queries. Then it moves the queries out, leaves
  /// their answers in lane.responses() and returns true; the batch counts
  /// in submitted, completed and batches, with zero queue wait. Otherwise
  /// it touches nothing and returns false, and the caller queues them.
  bool answer_now(Lane& lane, std::span<hv::BinVec> queries);

  /// Whether answer_now() on `n` queries is expected to finish sooner
  /// than handing them to a worker would: their estimated service time
  /// (mean batch service time ÷ mean batch size × n) is at most the
  /// lower quartile of the last kMinHandoffs hand-offs, the time a
  /// request waits for an idle worker to wake up. Workers measure the
  /// hand-off; batches on either path measure the service time. False
  /// until the service time and kMinHandoffs hand-offs have been
  /// measured, so a fresh server's first batches go to a worker. A server
  /// answered inline hands its workers nothing, so they would measure no
  /// more hand-offs: one call in kHandoffRefresh that would say true says
  /// false instead, and that batch refreshes the samples. Cheap: relaxed
  /// atomics only.
  bool inline_pays(std::size_t n);
  /// Hand-offs inline_pays() decides from (ServerStats::handoff counts
  /// them all, since construction).
  static constexpr std::uint64_t kMinHandoffs = 8;
  /// One inline-eligible batch in this many goes to a worker.
  static constexpr std::uint64_t kHandoffRefresh = 1024;

  /// Enqueues a raw (normalised) feature vector; a worker encodes it with
  /// ServerConfig::encoder before scoring. Throws std::logic_error when no
  /// encoder was configured.
  std::future<Response> submit_features(std::vector<float> features);

  /// Convenience: submits the whole span and waits for every response,
  /// preserving order.
  std::vector<Response> predict_all(std::span<const hv::BinVec> queries);

  /// Schedules bit flips on the live model (executed on the recovery
  /// thread when the scrubber runs, otherwise applied synchronously) and
  /// publishes the damaged snapshot — the fault-injection hook for
  /// benches and tests.
  void inject_faults(double rate, fault::AttackMode mode, std::uint64_t seed);

  /// Hot model reload: publishes `model` as a fresh snapshot without
  /// stopping the server. In-flight batches finish on the model they
  /// acquired; batches formed after the publish score the new one — no
  /// batch ever mixes planes from two versions (one snapshot pointer per
  /// batch). The scrubber adopts the new model at its next ring-empty
  /// boundary; repairs of pre-reload weights racing the reload are
  /// discarded, never merged. Returns the published snapshot version.
  /// Throws std::invalid_argument when the dimension differs from the
  /// serving model (queued queries are already encoded at D) or when
  /// recovery is enabled and the model is not 1-bit.
  std::uint64_t reload(model::HdcModel model);

  /// Reload from a trained classifier (copies its model). The encoder
  /// configured at construction keeps serving submit_features() — ship a
  /// model trained with the same encoder config.
  std::uint64_t reload(const core::HdcClassifier& classifier);

  /// Reload from an RHD2/RHD1 model file: the blob is integrity-checked
  /// by core::load_model before anything is published; a blob that fails
  /// validation counts into ServerStats::integrity_failures and the
  /// serving model is left untouched.
  std::uint64_t load_model(const std::string& path);

  /// Blocks until every accepted request has been answered and the
  /// scrubber has caught up with everything offered so far.
  void drain();

  /// Durability barrier: drain(), then block until everything the
  /// scrubber published so far sits on stable storage under a closed WAL
  /// epoch. No-op without persistence. Returns immediately once the
  /// epoch log has tripped its failed flag (check stats().persist_io_errors).
  void persist_barrier();

  /// What Server::recover replayed; all-zero for a fresh server.
  const persist::ReplayStats& replay_stats() const noexcept {
    return replay_stats_;
  }

  /// Graceful shutdown: stop admitting, drain the queue, join workers,
  /// drain + stop the scrubber. Idempotent; the destructor calls it.
  void shutdown();

  /// Every metric of the server and its subsystems (scrubber, trust gate,
  /// sentinel, chaos agent, epoch log), with the gauges read now: queue
  /// depth, model version, arena footprint, replay records. Subtract two
  /// for a phase: ServerStats(server.metrics() - before).
  util::MetricsSnapshot metrics() const;
  /// The named view of metrics().
  ServerStats stats() const { return ServerStats(metrics()); }

  /// Instantaneous circuit-breaker gauge, cheap enough to consult per
  /// request (one relaxed load) — the fleet router's health probe.
  bool breaker_open() const noexcept {
    return breaker_open_.load(std::memory_order_relaxed);
  }

  /// Rough estimate of how long a request admitted now would wait before
  /// scoring: queued depth × mean batch service time ÷ mean batch size.
  /// Cheap (a queue-depth read plus a few relaxed loads) so the frontend
  /// can consult it per request for queue-aware admission; returns 0 with
  /// an empty queue or before any batch has been measured.
  std::uint64_t estimated_wait_ns() const;

  /// The model snapshot workers are currently scoring against.
  std::shared_ptr<const model::HdcModel> current_model() const {
    return snapshot_.acquire();
  }

  /// The health sentinel, or nullptr when ServerConfig::sentinel.enabled
  /// is false. Exposed so tests and benches can drive run_round()
  /// deterministically (period == 0) and read HealthReport directly.
  Sentinel* sentinel() noexcept { return sentinel_.get(); }
  const Sentinel* sentinel() const noexcept { return sentinel_.get(); }

  /// The chaos agent, or nullptr when ServerConfig::chaos.enabled is
  /// false. Exposed for deterministic tick() driving.
  ChaosAgent* chaos_agent() noexcept { return chaos_.get(); }
  const ChaosAgent* chaos_agent() const noexcept { return chaos_.get(); }

  const ServerConfig& config() const noexcept { return config_; }

 private:
  struct Request {
    hv::BinVec query;
    /// Raw features for server-side encoding; empty when `query` arrived
    /// pre-encoded (`from_features` disambiguates zero-feature models).
    std::vector<float> features;
    bool from_features = false;
    CompletionTarget done;
    std::chrono::steady_clock::time_point enqueued;
    /// Absolute shed deadline; max() = none (the overwhelmingly common
    /// case pays one comparison per dequeue).
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
  };

  /// Admission bookkeeping shared by every submit flavour: a blocking
  /// push when `block`, otherwise try_push. A refused request's target
  /// is left armed for the caller to dispose of.
  bool admit(Request& request, bool block);
  void worker_main(std::size_t worker_index);
  /// Expected time to score `n` queries, from the mean batch service time
  /// and the mean batch size; 0 before any batch has been measured.
  double estimated_service_ns(std::size_t n) const;
  /// Serves lane.batch_, begun at `started`: scores it on one snapshot
  /// (or abstains while the breaker is open), offers trusted answers to
  /// the scrubber, records the stats and completes every request.
  void run_batch(Lane& lane, std::chrono::steady_clock::time_point started);
  /// Rebuilds and epoch-publishes the worker-side quarantine mask from the
  /// sentinel's excluded set (rung (b) hook).
  void apply_quarantine(const std::vector<bool>& excluded);
  /// Rung (c) hook: republishes the last-good model. Returns true when a
  /// fresh snapshot was published.
  bool publish_last_good();

  ServerConfig config_;
  /// Declared before everything that records into it, so it outlives the
  /// subsystems' threads.
  util::MetricsRegistry metrics_;
  ModelSnapshot snapshot_;
  RequestQueue<Request> queue_;
  /// WAL durability layer; null when persist.dir is empty. Declared
  /// before scrubber_: the scrubber's persist hook writes into it, so it
  /// must outlive the scrub thread on every destruction path.
  ///
  /// Lock order (all leaf-free paths): direct_fault_mutex_ is taken
  /// before the snapshot publication it guards; the epoch log's internal
  /// mutex is innermost (rotate_generation is called with
  /// direct_fault_mutex_ held and takes only the log's own lock);
  /// last_good_mutex_ is a leaf — nothing is acquired under it. Recovery
  /// replay (Server::recover) runs before any of these mutexes exist to
  /// contend, and publish_last_good copies under last_good_mutex_ then
  /// *releases it* before reload() re-enters the ordered chain.
  std::unique_ptr<persist::EpochLog> epoch_log_;
  persist::ReplayStats replay_stats_{};
  std::unique_ptr<Scrubber> scrubber_;  ///< null when recovery disabled
  std::unique_ptr<Sentinel> sentinel_;  ///< null when sentinel disabled
  std::unique_ptr<ChaosAgent> chaos_;   ///< null when chaos disabled
  WorkerPool workers_;
  bool shut_down_ = false;

  std::mutex direct_fault_mutex_;  ///< serialises no-scrubber inject_faults

  /// Last blessed model (construction / successful reload): the breaker's
  /// fallback. Guarded by last_good_mutex_ (cold path only).
  std::mutex last_good_mutex_;
  model::HdcModel last_good_;

  /// Quarantine mask, epoch-published to workers: workers re-read the
  /// shared_ptr only when quarantine_version_ moves (same pattern as
  /// ModelSnapshot::refresh). null == empty quarantine (fast full-kernel
  /// path).
  mutable std::mutex quarantine_mutex_;
  std::shared_ptr<const QuarantineMask> quarantine_;
  std::atomic<std::uint64_t> quarantine_version_{0};
  std::atomic<bool> breaker_open_{false};

  // Metrics (relaxed; drain() pairs completed_ with submitted_).
  util::Counter& submitted_ = metrics_.counter("serve.submitted");
  util::Counter& rejected_ = metrics_.counter("serve.rejected");
  util::Counter& completed_ = metrics_.counter("serve.completed");
  util::Counter& trusted_ = metrics_.counter("serve.trusted");
  /// Flips injected, by inject_faults() without a scrubber or by the
  /// scrubber (which registers the same counter).
  util::Counter& faults_injected_ = metrics_.counter("serve.faults_injected");
  util::Counter& reloads_ = metrics_.counter("serve.reloads");
  util::Counter& integrity_failures_ =
      metrics_.counter("serve.integrity_failures");
  util::Counter& degraded_ = metrics_.counter("serve.degraded_responses");
  util::Counter& abstained_ = metrics_.counter("serve.abstained_responses");
  util::Counter& deadline_sheds_ = metrics_.counter("serve.deadline_sheds");
  LatencyHistogram& queue_wait_ = metrics_.latency("serve.queue_wait_ns");
  LatencyHistogram& service_ = metrics_.latency("serve.service_ns");
  LatencyHistogram& end_to_end_ = metrics_.latency("serve.end_to_end_ns");
  /// Queue wait of the requests that arrived while a worker was idle: the
  /// cost of one hand-off, which answering inline saves (inline_pays).
  LatencyHistogram& handoff_ = metrics_.latency("serve.handoff_ns");
  BatchSizeDistribution& batch_sizes_ =
      metrics_.batch_sizes("serve.batch_size");
  /// The last kMinHandoffs of those waits, in ns: hand-off n (counted
  /// from 0 at construction) is slot n % kMinHandoffs.
  std::array<std::atomic<std::uint64_t>, kMinHandoffs> recent_handoffs_{};
  std::atomic<std::uint64_t> handoffs_seen_{0};
  /// inline_pays() calls whose costs favoured answering inline.
  std::atomic<std::uint64_t> inline_eligible_{0};
};

}  // namespace robusthd::serve
