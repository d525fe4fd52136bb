#pragma once
// Observability surface of the serving runtime.
//
// A server and its subsystems record into one util::MetricsRegistry
// (lock-free: relaxed atomic counters and log2-bucketed histograms).
// ServerStats names the serving metrics of one snapshot of it. Counters
// are monotone, so a snapshot is always a valid recent state even while
// workers keep recording, and a phase is the difference of two:
// ServerStats(after - before).

#include <cstddef>
#include <cstdint>

#include "robusthd/util/metrics.hpp"

namespace robusthd::serve {

using util::BatchSizeDistribution;
using util::LatencyHistogram;

/// Point-in-time view of a server's metrics, returned by Server::stats().
struct ServerStats {
  ServerStats() = default;
  /// The serving metrics of `m`: a Server::metrics() snapshot, or a phase
  /// (the difference of two), whose gauges hold the later reading.
  explicit ServerStats(const util::MetricsSnapshot& m);

  // Admission.
  std::uint64_t submitted = 0;   ///< requests accepted into the queue
  std::uint64_t rejected = 0;    ///< try_submit failures (queue full/closed)
  std::uint64_t completed = 0;   ///< requests completed
  /// Requests dropped because their propagated deadline expired before a
  /// worker reached them (the client already gave up — scoring would be
  /// wasted work). Fulfilled with Response::expired, counted here.
  std::uint64_t deadline_sheds = 0;
  std::size_t queue_depth = 0;   ///< instantaneous

  // Batching.
  std::uint64_t batches = 0;
  double mean_batch = 0.0;

  // Per-stage latency.
  LatencyHistogram::Summary queue_wait;  ///< enqueue -> dequeue
  /// Queue wait of the requests that found a worker idle: one hand-off
  /// each, the cost Server::inline_pays weighs against scoring inline.
  LatencyHistogram::Summary handoff;
  /// The whole service time of the batch a request was answered in
  /// (dequeue to answers ready: encode, score, confidence, trust offers),
  /// recorded once per request — so the mean is a mean batch service
  /// time, the figure Server::estimated_wait_ns multiplies by the
  /// batches queued ahead.
  LatencyHistogram::Summary service;
  LatencyHistogram::Summary end_to_end;  ///< enqueue -> completion delivered

  // Recovery / trust flow.
  std::uint64_t trusted = 0;        ///< confidence cleared the gate
  std::uint64_t scrub_offered = 0;  ///< trusted queries handed to the ring
  std::uint64_t trust_drops = 0;    ///< offers lost to a full ring
  std::uint64_t scrub_processed = 0;
  std::uint64_t scrub_repairs = 0;          ///< engine updates committed
  std::uint64_t scrub_substituted_bits = 0; ///< bits actually rewritten
  std::uint64_t faults_injected = 0;        ///< via inject_faults()
  std::uint64_t snapshots_published = 0;
  std::uint64_t model_version = 0;

  // Trust gate (serve::TrustGate; all zero when the gate is disabled).
  /// Offers the gate's canary-agreement check flagged as likely
  /// adversarial (counted in shadow mode too).
  std::uint64_t poisoned_offers = 0;
  /// Offers the gate rejected outright (enforce mode: margin floor,
  /// fair-share rate limit or canary disagreement).
  std::uint64_t gate_rejects = 0;
  /// Bits the recovery engine substituted on behalf of gate-flagged
  /// suspect queries — the measured poisoning of the self-healing loop.
  std::uint64_t suspect_substitutions = 0;

  // Hot reload (RHD2 model store integration).
  std::uint64_t reloads = 0;  ///< models published via reload()/load_model()
  /// load_model() calls rejected by blob validation (CRC mismatch,
  /// truncation, bad header) — the serving model was left untouched.
  std::uint64_t integrity_failures = 0;
  /// Times the scrubber re-adopted an externally reloaded snapshot as its
  /// working copy (engine state reset).
  std::uint64_t scrub_resyncs = 0;

  // Resilience ladder (ChaosAgent + Sentinel + degradation).
  std::uint64_t chaos_ticks = 0;       ///< ChaosAgent attack ticks executed
  std::uint64_t chaos_flips = 0;       ///< flips scheduled by the ChaosAgent
  std::uint64_t canary_runs = 0;       ///< sentinel canary replays completed
  double canary_accuracy = 0.0;        ///< latest effective canary accuracy
  std::size_t quarantined_chunks = 0;  ///< instantaneous quarantine size
  std::uint64_t priority_marks = 0;    ///< sentinel repair-priority commands
  std::uint64_t degraded_responses = 0;  ///< answered under quarantine mask
  std::uint64_t abstained_responses = 0; ///< shed while the breaker was open
  std::uint64_t breaker_trips = 0;
  bool breaker_open = false;           ///< instantaneous breaker state
  std::uint64_t reload_retries = 0;    ///< breaker last-good reload attempts

  // Plane store of the live snapshot (its mem::PlaneArena).
  std::size_t arena_bytes = 0;  ///< arena allocation size in bytes
  bool arena_hugepage = false;  ///< MADV_HUGEPAGE accepted by the kernel

  // Durability (robusthd::persist epoch log; docs/serialization.md). All
  // zero when ServerConfig::persist.dir is empty.
  std::uint64_t epochs_closed = 0;   ///< WAL epochs committed (1 fsync each)
  std::uint64_t wal_bytes = 0;       ///< record bytes appended to segments
  std::uint64_t wal_rotations = 0;   ///< generation starts (reload/compact)
  std::uint64_t wal_compactions = 0; ///< WALs folded into a fresh base
  std::uint64_t persist_io_errors = 0; ///< nonzero => the log shut itself off
  /// Records committed by Server::recover at startup (a gauge).
  std::uint64_t replay_records = 0;
};

}  // namespace robusthd::serve
