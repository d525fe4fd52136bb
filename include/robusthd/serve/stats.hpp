#pragma once
// Observability surface of the serving runtime.
//
// Everything here is updated from hot paths, so the recording side is
// lock-free: log2-bucketed histograms over relaxed atomic counters. The
// reading side (stats()) takes a consistent-enough snapshot for
// monitoring — counters are monotone, so a snapshot is always a valid
// recent state even while workers keep recording.

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace robusthd::serve {

/// Lock-free latency histogram: value v lands in bucket floor(log2(v)),
/// covering 1ns .. ~2^47 ns (~1.6 days) — far wider than any sane service
/// time. Percentiles are bucket-resolution (a factor-of-2 band), which is
/// the standard monitoring trade-off.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  void record(std::uint64_t nanos) noexcept {
    const auto bucket = static_cast<std::size_t>(
        std::bit_width(nanos | 1) - 1);  // log2, 0 for 0/1ns
    buckets_[bucket < kBuckets ? bucket : kBuckets - 1].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(nanos, std::memory_order_relaxed);
  }

  struct Summary {
    std::uint64_t count = 0;
    double mean_ns = 0.0;
    double p50_ns = 0.0;
    double p99_ns = 0.0;
  };

  /// Running mean in nanoseconds — two relaxed loads, cheap enough for a
  /// per-request admission estimate (Server::estimated_wait_ns).
  double mean_ns() const noexcept {
    const auto c = count_.load(std::memory_order_relaxed);
    return c == 0 ? 0.0
                  : static_cast<double>(
                        sum_ns_.load(std::memory_order_relaxed)) /
                        static_cast<double>(c);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  /// The p-quantile (0 < p < 1) at bucket resolution: the midpoint of
  /// the bucket holding the value of rank floor(p * (count - 1)) + 1, or 0
  /// when empty. Unlike the mean, a few outliers do not move it.
  double percentile_ns(double p) const noexcept {
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      counts[b] = buckets_[b].load(std::memory_order_relaxed);
      total += counts[b];
    }
    return total == 0 ? 0.0 : percentile_from(counts, total, p);
  }

  Summary summarize() const noexcept {
    Summary s;
    std::array<std::uint64_t, kBuckets> counts{};
    for (std::size_t b = 0; b < kBuckets; ++b) {
      counts[b] = buckets_[b].load(std::memory_order_relaxed);
      s.count += counts[b];
    }
    if (s.count == 0) return s;
    s.mean_ns = static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) /
                static_cast<double>(s.count);
    s.p50_ns = percentile_from(counts, s.count, 0.50);
    s.p99_ns = percentile_from(counts, s.count, 0.99);
    return s;
  }

  /// Zeroes the histogram so measurement phases (e.g. soak baseline vs
  /// under-chaos) can be read independently. Not atomic with respect to
  /// concurrent record() calls — callers quiesce or accept a few straddling
  /// samples, the standard monitoring trade-off.
  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  static double percentile_from(
      const std::array<std::uint64_t, kBuckets>& counts, std::uint64_t total,
      double p) noexcept {
    const auto rank = static_cast<std::uint64_t>(
        p * static_cast<double>(total - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += counts[b];
      if (seen >= rank) {
        // Geometric midpoint of the bucket's [2^b, 2^(b+1)) band.
        return static_cast<double>(1ull << b) * 1.5;
      }
    }
    return static_cast<double>(1ull << (kBuckets - 1));
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Exact small-value distribution for batch sizes (1..kMax, clamped).
class BatchSizeDistribution {
 public:
  static constexpr std::size_t kMax = 64;

  void record(std::size_t batch) noexcept {
    const std::size_t slot = batch == 0 ? 0 : (batch <= kMax ? batch - 1
                                                             : kMax - 1);
    buckets_[slot].fetch_add(1, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    items_.fetch_add(batch, std::memory_order_relaxed);
  }

  std::uint64_t batches() const noexcept {
    return batches_.load(std::memory_order_relaxed);
  }

  double mean() const noexcept {
    const auto b = batches_.load(std::memory_order_relaxed);
    return b == 0 ? 0.0
                  : static_cast<double>(items_.load(std::memory_order_relaxed)) /
                        static_cast<double>(b);
  }

  std::uint64_t at(std::size_t batch_size) const noexcept {
    return batch_size == 0 || batch_size > kMax
               ? 0
               : buckets_[batch_size - 1].load(std::memory_order_relaxed);
  }

  /// Zeroes the distribution (same caveats as LatencyHistogram::reset).
  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    batches_.store(0, std::memory_order_relaxed);
    items_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kMax> buckets_{};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> items_{0};
};

/// Point-in-time snapshot returned by Server::stats().
struct ServerStats {
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
  std::uint64_t scrub_dropped = 0;  ///< worker offers lost to a full ring
  /// Ring-full drops counted at the ring itself (all producers, not just
  /// the serving workers) — the authoritative silent-drop count.
  std::uint64_t trust_drops = 0;
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
  /// Records committed by Server::recover at startup — a replay gauge, not
  /// a serving counter (preserved across reset()).
  std::uint64_t replay_records = 0;

  /// Zeroes every cumulative field of this snapshot, keeping the
  /// instantaneous gauges (queue_depth, model_version, quarantined_chunks,
  /// breaker_open). Soak phases subtract a baseline snapshot this way;
  /// Server::reset_stats() resets the live counters themselves.
  void reset() noexcept {
    const std::size_t depth = queue_depth;
    const std::uint64_t version = model_version;
    const std::size_t quarantined = quarantined_chunks;
    const bool open = breaker_open;
    const std::size_t arena = arena_bytes;
    const bool huge = arena_hugepage;
    const std::uint64_t replayed = replay_records;
    *this = ServerStats{};
    queue_depth = depth;
    model_version = version;
    quarantined_chunks = quarantined;
    breaker_open = open;
    arena_bytes = arena;
    arena_hugepage = huge;
    replay_records = replayed;
  }
};

}  // namespace robusthd::serve
