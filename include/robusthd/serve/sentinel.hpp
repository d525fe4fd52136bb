#pragma once
// Plane health sentinel: the detection half of the serving runtime's
// graceful-degradation ladder.
//
// The paper's recovery loop is self-referential — trusted predictions
// repair the model that produced them — which works until damage depresses
// confidence enough that repairs starve. The sentinel supplies the missing
// *external* health signal without labels from production traffic: a small
// held-out canary set (queries with known labels, never served to clients)
// is replayed against the live snapshot on a period, and the stored planes
// are diffed chunk-by-chunk against a reference copy captured at the last
// *blessed* publication (construction or hot reload — scrubber repairs and
// chaos ticks deliberately do not move the reference, or drift would be
// defined away).
//
// Each round produces a per-(class, chunk) verdict with hysteresis, and
// verdicts escalate down the ladder:
//
//   healthy --(drift > threshold)--> suspect
//       rung (a): the chunk is repair-prioritized in the scrubber's engine
//   suspect --(bad_streak rounds)--> quarantined
//       rung (b): the chunk joins the quarantine set; workers score with
//       the masked-range kernel excluding it (Response::degraded), in the
//       spirit of TCAM segment exclusion (Thomann et al.)
//   quarantined --(good_streak clean rounds)--> healthy again (repairs won)
//
//   canary accuracy < breaker_floor for breaker_window rounds
//       rung (c): circuit breaker trips — workers shed load with
//       Response::abstained while the sentinel reloads the last-good model
//       with bounded retries + exponential backoff, then re-arms.
//
// Threading: period > 0 runs a background thread; period == 0 disables it
// and tests drive run_round() manually for deterministic verdicts. All
// state is guarded by one mutex, so manual calls, the thread, and report()
// readers compose safely.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "robusthd/hv/binvec.hpp"
#include "robusthd/model/hdc_model.hpp"
#include "robusthd/serve/model_snapshot.hpp"
#include "robusthd/util/metrics.hpp"

namespace robusthd::serve {

/// Packed dimension mask excluding quarantined chunks: bit i set means
/// dimension i participates in scoring. Built once per quarantine change
/// and published epoch-style to the workers (never mutated after build).
struct QuarantineMask {
  /// 64-byte-aligned so the masked SIMD kernels stream it without split
  /// loads, matching the arena rows it is applied against.
  util::AlignedU64Vec words;  ///< words_for_bits(dimension)
  std::size_t dimension = 0;
  std::size_t kept_dims = 0;         ///< popcount(words)
  std::vector<bool> chunks;          ///< chunks[c] == true -> excluded
  std::size_t excluded_chunks = 0;
};

/// Builds the packed mask for `excluded_chunks` over the same chunk
/// partition the recovery engine uses (chunk c covers
/// [c*D/m, (c+1)*D/m)). Bits at positions >= dimension stay clear.
QuarantineMask build_quarantine_mask(std::size_t dimension,
                                     const std::vector<bool>& excluded_chunks);

/// Sentinel tuning. Defaults are sized for the repo's synthetic worlds
/// (thousands of dimensions, tens of chunks); see docs/resilience.md for
/// the tuning discussion.
struct SentinelConfig {
  bool enabled = false;
  /// Round period for the background thread; 0 disables the thread (tests
  /// call run_round() manually).
  std::chrono::milliseconds period{25};
  /// Chunk partition for drift measurement and quarantine. Should match
  /// the recovery engine's RecoveryConfig::chunks so rung (a) priorities
  /// land on the chunks the engine actually repairs.
  std::size_t chunks = 20;
  /// A (class, chunk) pair is suspect when the fraction of its reference
  /// bits that differ in the live plane exceeds this. Random canary noise
  /// contributes 0 here (drift is measured on the stored planes, not on
  /// predictions), so the threshold is purely "how much damage before we
  /// react" — calibrate against the per-chunk repair capacity.
  double chunk_drift_threshold = 0.08;
  /// Hysteresis: consecutive suspect rounds before a chunk is quarantined,
  /// and consecutive clean rounds before it is released.
  std::size_t bad_streak = 2;
  std::size_t good_streak = 3;
  /// Quarantine is capped at this fraction of the chunks — beyond it the
  /// masked model has lost so many dimensions that degraded answers stop
  /// being "sane" and the breaker is the right rung.
  double max_quarantine_fraction = 0.5;
  /// Circuit breaker: trips when effective canary accuracy (masked, i.e.
  /// what clients actually experience) stays below this floor for
  /// breaker_window consecutive rounds.
  double breaker_floor = 0.55;
  std::size_t breaker_window = 3;
  /// Reload attempts after a trip, with exponential backoff between them
  /// (breaker_backoff, doubled per attempt).
  std::size_t breaker_reload_retries = 4;
  std::chrono::milliseconds breaker_backoff{5};
};

/// Health verdict for one (class, chunk) pair.
enum class ChunkHealth : std::uint8_t { kHealthy, kSuspect, kQuarantined };

/// Point-in-time health view returned by Sentinel::report().
struct HealthReport {
  std::uint64_t rounds = 0;
  double raw_accuracy = 0.0;        ///< full-model canary accuracy
  double effective_accuracy = 0.0;  ///< masked accuracy (client view)
  std::vector<double> class_accuracy;    ///< per class, raw
  std::vector<double> chunk_drift;       ///< classes x chunks, fraction
  std::vector<ChunkHealth> verdicts;     ///< classes x chunks
  std::size_t quarantined_chunks = 0;
  bool breaker_open = false;
};

/// Escalation hooks: how verdicts reach the rest of the server. Every hook
/// is optional; missing hooks turn the corresponding rung into a no-op
/// (detection still runs and shows up in report()). Hooks are invoked on
/// the sentinel's round thread with the round lock held — they must not
/// call back into Sentinel methods that take the lock (rebase() is safe:
/// it only sets a flag).
struct SentinelHooks {
  /// Rung (a): (class, chunk) repair-priority change.
  std::function<void(std::size_t cls, std::size_t chunk, bool on)> prioritize;
  /// Rung (b): the quarantine set changed; `excluded[c]` == true means
  /// chunk c must be excluded from scoring.
  std::function<void(const std::vector<bool>& excluded)> publish_quarantine;
  /// Rung (c): breaker state change (true == open, shed load).
  std::function<void(bool open)> set_breaker;
  /// Rung (c): attempt to publish a last-good model. Returns true when a
  /// fresh model was published (the sentinel then rebases onto it).
  std::function<bool()> attempt_reload;
};

/// The health monitor. Lifecycle: construct (captures the reference from
/// the snapshot), start() if periodic, rebase() after every blessed
/// publication, stop() (or destruction) to halt.
class Sentinel {
 public:
  /// Records into `metrics` (sentinel.* counters and gauges), which must
  /// outlive the sentinel.
  Sentinel(ModelSnapshot& snapshot, std::vector<hv::BinVec> canaries,
           std::vector<int> canary_labels, const SentinelConfig& config,
           SentinelHooks hooks, util::MetricsRegistry& metrics);
  ~Sentinel();

  Sentinel(const Sentinel&) = delete;
  Sentinel& operator=(const Sentinel&) = delete;

  void start();
  void stop();

  /// One detection + escalation round: replay canaries, diff planes
  /// against the reference, update hysteresis, fire hooks. Thread-safe
  /// with respect to the background thread and report().
  void run_round();

  /// Requests a reference re-capture from the current snapshot before the
  /// next round (non-blocking — safe to call from hooks and from
  /// Server::reload). Re-capturing also clears hysteresis, quarantine and
  /// the breaker window: verdicts against the old reference are void.
  void rebase() noexcept { rebase_requested_.store(true, std::memory_order_release); }

  HealthReport report() const;

  /// The class whose canaries currently score with the highest mean
  /// winning similarity — the ChaosAgent's target for the
  /// highest-confidence-plane campaign. npos before the first round.
  std::size_t most_confident_class() const noexcept {
    return most_confident_.load(std::memory_order_acquire);
  }

  bool breaker_open() const noexcept {
    return breaker_open_gauge_.value() != 0.0;
  }

 private:
  void thread_main();
  /// Captures the current snapshot as the new reference and resets all
  /// verdict state. Caller holds state_mutex_.
  void capture_reference_locked();
  /// Scores the canaries against `model`, optionally masked; fills
  /// per-class tallies. Returns overall accuracy. Caller holds state_mutex_.
  double score_canaries_locked(const model::HdcModel& model,
                               const QuarantineMask* mask,
                               std::vector<double>* class_accuracy,
                               std::vector<double>* class_win_sim);
  void run_round_locked();

  ModelSnapshot& snapshot_;
  const SentinelConfig config_;
  const SentinelHooks hooks_;
  const std::vector<hv::BinVec> canaries_;
  const std::vector<int> labels_;
  util::MetricsRegistry& metrics_;

  mutable std::mutex state_mutex_;
  model::HdcModel reference_;  ///< last blessed model (also breaker fallback)
  std::vector<std::uint32_t> suspect_streak_;  ///< classes x chunks
  std::vector<std::uint32_t> healthy_streak_;  ///< classes x chunks
  std::vector<bool> quarantined_;              ///< per chunk
  QuarantineMask mask_;                        ///< current mask (own copy)
  std::vector<double> last_drift_;             ///< classes x chunks
  std::vector<double> last_class_accuracy_;
  double last_raw_accuracy_ = 0.0;
  double last_effective_accuracy_ = 0.0;
  std::size_t below_floor_streak_ = 0;
  bool breaker_open_state_ = false;
  model::ScoreWorkspace score_ws_;
  std::vector<const hv::BinVec*> canary_ptrs_;

  std::atomic<bool> rebase_requested_{false};
  std::atomic<std::size_t> most_confident_{static_cast<std::size_t>(-1)};

  util::Counter& rounds_ = metrics_.counter("sentinel.rounds");
  util::Counter& breaker_trips_ = metrics_.counter("sentinel.breaker_trips");
  /// Last-good reload attempts.
  util::Counter& reload_retries_ = metrics_.counter("sentinel.reload_retries");
  util::Counter& quarantine_events_ =
      metrics_.counter("sentinel.quarantine_events");
  util::Counter& release_events_ = metrics_.counter("sentinel.release_events");
  /// Reference re-captures adopted.
  util::Counter& rebases_ = metrics_.counter("sentinel.rebases");
  /// Effective (client-view) canary accuracy of the latest round.
  util::Gauge& canary_accuracy_ = metrics_.gauge("sentinel.canary_accuracy");
  util::Gauge& quarantined_chunks_ =
      metrics_.gauge("sentinel.quarantined_chunks");
  util::Gauge& breaker_open_gauge_ = metrics_.gauge("sentinel.breaker_open");

  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
};

}  // namespace robusthd::serve
