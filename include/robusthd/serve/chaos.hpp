#pragma once
// In-service chaos injection: the live-fire half of the resilience layer.
//
// Offline experiments (bench/table4_recovery) attack a model copy in a
// quiet loop; nothing there proves the *serving* stack survives faults
// that accumulate while batches are in flight, repairs race traffic, and
// snapshots publish concurrently. The ChaosAgent closes that gap: a
// background thread (off by default, ServerConfig::chaos) that drives the
// fault layer against the live published model under a StreamAttacker-
// style rate budget — rate * total_bits flips spread over steps_to_full
// ticks with fractional carry, so the cumulative damage matches the
// offline experiments' attack schedule and the soak gate can compare the
// two directly.
//
// Campaign shapes mirror fault::AttackMode: random (uniform over the
// stored planes), clustered (contiguous spans — row-hammer locality), and
// targeted. For binary planes a bit-level target degenerates to random
// (the holographic representation has no preferable bits — the paper's
// point), so targeting means choosing *which plane*: the agent asks a
// TargetProvider (wired to Sentinel::most_confident_class) for the class
// whose plane currently carries the most confident predictions, the
// adversarial-HDC attack model of Yang & Ren.
//
// Torn-plane safety: the agent never mutates the published model. With a
// scrubber present, ticks are routed through Scrubber::inject_flips and
// execute on the scrub thread against its working copy (single-writer
// mutation, version-conditional publish, and — critically — the recovery
// engine's consensus state survives, where any other writer would force a
// resync every tick). Without a scrubber, the agent damages a private
// copy and publishes via try_publish, retrying on version conflicts.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "robusthd/fault/injector.hpp"
#include "robusthd/serve/model_snapshot.hpp"
#include "robusthd/serve/scrubber.hpp"
#include "robusthd/util/metrics.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd::serve {

/// Chaos campaign parameters.
struct ChaosConfig {
  bool enabled = false;
  /// Total injected fraction of the model's stored bits: the campaign
  /// budget, spent evenly over steps_to_full ticks and then exhausted
  /// (matching fault::StreamAttacker's schedule).
  double rate = 0.10;
  std::size_t steps_to_full = 200;
  /// Tick period for the background thread.
  std::chrono::microseconds period{2000};
  fault::AttackMode mode = fault::AttackMode::kRandom;
  /// Span fraction for clustered campaigns (see flip_clustered_bits).
  double cluster_fraction = 0.02;
  std::uint64_t seed = 0xc4a05;
};

/// The chaos thread. Lifecycle: construct, start(), stop() (or
/// destruction). tick() is public so tests and benches can drive the
/// campaign deterministically without the thread.
class ChaosAgent {
 public:
  /// Returns the class index whose plane a targeted campaign should hit,
  /// or npos to spread the budget over the whole model.
  using TargetProvider = std::function<std::size_t()>;

  /// Records into `metrics` (chaos.* counters), which must outlive the
  /// agent.
  ChaosAgent(ModelSnapshot& snapshot, Scrubber* scrubber,
             const ChaosConfig& config, util::MetricsRegistry& metrics,
             TargetProvider target = {});
  ~ChaosAgent();

  ChaosAgent(const ChaosAgent&) = delete;
  ChaosAgent& operator=(const ChaosAgent&) = delete;

  void start();
  void stop();

  /// One attack tick: computes this tick's share of the flip budget
  /// (fractional carry included) and dispatches it. No-op once the
  /// campaign budget is exhausted. Thread-safe against the background
  /// thread (internal mutex); not meant to be hammered from many threads.
  void tick();

  /// True once all steps_to_full ticks have run (budget exhausted).
  bool campaign_done() const noexcept {
    return ticks_.value(std::memory_order_acquire) >= config_.steps_to_full;
  }

 private:
  void thread_main();

  ModelSnapshot& snapshot_;
  Scrubber* scrubber_;  ///< may be null (direct-publish mode)
  const ChaosConfig config_;
  const TargetProvider target_;
  util::MetricsRegistry& metrics_;

  std::mutex tick_mutex_;
  util::Xoshiro256 rng_;
  double carry_bits_ = 0.0;
  std::size_t total_bits_ = 0;  ///< lazily measured from the snapshot

  util::Counter& ticks_ = metrics_.counter("chaos.ticks");
  util::Counter& flips_scheduled_ = metrics_.counter("chaos.flips");
  /// Scrubber-less publications, and their try_publish losses (retried).
  util::Counter& direct_publishes_ = metrics_.counter("chaos.direct_publishes");
  util::Counter& publish_conflicts_ =
      metrics_.counter("chaos.publish_conflicts");

  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
};

}  // namespace robusthd::serve
