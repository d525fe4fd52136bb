#include "robusthd/serve/chaos.hpp"

#include <utility>

namespace robusthd::serve {

ChaosAgent::ChaosAgent(ModelSnapshot& snapshot, Scrubber* scrubber,
                       const ChaosConfig& config,
                       util::MetricsRegistry& metrics, TargetProvider target)
    : snapshot_(snapshot),
      scrubber_(scrubber),
      config_(config),
      target_(std::move(target)),
      metrics_(metrics),
      rng_(config.seed) {}

ChaosAgent::~ChaosAgent() { stop(); }

void ChaosAgent::start() {
  if (started_) return;
  started_ = true;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread(&ChaosAgent::thread_main, this);
}

void ChaosAgent::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

void ChaosAgent::thread_main() {
  while (!stop_.load(std::memory_order_acquire)) {
    tick();
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait_for(lock, config_.period, [this] {
      return stop_.load(std::memory_order_acquire);
    });
  }
}

void ChaosAgent::tick() {
  const std::lock_guard<std::mutex> lock(tick_mutex_);
  if (ticks_.value() >= config_.steps_to_full) {
    return;  // campaign budget spent
  }

  if (total_bits_ == 0) {
    // The attack surface of the live model: every live plane word, the
    // last word's tail bits included — the surface memory_regions()
    // exposes.
    const auto model = snapshot_.acquire();
    total_bits_ = model->arena().num_planes() * model->arena().words() * 64;
    if (total_bits_ == 0) return;
  }

  // StreamAttacker-style budget: rate * total_bits flips spread evenly
  // over steps_to_full ticks, fractional remainders carried forward so
  // the cumulative schedule is exact.
  const double per_tick = config_.rate *
                          static_cast<double>(total_bits_) /
                          static_cast<double>(config_.steps_to_full);
  carry_bits_ += per_tick;
  auto flips = static_cast<std::size_t>(carry_bits_);
  carry_bits_ -= static_cast<double>(flips);
  ticks_.add(1, std::memory_order_release);
  if (flips == 0) return;

  // Targeted campaigns pick the plane of the currently most confident
  // class (per the sentinel); everything else spreads over the model.
  std::size_t target_plane = static_cast<std::size_t>(-1);
  if (config_.mode == fault::AttackMode::kTargeted && target_) {
    const std::size_t cls = target_();
    if (cls != static_cast<std::size_t>(-1)) {
      // Region order in memory_regions() is class-major, plane-minor;
      // aim at the class's plane 0 (binary models have exactly one).
      const auto model = snapshot_.acquire();
      if (cls < model->num_classes()) {
        target_plane = cls * model->precision_bits();
      }
    }
  }

  flips_scheduled_.add(flips);
  const std::uint64_t seed = rng_.next();

  if (scrubber_ != nullptr) {
    // Route through the scrub thread: mutation stays single-writer and
    // the recovery engine's consensus state survives the tick.
    scrubber_->inject_flips(flips, config_.mode, target_plane,
                            config_.cluster_fraction, seed);
    return;
  }

  // No scrubber: damage a private copy and publish conditionally, exactly
  // like a repair publication — a concurrent reload wins the race and the
  // tick re-damages the *new* model.
  for (;;) {
    auto [current, version] = snapshot_.acquire_versioned();
    model::HdcModel damaged = *current;
    util::Xoshiro256 rng(seed);
    auto regions = damaged.memory_regions();
    fault::BitFlipInjector::flip_budget(regions, flips, config_.mode,
                                        target_plane,
                                        config_.cluster_fraction, rng);
    if (snapshot_.try_publish(std::move(damaged), version)) {
      direct_publishes_.add();
      return;
    }
    publish_conflicts_.add();
  }
}

}  // namespace robusthd::serve
