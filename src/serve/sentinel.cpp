#include "robusthd/serve/sentinel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "robusthd/util/bitops.hpp"

namespace robusthd::serve {

QuarantineMask build_quarantine_mask(
    std::size_t dimension, const std::vector<bool>& excluded_chunks) {
  QuarantineMask mask;
  mask.dimension = dimension;
  mask.chunks = excluded_chunks;
  const std::size_t words = util::words_for_bits(dimension);
  mask.words.assign(words, ~std::uint64_t{0});
  // Clear the tail first so kept_dims counts real dimensions only.
  const std::size_t tail_bits = dimension % 64;
  if (words > 0 && tail_bits != 0) {
    mask.words[words - 1] = (std::uint64_t{1} << tail_bits) - 1;
  }
  const std::size_t m = excluded_chunks.size();
  std::size_t excluded_dims = 0;
  for (std::size_t c = 0; c < m; ++c) {
    if (!excluded_chunks[c]) continue;
    ++mask.excluded_chunks;
    // Same partition as RecoveryEngine::chunk_range.
    const std::size_t begin = c * dimension / m;
    const std::size_t end = (c + 1) * dimension / m;
    excluded_dims += end - begin;
    for (std::size_t i = begin; i < end; ++i) {
      mask.words[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    }
  }
  mask.kept_dims = dimension - excluded_dims;
  return mask;
}

Sentinel::Sentinel(ModelSnapshot& snapshot, std::vector<hv::BinVec> canaries,
                   std::vector<int> canary_labels,
                   const SentinelConfig& config, SentinelHooks hooks,
                   util::MetricsRegistry& metrics)
    : snapshot_(snapshot),
      config_(config),
      hooks_(std::move(hooks)),
      canaries_(std::move(canaries)),
      labels_(std::move(canary_labels)),
      metrics_(metrics) {
  if (canaries_.empty() || canaries_.size() != labels_.size()) {
    throw std::invalid_argument(
        "Sentinel requires a non-empty canary set with one label per canary");
  }
  if (config_.chunks == 0) {
    throw std::invalid_argument("Sentinel chunk count must be >= 1");
  }
  canary_ptrs_.resize(canaries_.size());
  for (std::size_t i = 0; i < canaries_.size(); ++i) {
    canary_ptrs_[i] = &canaries_[i];
  }
  const std::lock_guard<std::mutex> lock(state_mutex_);
  capture_reference_locked();
}

Sentinel::~Sentinel() { stop(); }

void Sentinel::start() {
  if (started_ || config_.period.count() == 0) return;
  started_ = true;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread(&Sentinel::thread_main, this);
}

void Sentinel::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

void Sentinel::thread_main() {
  while (!stop_.load(std::memory_order_acquire)) {
    run_round();
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait_for(lock, config_.period, [this] {
      return stop_.load(std::memory_order_acquire);
    });
  }
}

void Sentinel::capture_reference_locked() {
  reference_ = *snapshot_.acquire();
  const std::size_t cells = reference_.num_classes() * config_.chunks;
  suspect_streak_.assign(cells, 0);
  healthy_streak_.assign(cells, 0);
  last_drift_.assign(cells, 0.0);
  last_class_accuracy_.assign(reference_.num_classes(), 0.0);
  below_floor_streak_ = 0;
  const bool had_quarantine =
      std::find(quarantined_.begin(), quarantined_.end(), true) !=
      quarantined_.end();
  quarantined_.assign(config_.chunks, false);
  mask_ = QuarantineMask{};
  quarantined_chunks_.set(0);
  if (had_quarantine && hooks_.publish_quarantine) {
    hooks_.publish_quarantine(quarantined_);
  }
  rebases_.add();
}

double Sentinel::score_canaries_locked(const model::HdcModel& model,
                                       const QuarantineMask* mask,
                                       std::vector<double>* class_accuracy,
                                       std::vector<double>* class_win_sim) {
  const bool masked =
      mask != nullptr && mask->kept_dims > 0 && mask->excluded_chunks > 0;
  model.scores_batch(canary_ptrs_, score_ws_,
                     masked ? mask->words.data() : nullptr,
                     masked ? mask->kept_dims : 0);
  const std::size_t k = model.num_classes();
  std::vector<std::size_t> per_class_total(k, 0);
  std::vector<std::size_t> per_class_correct(k, 0);
  std::vector<double> win_sim_sum(k, 0.0);
  std::vector<std::size_t> win_sim_count(k, 0);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < canaries_.size(); ++i) {
    const double* row = score_ws_.scores.data() + i * k;
    const auto predicted =
        static_cast<std::size_t>(std::max_element(row, row + k) - row);
    const auto label = static_cast<std::size_t>(labels_[i]);
    if (label < k) {
      ++per_class_total[label];
      if (predicted == label) {
        ++per_class_correct[label];
        ++correct;
      }
    }
    win_sim_sum[predicted] += row[predicted];
    ++win_sim_count[predicted];
  }
  if (class_accuracy != nullptr) {
    class_accuracy->assign(k, 0.0);
    for (std::size_t c = 0; c < k; ++c) {
      if (per_class_total[c] > 0) {
        (*class_accuracy)[c] = static_cast<double>(per_class_correct[c]) /
                               static_cast<double>(per_class_total[c]);
      }
    }
  }
  if (class_win_sim != nullptr) {
    class_win_sim->assign(k, 0.0);
    for (std::size_t c = 0; c < k; ++c) {
      if (win_sim_count[c] > 0) {
        (*class_win_sim)[c] =
            win_sim_sum[c] / static_cast<double>(win_sim_count[c]);
      }
    }
  }
  return static_cast<double>(correct) /
         static_cast<double>(canaries_.size());
}

void Sentinel::run_round() {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  run_round_locked();
  canary_accuracy_.set(last_effective_accuracy_);
}

void Sentinel::run_round_locked() {
  if (rebase_requested_.exchange(false, std::memory_order_acq_rel)) {
    capture_reference_locked();
  }
  const auto model = snapshot_.acquire();
  if (model->dimension() != reference_.dimension() ||
      model->num_classes() != reference_.num_classes()) {
    // A reload changed the geometry before the rebase request landed:
    // adopt it now, measure next round.
    capture_reference_locked();
    return;
  }

  // ---- Canary replay ----------------------------------------------------
  std::vector<double> class_win_sim;
  last_raw_accuracy_ = score_canaries_locked(*model, nullptr,
                                             &last_class_accuracy_,
                                             &class_win_sim);
  const bool masked = std::find(quarantined_.begin(), quarantined_.end(),
                                true) != quarantined_.end();
  last_effective_accuracy_ =
      masked ? score_canaries_locked(*model, &mask_, nullptr, nullptr)
             : last_raw_accuracy_;
  if (!class_win_sim.empty()) {
    most_confident_.store(
        static_cast<std::size_t>(
            std::max_element(class_win_sim.begin(), class_win_sim.end()) -
            class_win_sim.begin()),
        std::memory_order_release);
  }
  rounds_.add();

  // ---- Per-(class, chunk) drift vs the blessed reference ----------------
  const std::size_t k = reference_.num_classes();
  const std::size_t m = config_.chunks;
  const std::size_t dim = reference_.dimension();
  const std::size_t planes =
      std::min(reference_.precision_bits(), model->precision_bits());
  for (std::size_t cls = 0; cls < k; ++cls) {
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t begin = c * dim / m;
      const std::size_t end = (c + 1) * dim / m;
      const std::size_t width = end - begin;
      std::size_t drifted = 0;
      for (std::size_t p = 0; p < planes; ++p) {
        drifted += hv::hamming_range(reference_.plane_words(cls, p),
                                     model->plane_words(cls, p), begin, end);
      }
      last_drift_[cls * m + c] =
          width == 0 || planes == 0
              ? 0.0
              : static_cast<double>(drifted) /
                    (static_cast<double>(width) *
                     static_cast<double>(planes));
    }
  }

  // ---- Hysteresis + rung (a): repair priority ---------------------------
  for (std::size_t cls = 0; cls < k; ++cls) {
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t cell = cls * m + c;
      const bool suspect = last_drift_[cell] > config_.chunk_drift_threshold;
      if (suspect) {
        ++suspect_streak_[cell];
        healthy_streak_[cell] = 0;
        // Re-asserted every round on purpose: the engine loses priorities
        // on a resync, and a repeated mark is idempotent.
        if (hooks_.prioritize) hooks_.prioritize(cls, c, true);
      } else {
        if (suspect_streak_[cell] > 0 && hooks_.prioritize) {
          hooks_.prioritize(cls, c, false);
        }
        suspect_streak_[cell] = 0;
        ++healthy_streak_[cell];
      }
    }
  }

  // ---- Rung (b): quarantine with cap and churn-free release -------------
  std::vector<bool> desired = quarantined_;
  for (std::size_t c = 0; c < m; ++c) {
    bool newly_bad = false;
    bool all_clean = true;
    for (std::size_t cls = 0; cls < k; ++cls) {
      if (suspect_streak_[cls * m + c] >= config_.bad_streak) {
        newly_bad = true;
      }
      if (healthy_streak_[cls * m + c] < config_.good_streak) {
        all_clean = false;
      }
    }
    if (newly_bad) desired[c] = true;
    if (desired[c] && all_clean) desired[c] = false;  // repairs won
  }
  // Cap: keep the worst chunks (by max drift over classes) and drop the
  // rest — past the cap the masked model is too blind to be "sane" and
  // the breaker is the right rung.
  const auto cap = static_cast<std::size_t>(
      config_.max_quarantine_fraction * static_cast<double>(m));
  std::vector<std::size_t> chosen;
  for (std::size_t c = 0; c < m; ++c) {
    if (desired[c]) chosen.push_back(c);
  }
  if (chosen.size() > cap) {
    auto max_drift = [&](std::size_t c) {
      double worst = 0.0;
      for (std::size_t cls = 0; cls < k; ++cls) {
        worst = std::max(worst, last_drift_[cls * m + c]);
      }
      return worst;
    };
    std::sort(chosen.begin(), chosen.end(),
              [&](std::size_t a, std::size_t b) {
                return max_drift(a) > max_drift(b);
              });
    for (std::size_t i = cap; i < chosen.size(); ++i) {
      desired[chosen[i]] = false;
    }
  }
  if (desired != quarantined_) {
    for (std::size_t c = 0; c < m; ++c) {
      if (desired[c] && !quarantined_[c]) {
        quarantine_events_.add();
      } else if (!desired[c] && quarantined_[c]) {
        release_events_.add();
      }
    }
    quarantined_ = desired;
    mask_ = build_quarantine_mask(dim, quarantined_);
    quarantined_chunks_.set(static_cast<double>(mask_.excluded_chunks));
    if (hooks_.publish_quarantine) hooks_.publish_quarantine(quarantined_);
    // The published mask changes what clients see this round already.
    const bool now_masked = mask_.excluded_chunks > 0;
    last_effective_accuracy_ =
        now_masked ? score_canaries_locked(*model, &mask_, nullptr, nullptr)
                   : last_raw_accuracy_;
  }

  // ---- Rung (c): circuit breaker ----------------------------------------
  if (last_effective_accuracy_ < config_.breaker_floor) {
    ++below_floor_streak_;
  } else {
    below_floor_streak_ = 0;
    if (breaker_open_state_) {
      // Health recovered (a reload from a previous round, or the scrubber
      // healed the planes): close and resume serving.
      breaker_open_state_ = false;
      breaker_open_gauge_.set(0);
      if (hooks_.set_breaker) hooks_.set_breaker(false);
    }
  }
  if (!breaker_open_state_ &&
      below_floor_streak_ >= config_.breaker_window) {
    breaker_open_state_ = true;
    breaker_open_gauge_.set(1);
    breaker_trips_.add();
    if (hooks_.set_breaker) hooks_.set_breaker(true);

    // Bounded retry + exponential backoff reload of the last-good model.
    auto backoff = config_.breaker_backoff;
    for (std::size_t attempt = 0;
         attempt < config_.breaker_reload_retries && hooks_.attempt_reload;
         ++attempt) {
      reload_retries_.add();
      if (hooks_.attempt_reload()) {
        // The reload published a blessed model; adopt it as the new
        // reference and verify the canaries actually recovered.
        rebase_requested_.store(false, std::memory_order_release);
        capture_reference_locked();
        const auto fresh = snapshot_.acquire();
        if (fresh->dimension() == reference_.dimension() &&
            fresh->num_classes() == reference_.num_classes()) {
          last_raw_accuracy_ = score_canaries_locked(
              *fresh, nullptr, &last_class_accuracy_, nullptr);
          last_effective_accuracy_ = last_raw_accuracy_;
          if (last_raw_accuracy_ >= config_.breaker_floor) {
            breaker_open_state_ = false;
            breaker_open_gauge_.set(0);
            below_floor_streak_ = 0;
            if (hooks_.set_breaker) hooks_.set_breaker(false);
            break;
          }
        }
      }
      if (attempt + 1 < config_.breaker_reload_retries) {
        std::this_thread::sleep_for(backoff);
        backoff *= 2;
      }
    }
    // If every retry failed the breaker stays open; later rounds keep
    // replaying canaries and close it the moment accuracy recovers.
  }
}

HealthReport Sentinel::report() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  HealthReport r;
  r.rounds = rounds_.value();
  r.raw_accuracy = last_raw_accuracy_;
  r.effective_accuracy = last_effective_accuracy_;
  r.class_accuracy = last_class_accuracy_;
  r.chunk_drift = last_drift_;
  const std::size_t k = reference_.num_classes();
  const std::size_t m = config_.chunks;
  r.verdicts.assign(k * m, ChunkHealth::kHealthy);
  for (std::size_t cls = 0; cls < k; ++cls) {
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t cell = cls * m + c;
      if (c < quarantined_.size() && quarantined_[c]) {
        r.verdicts[cell] = ChunkHealth::kQuarantined;
      } else if (suspect_streak_[cell] > 0) {
        r.verdicts[cell] = ChunkHealth::kSuspect;
      }
    }
  }
  r.quarantined_chunks = mask_.excluded_chunks;
  r.breaker_open = breaker_open_state_;
  return r;
}

}  // namespace robusthd::serve
