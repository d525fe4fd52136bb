#include "robusthd/model/recovery.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace robusthd::model {

RecoveryEngine::RecoveryEngine(HdcModel& model, const RecoveryConfig& config)
    : model_(model), config_(config), rng_(config.seed) {
  if (model_.precision_bits() != 1) {
    throw std::invalid_argument(
        "RecoveryEngine requires a binary (1-bit) HDC model");
  }
  if (config_.chunks == 0 || config_.chunks > model_.dimension()) {
    throw std::invalid_argument("chunk count must be in [1, D]");
  }
  votes_.resize(model_.num_classes() * config_.chunks);
  priority_.assign(model_.num_classes() * config_.chunks, 0);
  class_repairs_.assign(model_.num_classes(), 0);
  sim_stats_.resize(model_.num_classes());
}

void RecoveryEngine::set_chunk_priority(std::size_t cls, std::size_t chunk,
                                        bool on) {
  if (cls >= model_.num_classes() || chunk >= config_.chunks) {
    throw std::out_of_range("set_chunk_priority: (class, chunk) out of range");
  }
  priority_[cls * config_.chunks + chunk] = on ? 1 : 0;
}

bool RecoveryEngine::chunk_priority(std::size_t cls,
                                    std::size_t chunk) const noexcept {
  return priority_[cls * config_.chunks + chunk] != 0;
}

void RecoveryEngine::clear_priorities() noexcept {
  std::fill(priority_.begin(), priority_.end(), 0);
}

RecoveryEngineState RecoveryEngine::export_state() const {
  RecoveryEngineState s;
  s.total_updates = total_updates_;
  s.total_substituted_bits = total_substituted_bits_;
  s.best_health = best_health_;
  s.frozen = frozen_;
  s.class_repairs.assign(class_repairs_.begin(), class_repairs_.end());
  return s;
}

void RecoveryEngine::restore_state(const RecoveryEngineState& state) {
  if (state.class_repairs.size() != class_repairs_.size()) {
    throw std::invalid_argument(
        "restore_state: class_repairs length does not match the model");
  }
  total_updates_ = static_cast<std::size_t>(state.total_updates);
  total_substituted_bits_ =
      static_cast<std::size_t>(state.total_substituted_bits);
  best_health_ = state.best_health;
  frozen_ = state.frozen;
  for (std::size_t i = 0; i < class_repairs_.size(); ++i) {
    class_repairs_[i] = static_cast<std::size_t>(state.class_repairs[i]);
  }
}

std::size_t RecoveryEngine::substitute(PlaneView<true> plane,
                                       const hv::BinVec& bits,
                                       std::size_t begin, std::size_t end) {
  std::size_t changed = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (rng_.bernoulli(config_.substitution_prob) &&
        plane.get(i) != bits.get(i)) {
      plane.set(i, bits.get(i));
      ++changed;
    }
  }
  return changed;
}

std::pair<std::size_t, std::size_t> RecoveryEngine::chunk_range(
    std::size_t c) const {
  const std::size_t d = model_.dimension();
  const std::size_t m = config_.chunks;
  return {c * d / m, (c + 1) * d / m};
}

void RecoveryEngine::track_similarity(std::size_t cls,
                                      double win_sim) noexcept {
  auto& stats = sim_stats_[cls];
  ++stats.observed;
  // EMA with a burn-in: the first observations initialise the estimate.
  const double alpha =
      stats.observed < 20 ? 1.0 / static_cast<double>(stats.observed) : 0.05;
  const double delta = win_sim - stats.mean;
  stats.mean += alpha * delta;
  stats.var = (1.0 - alpha) * (stats.var + alpha * delta * delta);
}

bool RecoveryEngine::absolute_gate_passes(std::size_t cls,
                                          double win_sim) const noexcept {
  if (config_.absolute_gate_sigma < -90.0) return true;  // disabled
  const auto& stats = sim_stats_[cls];
  if (stats.observed < 10) return false;  // not enough evidence yet
  const double sd = std::sqrt(std::max(stats.var, 1.0e-12));
  return win_sim >= stats.mean - config_.absolute_gate_sigma * sd;
}

ObserveResult RecoveryEngine::observe(const hv::BinVec& query) {
  ObserveResult result;

  const auto similarities = model_.scores(query);
  const auto conf =
      assess(similarities, config_.confidence, model_.dimension());
  result.predicted = conf.predicted;
  result.confidence = conf.top_probability;

  const double win_sim =
      similarities[static_cast<std::size_t>(conf.predicted)];
  const auto predicted_class = static_cast<std::size_t>(conf.predicted);
  const bool absolute_ok = absolute_gate_passes(predicted_class, win_sim);
  track_similarity(predicted_class, win_sim);
  const double margin_noise =
      std::sqrt(2.0) * 0.5 / std::sqrt(static_cast<double>(model_.dimension()));
  const bool margin_ok =
      conf.margin >= config_.margin_gate_sigma * margin_noise;
  if (conf.top_probability < config_.confidence_threshold || !absolute_ok ||
      !margin_ok) {
    return result;
  }
  result.trusted = true;

  const auto winner = static_cast<std::size_t>(conf.predicted);
  // Repairs write straight into the class's arena row.
  const auto class_plane = model_.class_vector(winner).planes[0];

  // Health watchdog: repairs must never make the model worse. Track the
  // population mean of per-class winning similarities; a sustained drop
  // below the best level seen since repairs started freezes the engine.
  if (frozen_) return result;
  if (config_.watchdog_sigma > 0.0 && total_substituted_bits_ > 0) {
    double mean_sum = 0.0, sd_sum = 0.0;
    std::size_t tracked = 0;
    for (const auto& stats : sim_stats_) {
      if (stats.observed >= 10) {
        mean_sum += stats.mean;
        sd_sum += std::sqrt(std::max(stats.var, 1.0e-12));
        ++tracked;
      }
    }
    if (tracked > 0) {
      const double health = mean_sum / static_cast<double>(tracked);
      const double sd = sd_sum / static_cast<double>(tracked);
      best_health_ = std::max(best_health_, health);
      if (health < best_health_ - config_.watchdog_sigma * sd) {
        frozen_ = true;
        return result;
      }
    }
  }

  // Global budget: once the engine has rewritten its share of the model,
  // it goes quiescent (a bounded repair, not an open-ended learner).
  const double model_bits =
      static_cast<double>(model_.dimension()) *
      static_cast<double>(model_.num_classes());
  if (static_cast<double>(total_substituted_bits_) >=
      config_.max_total_substitution_fraction * model_bits) {
    return result;
  }

  // Balanced repair: do not let this class run ahead of the others.
  const bool repair_allowed =
      config_.repair_balance_slack == 0 ||
      class_repairs_[winner] <=
          *std::min_element(class_repairs_.begin(), class_repairs_.end()) +
              config_.repair_balance_slack;

  long worst_chunk = -1;
  double worst_deficit = 0.0;
  // All chunk-level scores come from one call into the SIMD-dispatched
  // masked-Hamming kernels, reusing this engine's row buffer.
  model_.chunk_scores_all(query, config_.chunks, chunk_scores_buf_);
  const std::size_t k = model_.num_classes();
  for (std::size_t c = 0; c < config_.chunks; ++c) {
    const auto [begin, end] = chunk_range(c);
    const double* local = chunk_scores_buf_.data() + c * k;
    const auto local_winner = static_cast<std::size_t>(
        std::max_element(local, local + k) - local);

    // Two fault signals, both measured against the chunk-level Hamming
    // noise floor (sigma ~ sqrt(d)/2 bits over d bits):
    //  * contradiction — a rival class wins this chunk by a significant
    //    margin (the paper's "mismatched chunk");
    //  * self-inconsistency — the trusted class scores significantly below
    //    its own *global* similarity inside this chunk. The global score
    //    is the mean of the chunk scores, so this flags exactly the chunks
    //    that drag the prediction down, even when no rival overtakes them
    //    locally. Without it, classes whose damage never flips a local
    //    argmax are never repaired, and partially-repaired neighbours
    //    steal their boundary queries.
    const auto d = static_cast<double>(end - begin);
    const double noise_sim = 0.5 / std::sqrt(d);
    const double threshold = config_.chunk_significance * noise_sim;
    const bool contradiction =
        local_winner != winner &&
        local[local_winner] - local[winner] >= threshold;
    const bool self_inconsistent =
        win_sim - local[winner] >= threshold;
    if (!contradiction && !self_inconsistent) continue;  // healthy chunk

    // Faulty chunk: accumulate the flag; repairs themselves are applied
    // one chunk per query below (gradualism — a single query must never
    // rewrite a large slice of a class vector in one step, or the repaired
    // class transiently outscores the still-damaged ones and steals their
    // queries before they can heal).
    ++result.faulty_chunks;
    auto& votes = votes_[winner * config_.chunks + c];
    // Sentinel-prioritized chunks: external evidence of damage already
    // exists, so the consensus requirement drops to a single flagger and
    // the per-chunk budget is doubled.
    const bool prioritized = priority_[winner * config_.chunks + c] != 0;
    if (config_.max_updates_per_chunk != 0 &&
        votes.updates_done >= (prioritized ? 2 * config_.max_updates_per_chunk
                                           : config_.max_updates_per_chunk)) {
      continue;
    }
    if (!prioritized && config_.consensus_flags > 1) {
      votes.snapshots.push_back(query);
      if (votes.snapshots.size() > config_.consensus_flags) {
        votes.snapshots.erase(votes.snapshots.begin());
      }
      if (votes.snapshots.size() < config_.consensus_flags) continue;
    }
    if (!repair_allowed) continue;

    // Remember the most suspicious repair-ready chunk for this query.
    const double deficit =
        std::max(win_sim - local[winner],
                 local[local_winner] - local[winner]);
    if (deficit > worst_deficit) {
      worst_deficit = deficit;
      worst_chunk = static_cast<long>(c);
    }
  }

  // Apply at most one repair per observed query: the worst flagged chunk.
  if (worst_chunk >= 0) {
    const auto c = static_cast<std::size_t>(worst_chunk);
    const auto [begin, end] = chunk_range(c);
    auto& votes = votes_[winner * config_.chunks + c];
    ++votes.updates_done;
    ++class_repairs_[winner];
    // Only applied repairs count: chunks flagged but gated out (budget,
    // consensus, balance) are detection events, not repair activity, and
    // the watchdog's consumers read total_updates() as the latter.
    ++total_updates_;
    if (priority_[winner * config_.chunks + c] != 0 ||
        config_.consensus_flags <= 1) {
      // Single-query substitution (priority chunks bypass consensus; any
      // part-filled consensus buffer is stale once the fast path fires).
      votes.snapshots.clear();
      result.substituted_bits += substitute(class_plane, query, begin, end);
    } else {
      // Bitwise majority of the buffered flaggers over this chunk.
      hv::BinVec majority(model_.dimension());
      for (std::size_t i = begin; i < end; ++i) {
        std::size_t ones = 0;
        for (const auto& s : votes.snapshots) ones += s.get(i);
        majority.set(i, 2 * ones > votes.snapshots.size());
      }
      votes.snapshots.clear();
      result.substituted_bits += substitute(class_plane, majority, begin, end);
    }
    if (result.substituted_bits > 0) {
      result.repaired_class = winner;
      result.repaired_begin = begin;
      result.repaired_end = end;
    }
  }

  total_substituted_bits_ += result.substituted_bits;
  return result;
}

}  // namespace robusthd::model
