#pragma once
// The RobustHD adaptive self-recovery framework (Section 4, Figure 1).
//
// For every unlabeled inference query:
//   1. Predict and compute confidence (softmax over class similarities).
//   2. If confidence >= T_C, trust the prediction as a pseudo-label.
//   3. Split the D dimensions into m chunks; re-run the prediction inside
//      each chunk as if it were a tiny HDC model. Chunks whose local winner
//      differs from the trusted global prediction are flagged faulty.
//   4. Probabilistic substitution: inside each faulty chunk, every bit of
//      the predicted class hypervector is overwritten by the corresponding
//      query bit with probability p (no arithmetic — pure partial cloning).
//
// Nothing here ever touches a golden copy of the model or any labels: the
// recovery signal is entirely self-generated, as required by the paper's
// threat model in which *all* memory is attackable.

#include <cstdint>
#include <vector>

#include "robusthd/model/confidence.hpp"
#include "robusthd/model/hdc_model.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd::model {

/// Recovery hyper-parameters (Figure 3 sweeps T_C and p).
struct RecoveryConfig {
  double confidence_threshold = 0.88;  ///< T_C
  std::size_t chunks = 20;             ///< m (chunk size d = D/m)
  double substitution_prob = 0.30;     ///< p, the substitution rate S
  /// A chunk is flagged faulty only when the local winner beats the trusted
  /// class by more than this many Hamming noise floors (sigma ≈ sqrt(d)/2
  /// bits over a d-bit chunk). Without it, the argmax of a short chunk is
  /// nearly a coin flip and healthy chunks get rewritten.
  double chunk_significance = 1.5;
  /// Consensus buffering: a flagged chunk is only rewritten once this many
  /// distinct trusted queries (all predicting the same class) have flagged
  /// it, and the substituted bits are their bitwise majority. With
  /// per-query bit correctness q, a 3-way majority has correctness
  /// q³+3q²(1-q) — e.g. 0.91 → 0.978 — which turns marginal teachers into
  /// reliable ones. 1 reproduces the paper's literal single-query
  /// substitution.
  std::size_t consensus_flags = 3;
  /// Repair budget: each (class, chunk) pair is substituted at most this
  /// many times. Recovery is a bounded repair of injected damage, not an
  /// open-ended online learner; the budget prevents repeated rewrites from
  /// compounding into model drift under sustained marginal teachers.
  /// 0 disables the budget.
  std::size_t max_updates_per_chunk = 4;
  /// Health watchdog: the engine tracks the per-class winning-similarity
  /// level; if the population mean drops this many tracked standard
  /// deviations below its best value since repairs started, the engine
  /// freezes permanently. Healthy repair only ever raises similarities, so
  /// a sustained drop means the model is being damaged faster than healed
  /// (extreme attacks where pseudo-labels themselves go bad). Set <= 0 to
  /// disable.
  double watchdog_sigma = 3.0;
  /// Global repair budget: the engine stops substituting once the total
  /// number of *changed* bits reaches this fraction of the model's bits.
  /// Repairing x% damage changes ~x% of the bits, so the budget comfortably
  /// covers the error rates the detector can actually localise while
  /// hard-bounding the worst case under extreme damage (where trusted
  /// pseudo-labels themselves become unreliable).
  double max_total_substitution_fraction = 0.08;
  /// Balanced repair: a class may run at most this many substitutions
  /// ahead of the least-repaired class. Repairing one class's vector
  /// raises its similarities relative to still-damaged classes and lets it
  /// steal their boundary queries; keeping repairs in lockstep keeps the
  /// decision field level while the model heals. 0 disables.
  std::size_t repair_balance_slack = 1;
  /// Margin half of the confidence gate: the winning similarity must beat
  /// the runner-up by this many Hamming noise floors (sigma of a
  /// similarity *difference* is ~sqrt(2)/(2 sqrt(D))). Softmax top
  /// probability saturates a few sigma out, so this is the discriminating
  /// part of the gate for well-separated models.
  double margin_gate_sigma = 4.0;
  /// Absolute-similarity half of the confidence gate (the paper's
  /// confidence reflects *both* how similar a query is to the winning class
  /// and its margin). A query is trusted only if its winning similarity is
  /// at least the running mean minus this many running standard deviations;
  /// atypical queries (outliers) would otherwise clone unrepresentative
  /// bits into the model. Set very negative to disable.
  double absolute_gate_sigma = 0.0;
  ConfidenceConfig confidence{};
  std::uint64_t seed = 0x4ec0;
};

/// What happened for one observed query.
struct ObserveResult {
  int predicted = -1;
  double confidence = 0.0;
  bool trusted = false;          ///< confidence cleared T_C
  std::size_t faulty_chunks = 0; ///< chunks flagged and substituted
  std::size_t substituted_bits = 0;
  /// When substituted_bits > 0, the single repair this query applied:
  /// class `repaired_class`, bits [repaired_begin, repaired_end) of its
  /// plane 0 (the engine repairs at most one chunk per query). The
  /// serving layer turns this into a WAL plane-range delta. npos when no
  /// repair landed.
  static constexpr std::size_t kNoRepair = static_cast<std::size_t>(-1);
  std::size_t repaired_class = kNoRepair;
  std::size_t repaired_begin = 0;
  std::size_t repaired_end = 0;
};

/// The durable slice of a RecoveryEngine: the budgets and watchdog state
/// that must survive a restart so a recovered server does not treat a
/// half-spent repair budget as fresh. Consensus vote buffers and the
/// similarity EMAs are deliberately *not* here — they are advisory
/// warm-up state that rebuilds within a few dozen queries, and carrying
/// stale similarity statistics across a restart would poison the
/// absolute gate against the recovered (possibly repaired) model.
struct RecoveryEngineState {
  std::uint64_t total_updates = 0;
  std::uint64_t total_substituted_bits = 0;
  double best_health = -1.0;
  bool frozen = false;
  std::vector<std::uint64_t> class_repairs;  ///< per-class repair counts
};

/// Stateful runtime recovery engine bound to one (mutable) HdcModel.
///
/// Only 1-bit models are recoverable: the substitution operator clones
/// query *bits* into the class hypervector, which is meaningful precisely
/// because the deployed model is binary (Section 3.2's design choice).
class RecoveryEngine {
 public:
  RecoveryEngine(HdcModel& model, const RecoveryConfig& config);

  /// Processes one unlabeled query: predicts, and if the prediction is
  /// trusted, detects and regenerates faulty chunks in place.
  ObserveResult observe(const hv::BinVec& query);

  /// Chunk boundaries [begin, end) for chunk index c.
  std::pair<std::size_t, std::size_t> chunk_range(std::size_t c) const;

  /// Marks one (class, chunk) pair as repair-prioritized — the serving
  /// sentinel's first rung on the degradation ladder. A prioritized chunk
  /// skips consensus buffering (a single trusted flagger substitutes
  /// immediately, as in the paper's literal single-query recovery) and its
  /// per-chunk update budget is doubled, so external evidence of damage
  /// turns into repairs ahead of the slower consensus machinery. The flag
  /// is advisory: every other gate (T_C, margin, watchdog, global budget,
  /// balance) still applies.
  void set_chunk_priority(std::size_t cls, std::size_t chunk, bool on);
  bool chunk_priority(std::size_t cls, std::size_t chunk) const noexcept;
  void clear_priorities() noexcept;

  const RecoveryConfig& config() const noexcept { return config_; }
  /// Number of chunk repairs actually applied (one per query at most).
  /// Chunks merely *flagged* faulty but gated out by budget/consensus/
  /// balance do not count — this is repair activity, not detection.
  std::size_t total_updates() const noexcept { return total_updates_; }
  std::size_t total_substituted_bits() const noexcept {
    return total_substituted_bits_;
  }

  /// Snapshot of the durable counters (persisted in WAL RecoveryState
  /// records so budgets and the watchdog survive a kill-9).
  RecoveryEngineState export_state() const;

  /// Rehydrates the durable counters from a recovered snapshot. A state
  /// whose class_repairs length disagrees with the bound model's class
  /// count is rejected (throws std::invalid_argument) — it belongs to a
  /// different model shape.
  void restore_state(const RecoveryEngineState& state);

 private:
  /// Exponential moving estimate of the winning-similarity distribution,
  /// kept *per predicted class* (classes have different baseline
  /// similarity levels; a global estimate would permanently exclude the
  /// lower-similarity classes from repair). Adapts as attacks depress
  /// similarities, so the gate tracks "typical for the current model
  /// state" rather than a fixed constant.
  void track_similarity(std::size_t cls, double win_sim) noexcept;
  bool absolute_gate_passes(std::size_t cls, double win_sim) const noexcept;

  struct SimStats {
    std::size_t observed = 0;
    double mean = 0.0;
    double var = 0.0;
  };

  /// Per-(class, chunk) consensus buffer of query snapshots.
  struct ChunkVotes {
    std::vector<hv::BinVec> snapshots;
    std::size_t updates_done = 0;
  };

  /// Applies the probabilistic substitution of `bits` into the class plane
  /// over [begin, end); returns the number of bits that actually changed.
  std::size_t substitute(PlaneView<true> plane, const hv::BinVec& bits,
                         std::size_t begin, std::size_t end);

  HdcModel& model_;
  RecoveryConfig config_;
  util::Xoshiro256 rng_;
  std::vector<ChunkVotes> votes_;  ///< classes × chunks
  std::vector<char> priority_;     ///< classes × chunks repair-priority flags
  std::vector<std::size_t> class_repairs_;  ///< substitutions per class
  std::size_t total_updates_ = 0;
  std::size_t total_substituted_bits_ = 0;
  std::vector<SimStats> sim_stats_;  ///< per class
  std::vector<double> chunk_scores_buf_;  ///< reused chunks × classes rows
  double best_health_ = -1.0;  ///< best population win-sim mean seen
  bool frozen_ = false;        ///< watchdog tripped

 public:
  /// True when the health watchdog has permanently halted repairs.
  bool frozen() const noexcept { return frozen_; }
};

}  // namespace robusthd::model
