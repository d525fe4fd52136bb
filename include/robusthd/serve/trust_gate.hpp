#pragma once
// TrustGate — admission control for the scrubber's repair evidence.
//
// The self-healing loop turns high-confidence traffic into bit
// substitutions, which makes "high confidence" an attack surface: a
// white-box adversary can craft queries that saturate the softmax
// confidence *and* carry a rival class's bits in exactly one chunk — the
// signature the recovery engine reads as a memory fault (see
// adversary::PoisonCampaign). Confidence alone cannot tell the two apart;
// the trust gate adds three checks that can, each cheap enough for the
// worker hot path:
//
//  1. Margin floor — the winner-vs-runner-up similarity margin must clear
//     the same noise-floor multiple the recovery engine's own margin gate
//     uses (sigma * sqrt(2) * 0.5 / sqrt(D)). Redundant with the engine's
//     gate, but rejecting here keeps junk out of the trust ring entirely.
//
//  2. Per-class fair share — a sliding admission window caps how much of
//     the trust ring any one predicted class may consume. Without it a
//     single hot (or hostile) class monopolizes the ring and the repair
//     balance starves every other class of evidence.
//
//  3. Canary agreement — the one check the adversary cannot satisfy.
//     Per class, the gate holds a bit-majority centroid of the canary
//     queries with that label. A natural member of the class agrees with
//     its centroid well above chance in *every* chunk; a poison query
//     agrees everywhere except the payload chunks, where it carries
//     another class's bits. A chunk is "alien" on either of two
//     criteria, and max_alien_chunks aliens mark the query suspect:
//       a. absolute — agreement below 0.5 + alien_sigma * 0.5 /
//          sqrt(chunk_bits), i.e. indistinguishable from random bits.
//          Decisive when classes are near-orthogonal (synthetic data).
//       b. relative — agreement more than relative_gap below the mean
//          agreement of the query's *other* chunks. Real datasets have
//          correlated classes (cross-class plane agreement ~0.8 on
//          PAMAP), so a rival-plane chunk clears the absolute floor
//          easily — but a natural query is uniformly mediocre across
//          chunks while a poison query pairs near-plane-perfect clean
//          chunks with one deep localized deficit. The mean-minus-min
//          agreement gap separates them (natural p99 ~0.08 vs poison
//          ~0.10-0.15 on PAMAP), and the poison queries that slip under
//          the gap threshold are exactly the ones whose rival bits
//          mostly coincide with the victim's — the least damaging ones.
//
// Suspect queries are rejected when `enforce` is set. With enforce off
// the gate is a pure observer (shadow mode): everything passes, suspects
// are tagged through the trust ring, and the scrubber attributes any
// substitutions they cause to `suspect_substitutions` — the measurement
// mode the undefended half of bench/adversarial_attacks runs in.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "robusthd/hv/binvec.hpp"
#include "robusthd/util/metrics.hpp"

namespace robusthd::serve {

/// Gate tuning. Defaults are inert (`enabled == false`): existing servers
/// keep the bare confidence-threshold behaviour until they opt in.
struct TrustGateConfig {
  /// Master switch. Off: Server installs no gate at all.
  bool enabled = false;
  /// true: reject failing offers. false: shadow mode — observe, count and
  /// tag suspects, but admit everything.
  bool enforce = true;
  /// Margin floor in units of the Hamming noise floor sqrt(2)*0.5/sqrt(D)
  /// (same scale as RecoveryConfig::margin_gate_sigma). <= 0 disables.
  double margin_sigma = 4.0;
  /// Sliding admission window (offers) for fair-share accounting.
  /// 0 disables rate limiting.
  std::size_t rate_window = 256;
  /// A class may take at most max(min_class_share,
  /// fair_share_factor * rate_window / num_classes) admissions per window.
  double fair_share_factor = 2.0;
  std::size_t min_class_share = 8;
  /// Chunk count for the canary-agreement sweep. 0 = inherit the
  /// recovery engine's chunk count (Server wires this up).
  std::size_t chunks = 0;
  /// Absolute alien threshold in noise-floor units: a chunk whose
  /// agreement with the class centroid is below 0.5 + alien_sigma * 0.5 /
  /// sqrt(d_chunk) is indistinguishable from another class's bits.
  /// <= 0 disables the whole canary-agreement check.
  double alien_sigma = 2.0;
  /// Relative alien threshold: a chunk is also alien when its agreement
  /// falls more than this far below the mean agreement of the query's
  /// other chunks — the localized-deficit signature of a substitution
  /// payload on datasets whose classes are too correlated for the
  /// absolute floor to bite. <= 0 disables the relative criterion.
  double relative_gap = 0.10;
  /// Suspect when at least this many chunks are alien.
  std::size_t max_alien_chunks = 1;
};

/// Thread-safe admission gate; one instance per Scrubber, shared by every
/// worker thread. All state is atomic — check() takes no locks.
class TrustGate {
 public:
  /// Builds the per-class canary centroids (bit-majority over the
  /// canaries of each label). Classes with no canaries get an empty
  /// centroid and skip the agreement check. `config.chunks` must be
  /// normalised (> 0) by the caller when alien_sigma > 0 and canaries
  /// exist; Server does this from RecoveryConfig::chunks. Records into
  /// `metrics` (gate.* counters), which must outlive the gate.
  TrustGate(const TrustGateConfig& config, std::size_t num_classes,
            std::size_t dimension, std::span<const hv::BinVec> canaries,
            std::span<const int> canary_labels,
            util::MetricsRegistry& metrics);

  struct Verdict {
    bool accept = true;   ///< may enter the trust ring
    bool suspect = false; ///< failed canary agreement (tagged through)
  };

  /// Inspects one would-be offer. `predicted`/`margin` come from the
  /// worker's confidence assessment of the query.
  Verdict check(const hv::BinVec& query, int predicted,
                double margin) noexcept;

  const TrustGateConfig& config() const noexcept { return config_; }
  /// The class centroid the agreement check compares against (empty when
  /// the class had no canaries). Exposed for tests.
  const hv::BinVec& centroid(std::size_t cls) const noexcept {
    return centroids_[cls];
  }

 private:
  bool rate_admit(std::size_t cls) noexcept;
  bool canary_agrees(const hv::BinVec& query, std::size_t cls) const noexcept;

  TrustGateConfig config_;
  std::size_t dim_ = 0;
  double margin_floor_ = 0.0;
  std::vector<hv::BinVec> centroids_;

  /// Fair-share window. Offers bump window_total_; when it crosses
  /// rate_window one thread wins a CAS and re-zeroes the per-class
  /// counts. Races around the epoch edge over- or under-admit a handful
  /// of offers — admission control, not accounting, so that is fine.
  std::atomic<std::uint64_t> window_total_{0};
  std::vector<std::atomic<std::uint32_t>> class_counts_;

  util::MetricsRegistry& metrics_;
  util::Counter& checked_ = metrics_.counter("gate.checked");  ///< offers seen
  util::Counter& margin_rejects_ = metrics_.counter("gate.margin_rejects");
  util::Counter& rate_rejects_ = metrics_.counter("gate.rate_rejects");
  /// Flagged suspect by canary agreement (counted in shadow mode too).
  util::Counter& poisoned_offers_ = metrics_.counter("gate.poisoned_offers");
  /// Offers actually rejected (enforce mode).
  util::Counter& gate_rejects_ = metrics_.counter("gate.rejects");
};

}  // namespace robusthd::serve
