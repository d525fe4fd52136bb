#pragma once
// Background self-recovery: the paper's runtime repair loop as a service
// component.
//
// Serving workers never mutate the model — they append trusted
// high-confidence queries to a bounded lock-free MPMC ring and move on
// (a full ring drops the hint: recovery pressure is advisory, inference
// latency is not). A dedicated scrubber thread drains the ring, replays
// the queries through a model::RecoveryEngine bound to its *private*
// working copy of the model, and publishes an immutable snapshot through
// ModelSnapshot whenever repairs changed stored bits. Fault injection is
// funneled through the same thread (as a command), so every mutation of
// the live model is serialised on the scrubber — the one-writer half of
// the snapshot protocol.
//
// Hot reload (Server::reload) is the one sanctioned second writer: it
// publishes a fresh model directly through ModelSnapshot. The scrubber
// tolerates it by tracking which version it last published or adopted —
// its own publications are *conditional* on that version (try_publish),
// so a repair of pre-reload weights can never clobber a reloaded model;
// at the next ring-empty boundary it notices the foreign version, adopts
// the new snapshot as its working copy, and restarts the engine.
//
// Because the engine re-runs the full predict → gate → detect → substitute
// pipeline on each drained query, a single-producer in-order stream
// reproduces model::RecoveryEngine's offline behaviour bit for bit — the
// serve-time recovery path and the paper's experiment loop are the same
// code, just decoupled by the ring.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "robusthd/fault/injector.hpp"
#include "robusthd/hv/binvec.hpp"
#include "robusthd/model/recovery.hpp"
#include "robusthd/serve/model_snapshot.hpp"
#include "robusthd/serve/trust_gate.hpp"

namespace robusthd::serve {

/// A ring entry: the trusted query plus the trust gate's taint tag.
/// `suspect` rides along in shadow mode (TrustGateConfig::enforce off), so
/// the scrubber can attribute any substitutions the query causes to
/// suspect_substitutions — the poisoning measurement channel.
struct TrustedQuery {
  hv::BinVec query;
  bool suspect = false;
};

/// Bounded lock-free MPMC ring (Vyukov sequence-number scheme). Producers
/// are the serving workers; the consumer is the scrubber thread. push()
/// fails (rather than blocks) when full — callers treat entries as
/// droppable hints.
///
/// Copy-free hand-off: push() copies the query straight into the cell it
/// has claimed, so a full ring copies nothing and a warm cell (one that
/// already holds a buffer of the query's size) reuses it; pop() swaps
/// buffers with the consumer instead of moving. Once the ring is warm the
/// same capacity + 1 buffers circulate between the cells and the
/// consumer, and no push or pop allocates.
///
/// No-throw after claim: a cell claimed by a producer must be published,
/// or the consumer waits on it forever (the scrubber would stop for
/// good). The only step between claim and publish that could throw is
/// the copy into a cold cell (a buffer allocation), so push() is noexcept
/// on purpose, the way CompletionTarget::complete is: an allocation
/// failure there ends the program instead of wedging the ring.
class TrustRing {
 public:
  explicit TrustRing(std::size_t capacity)
      : cells_(round_up_pow2(capacity)), mask_(cells_.size() - 1) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  TrustRing(const TrustRing&) = delete;
  TrustRing& operator=(const TrustRing&) = delete;

  std::size_t capacity() const noexcept { return cells_.size(); }

  /// Copies `query` (and its taint tag) into the ring; false — with
  /// nothing copied — when the ring is full.
  bool push(const hv::BinVec& query, bool suspect) noexcept {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.sequence.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value.query = query;
          cell.value.suspect = suspect;
          cell.sequence.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Takes the oldest entry, swapping `out`'s buffer into the cell for
  /// the next producer to reuse. False when the ring is empty.
  bool pop(TrustedQuery& out) noexcept {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.sequence.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          std::swap(out.query, cell.value.query);
          out.suspect = cell.value.suspect;
          cell.sequence.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Approximate (racy) emptiness — monitoring only.
  bool empty() const noexcept {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  struct Cell {
    std::atomic<std::size_t> sequence{0};
    TrustedQuery value;
  };

  static std::size_t round_up_pow2(std::size_t n) noexcept {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p < 2 ? 2 : p;
  }

  std::vector<Cell> cells_;
  const std::size_t mask_;
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< producers claim here
  alignas(64) std::atomic<std::size_t> head_{0};  ///< consumer claims here
};

/// Scrubber tuning.
struct ScrubberConfig {
  model::RecoveryConfig recovery{};
  std::size_t ring_capacity = 1024;
  /// Consumer poll interval when the ring is idle. Offers do not wake
  /// the scrub thread, so this also bounds how long a trusted query waits
  /// in the ring before it is replayed.
  std::chrono::microseconds idle_wait{500};
  /// Admission control for repair evidence (inert unless gate.enabled).
  /// Server builds the TrustGate from this — including the per-class
  /// canary centroids — and installs it before the scrubber starts.
  TrustGateConfig gate{};
};

/// One contiguous span of plane words rewritten since the last snapshot
/// publication, in whole words. What the persistence layer journals as a
/// WAL plane delta.
struct RepairedRange {
  std::size_t cls = 0;
  std::size_t plane = 0;
  std::size_t word_begin = 0;
  std::size_t word_count = 0;
};

/// The background recovery thread. Lifecycle: construct, start(), offer()
/// from any thread, stop() (or destruction) to halt after a final drain.
class Scrubber {
 public:
  /// Persistence hook, invoked on the scrub thread immediately after a
  /// *successful* snapshot publication: `version` is the version just
  /// published, `model` the published content (the scrubber's working
  /// copy — same thread, safe to read), `ranges` the word ranges that
  /// changed since the previous publication, and `state` the engine's
  /// durable counters at publish time. Publications that lose the race
  /// to a reload are never reported (their repairs were discarded, so
  /// journaling them would persist state no reader ever saw).
  using PersistHook = std::function<void(
      std::uint64_t version, const model::HdcModel& model,
      std::span<const RepairedRange> ranges,
      const model::RecoveryEngineState& state)>;

  /// Records into `metrics` (scrub.* counters, and serve.faults_injected
  /// for the flips it injects), which must outlive the scrubber.
  Scrubber(ModelSnapshot& snapshot, const ScrubberConfig& config,
           util::MetricsRegistry& metrics);
  ~Scrubber();

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  void start();
  /// Drains outstanding work, then joins the thread. Idempotent.
  void stop();

  /// Installs the persistence hook. Must be called before start() — the
  /// hook is read from the scrub thread without synchronisation.
  void set_persist_hook(PersistHook hook);

  /// Schedules a rehydration of the recovery engine's durable counters
  /// (crash recovery: budgets and the watchdog must not reset to zero on
  /// restart). Executed on the scrub thread; a state whose shape does not
  /// match the live model is dropped.
  void restore_engine_state(model::RecoveryEngineState state);

  /// Installs the trust gate the gated offer path consults. Must be
  /// called before start() — the pointer is read from worker threads
  /// without synchronisation after that. Null (the default) means
  /// offer_trusted admits everything, exactly like offer().
  void install_trust_gate(std::unique_ptr<TrustGate> gate);
  /// The installed gate, or nullptr.
  const TrustGate* trust_gate() const noexcept { return gate_.get(); }

  /// Hands a copy of a trusted query to the recovery loop. Returns false
  /// when the ring is full — the hint is dropped, counted in
  /// scrub.trust_drops, and callers must never retry (recovery pressure is
  /// advisory). Never wakes the scrub thread: it picks the query up
  /// within ScrubberConfig::idle_wait.
  bool offer(const hv::BinVec& query);

  /// Why a gated offer did not enter the ring.
  enum class OfferOutcome {
    kAccepted,
    kGateRejected,  ///< trust gate refused the query (enforce mode)
    kRingFull,      ///< admission passed but the ring was full
  };

  /// The gated offer path: consults the installed TrustGate with the
  /// worker's confidence verdict before pushing. Gate rejections are not
  /// ring-full drops: the gate counts them, the ring only kRingFull.
  /// Without an installed gate this is offer() with a three-way result.
  OfferOutcome offer_trusted(const hv::BinVec& query, int predicted,
                             double margin);

  /// Schedules a bit-flip attack on the live model, executed *on the
  /// scrubber thread* (mutation stays single-writer) and followed by a
  /// snapshot publication so serving workers immediately see the damage.
  void inject_faults(double rate, fault::AttackMode mode, std::uint64_t seed);

  /// Schedules an exact-budget attack: `flips` bit flips against the live
  /// model, executed on the scrub thread and published like inject_faults.
  /// `target_plane` < the number of stored plane regions confines the
  /// budget to that plane (the ChaosAgent's targeted campaign — for 1-bit
  /// planes, *which* plane is the only meaningful targeting); npos spreads
  /// it over the whole model proportionally to region size. The
  /// ChaosAgent's per-tick primitive: routing chaos through the scrubber
  /// keeps the engine's consensus state alive (a try_publish from any
  /// other thread would force a resync and restart it every tick).
  void inject_flips(std::size_t flips, fault::AttackMode mode,
                    std::size_t target_plane, double cluster_fraction,
                    std::uint64_t seed);

  /// Schedules a repair-priority change on the recovery engine (the
  /// sentinel's first ladder rung). Executed on the scrub thread; the
  /// flag dies with the engine on a resync, so callers re-assert it every
  /// sentinel round.
  void prioritize_chunk(std::size_t cls, std::size_t chunk, bool on);

  /// Blocks until everything offered/scheduled before the call has been
  /// processed. The scrubber must be started.
  void drain();

  /// The recovery engine's working model. Only meaningful while the
  /// scrubber thread is stopped (tests / post-shutdown inspection).
  const model::HdcModel& working_model() const noexcept { return working_; }
  const model::RecoveryEngine& engine() const noexcept { return *engine_; }

 private:
  struct Command {
    enum class Kind {
      kAttackRate,   ///< BitFlipInjector::inject at `rate`
      kAttackFlips,  ///< exactly `flips` bit flips (ChaosAgent ticks)
      kPriority,     ///< engine repair-priority change (sentinel)
      kRestoreState, ///< rehydrate engine counters (crash recovery)
    };
    Kind kind = Kind::kAttackRate;
    double rate = 0.0;
    fault::AttackMode mode = fault::AttackMode::kRandom;
    std::uint64_t seed = 0;
    std::size_t flips = 0;
    std::size_t target_plane = static_cast<std::size_t>(-1);
    double cluster_fraction = 0.05;
    std::size_t cls = 0;
    std::size_t chunk = 0;
    bool on = true;
    model::RecoveryEngineState engine_state;  ///< kRestoreState payload
  };

  void enqueue_command(Command cmd);

  void thread_main();
  /// Runs one trusted query through the engine and counts what it did.
  void replay(const TrustedQuery& entry);
  void run_commands();
  void publish_if_dirty();
  /// Buffers the word range one engine repair rewrote (scrub thread).
  void note_repair(const model::ObserveResult& result);
  /// Reports a successful publication to the persist hook (scrub thread;
  /// seen_version_ has already advanced to the published version).
  void emit_publication(std::span<const RepairedRange> ranges);
  /// Adopts an externally published snapshot (a hot reload) as the new
  /// working copy, restarting the engine: pending repair state targeted
  /// the old weights and must not leak into the new ones. No-op while
  /// the published version is the scrubber's own.
  void resync_if_stale();

  ModelSnapshot& snapshot_;
  ScrubberConfig config_;
  util::MetricsRegistry& metrics_;
  model::HdcModel working_;      ///< the live (authoritative) model
  /// Engine bound to working_; optional so a resync can rebuild it
  /// against the reloaded weights. Never empty after construction.
  std::optional<model::RecoveryEngine> engine_;
  TrustRing ring_;
  /// Last snapshot version this thread published or adopted. When the
  /// live version differs, someone reloaded the model underneath us.
  std::uint64_t seen_version_ = 0;  ///< scrubber-thread-local after start

  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;

  std::mutex command_mutex_;
  std::vector<Command> commands_;

  // offered_/scheduled_ are bumped by producers *after* a successful
  // hand-off; done_ by the consumer after processing. drain() waits for
  // done_ to catch the snapshot it took of the hand-off counters.
  util::Counter& offered_ = metrics_.counter("scrub.offered");
  std::atomic<std::uint64_t> scheduled_commands_{0};
  util::Counter& done_ = metrics_.counter("scrub.processed");
  std::atomic<std::uint64_t> done_commands_{0};

  util::Counter& repairs_ = metrics_.counter("scrub.repairs");
  util::Counter& substituted_bits_ = metrics_.counter("scrub.substituted_bits");
  util::Counter& faults_injected_ = metrics_.counter("serve.faults_injected");
  util::Counter& published_ = metrics_.counter("scrub.snapshots_published");
  util::Counter& drops_ = metrics_.counter("scrub.trust_drops");  ///< ring full
  /// Reloads the scrub thread adopted.
  util::Counter& resyncs_ = metrics_.counter("scrub.resyncs");
  util::Counter& priority_marks_ = metrics_.counter("scrub.priority_marks");
  /// Bits substituted by gate-flagged suspect queries (scrub thread).
  util::Counter& suspect_substitutions_ =
      metrics_.counter("scrub.suspect_substitutions");
  std::uint64_t dirty_bits_ = 0;  ///< scrubber-thread-local

  /// Installed before start(); read lock-free from worker threads.
  std::unique_ptr<TrustGate> gate_;

  /// Set before start(), read on the scrub thread only.
  PersistHook persist_hook_;
  /// Ranges repaired since the last successful publication (scrub-thread
  /// local). Cleared on publish (reported), failed publish and resync
  /// (both discard the repairs themselves, so the journal must too).
  std::vector<RepairedRange> pending_ranges_;
};

}  // namespace robusthd::serve
