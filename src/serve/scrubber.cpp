#include "robusthd/serve/scrubber.hpp"

#include <cassert>
#include <utility>
#include <vector>

#include "robusthd/util/bitops.hpp"

namespace robusthd::serve {

Scrubber::Scrubber(ModelSnapshot& snapshot, const ScrubberConfig& config,
                   util::MetricsRegistry& metrics)
    : snapshot_(snapshot),
      config_(config),
      metrics_(metrics),
      ring_(config.ring_capacity) {
  // Bind the working copy, the engine and the version marker to one
  // consistent read of the snapshot (a reload between separate reads
  // would leave them disagreeing).
  auto [current, version] = snapshot.acquire_versioned();
  working_ = *current;  // private copy: the live model
  seen_version_ = version;
  engine_.emplace(working_, config.recovery);
}

Scrubber::~Scrubber() { stop(); }

void Scrubber::set_persist_hook(PersistHook hook) {
  assert(!started_ && "persist hook must be installed before start()");
  persist_hook_ = std::move(hook);
}

void Scrubber::restore_engine_state(model::RecoveryEngineState state) {
  Command cmd;
  cmd.kind = Command::Kind::kRestoreState;
  cmd.engine_state = std::move(state);
  enqueue_command(std::move(cmd));
}

void Scrubber::start() {
  if (started_) return;
  started_ = true;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread(&Scrubber::thread_main, this);
}

void Scrubber::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

void Scrubber::install_trust_gate(std::unique_ptr<TrustGate> gate) {
  assert(!started_ && "trust gate must be installed before start()");
  gate_ = std::move(gate);
}

bool Scrubber::offer(const hv::BinVec& query) {
  if (!ring_.push(query, false)) {
    drops_.add();
    return false;
  }
  // No wake-up: the scrub thread drains the ring at least every
  // idle_wait, so an offer costs the worker no syscall.
  offered_.add(1, std::memory_order_release);
  return true;
}

Scrubber::OfferOutcome Scrubber::offer_trusted(const hv::BinVec& query,
                                               int predicted, double margin) {
  TrustGate::Verdict verdict;
  if (gate_) verdict = gate_->check(query, predicted, margin);
  if (!verdict.accept) return OfferOutcome::kGateRejected;
  if (!ring_.push(query, verdict.suspect)) {
    drops_.add();
    return OfferOutcome::kRingFull;
  }
  offered_.add(1, std::memory_order_release);  // no wake, as offer()
  return OfferOutcome::kAccepted;
}

void Scrubber::enqueue_command(Command cmd) {
  {
    const std::lock_guard<std::mutex> lock(command_mutex_);
    commands_.push_back(std::move(cmd));
  }
  scheduled_commands_.fetch_add(1, std::memory_order_release);
  wake_cv_.notify_one();
}

void Scrubber::inject_faults(double rate, fault::AttackMode mode,
                             std::uint64_t seed) {
  Command cmd;
  cmd.kind = Command::Kind::kAttackRate;
  cmd.rate = rate;
  cmd.mode = mode;
  cmd.seed = seed;
  enqueue_command(std::move(cmd));
}

void Scrubber::inject_flips(std::size_t flips, fault::AttackMode mode,
                            std::size_t target_plane, double cluster_fraction,
                            std::uint64_t seed) {
  Command cmd;
  cmd.kind = Command::Kind::kAttackFlips;
  cmd.mode = mode;
  cmd.seed = seed;
  cmd.flips = flips;
  cmd.target_plane = target_plane;
  cmd.cluster_fraction = cluster_fraction;
  enqueue_command(std::move(cmd));
}

void Scrubber::prioritize_chunk(std::size_t cls, std::size_t chunk, bool on) {
  Command cmd;
  cmd.kind = Command::Kind::kPriority;
  cmd.cls = cls;
  cmd.chunk = chunk;
  cmd.on = on;
  enqueue_command(std::move(cmd));
}

void Scrubber::drain() {
  const std::uint64_t target = offered_.value(std::memory_order_acquire);
  const std::uint64_t cmd_target =
      scheduled_commands_.load(std::memory_order_acquire);
  while (done_.value(std::memory_order_acquire) < target ||
         done_commands_.load(std::memory_order_acquire) < cmd_target) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void Scrubber::resync_if_stale() {
  if (snapshot_.version() == seen_version_) return;
  // Someone outside this thread published — a hot reload. Adopt the new
  // model and restart the engine: consensus buffers, similarity stats and
  // budgets all described the old weights.
  auto [current, version] = snapshot_.acquire_versioned();
  working_ = *current;
  seen_version_ = version;
  engine_.emplace(working_, config_.recovery);
  dirty_bits_ = 0;  // pending old-model repairs are meaningless now
  pending_ranges_.clear();  // ...and so is their journal trail
  resyncs_.add();
}

void Scrubber::note_repair(const model::ObserveResult& result) {
  if (!persist_hook_ ||
      result.repaired_class == model::ObserveResult::kNoRepair) {
    return;
  }
  // Bit range -> the arena words the repair rewrote.
  const std::size_t word_begin = result.repaired_begin / 64;
  const std::size_t word_end = util::words_for_bits(result.repaired_end);
  pending_ranges_.push_back(
      RepairedRange{result.repaired_class, 0, word_begin,
                    word_end - word_begin});
}

void Scrubber::emit_publication(std::span<const RepairedRange> ranges) {
  if (!persist_hook_) return;
  persist_hook_(seen_version_, working_, ranges, engine_->export_state());
}

void Scrubber::run_commands() {
  std::vector<Command> pending;
  {
    const std::lock_guard<std::mutex> lock(command_mutex_);
    pending.swap(commands_);
  }
  for (const auto& cmd : pending) {
    if (cmd.kind == Command::Kind::kRestoreState) {
      // Crash-recovery rehydration: the engine's budgets and watchdog
      // resume where the last closed epoch left them. A state whose
      // shape disagrees with the live model (a reload landed between
      // recovery and this command) is dropped — it described the old
      // weights.
      resync_if_stale();
      if (cmd.engine_state.class_repairs.size() == working_.num_classes()) {
        engine_->restore_state(cmd.engine_state);
      }
      done_commands_.fetch_add(1, std::memory_order_release);
      continue;
    }
    if (cmd.kind == Command::Kind::kPriority) {
      // Engine mutation only — no model bits change, so nothing publishes.
      // Marks aimed at a stale geometry (a reload swapped in a smaller
      // model before the command ran) are dropped; the sentinel re-asserts
      // its priorities every round anyway.
      resync_if_stale();
      if (cmd.cls < working_.num_classes() &&
          cmd.chunk < config_.recovery.chunks) {
        engine_->set_chunk_priority(cmd.cls, cmd.chunk, cmd.on);
        priority_marks_.add();
      }
      done_commands_.fetch_add(1, std::memory_order_release);
      continue;
    }
    for (;;) {
      resync_if_stale();
      util::Xoshiro256 rng(cmd.seed);
      auto regions = working_.memory_regions();
      std::size_t flipped = 0;
      if (cmd.kind == Command::Kind::kAttackRate) {
        flipped = fault::BitFlipInjector::inject(regions, cmd.rate, cmd.mode,
                                                 rng)
                      .flipped;
      } else {
        flipped = fault::BitFlipInjector::flip_budget(
            regions, cmd.flips, cmd.mode, cmd.target_plane,
            cmd.cluster_fraction, rng);
      }
      // Publish immediately: serving workers must see the damage the same
      // way deployed hardware would — recovery races real traffic. The
      // publish is conditional: losing to a concurrent reload discards
      // this attempt (the resync above re-damages the *new* model).
      if (snapshot_.try_publish(working_, seen_version_)) {
        ++seen_version_;
        faults_injected_.add(flipped);
        published_.add();
        dirty_bits_ = 0;
        // Journal the damage as full-plane deltas: persistence is a
        // faithful record of the published model, and injected faults
        // are published state — a recovered server resumes *repairing*
        // them, exactly as the live one would have. Any repair ranges
        // pending from before the attack are subsumed by the full
        // planes.
        if (persist_hook_) {
          pending_ranges_.clear();
          const auto& model = std::as_const(working_);
          const std::size_t wpp = util::words_for_bits(model.dimension());
          for (std::size_t c = 0; c < model.num_classes(); ++c) {
            const auto planes = model.class_vector(c).planes.size();
            for (std::size_t p = 0; p < planes; ++p) {
              pending_ranges_.push_back(RepairedRange{c, p, 0, wpp});
            }
          }
          emit_publication(pending_ranges_);
          pending_ranges_.clear();
        }
        break;
      }
    }
    done_commands_.fetch_add(1, std::memory_order_release);
  }
}

void Scrubber::publish_if_dirty() {
  if (dirty_bits_ == 0) return;
  if (snapshot_.try_publish(working_, seen_version_)) {
    ++seen_version_;
    published_.add();
    // Readers can now see these repairs — journal them under the version
    // that carries them.
    emit_publication(pending_ranges_);
  }
  // On failure a reload won the race; the repairs applied to the old
  // weights are dropped and resync_if_stale() adopts the new model on
  // the next loop iteration — and their journal trail dies with them.
  pending_ranges_.clear();
  dirty_bits_ = 0;
}

void Scrubber::replay(const TrustedQuery& entry) {
  // The full paper pipeline per trusted query: predict, re-gate the
  // confidence, chunk-level fault detection, probabilistic substitution.
  // The worker's trust decision was only a pre-filter; the engine's own
  // gates remain authoritative.
  const auto result = engine_->observe(entry.query);
  if (result.substituted_bits > 0) {
    repairs_.add();
    substituted_bits_.add(result.substituted_bits);
    dirty_bits_ += result.substituted_bits;
    if (entry.suspect) {
      // A gate-flagged query made it past the engine's own gates and
      // rewrote bits — in shadow mode, this is the measured damage of a
      // poisoning campaign.
      suspect_substitutions_.add(result.substituted_bits);
    }
  }
  note_repair(result);
  done_.add(1, std::memory_order_release);
}

void Scrubber::thread_main() {
  TrustedQuery entry;
  for (;;) {
    resync_if_stale();
    run_commands();

    bool worked = false;
    while (ring_.pop(entry)) {
      worked = true;
      replay(entry);
    }

    // Repairs are published at ring-empty boundaries: batches of repairs
    // coalesce into one snapshot copy instead of one per substitution.
    // (This is also where a hot reload is adopted — resync_if_stale at
    // the top of the next iteration.)
    publish_if_dirty();

    if (stop_.load(std::memory_order_acquire)) {
      // Final drain: accept no new wakeups, but consume what is already
      // in the ring so stop() == "process everything offered, then halt".
      resync_if_stale();
      run_commands();
      while (ring_.pop(entry)) replay(entry);
      publish_if_dirty();
      return;
    }

    if (!worked) {
      std::unique_lock<std::mutex> lock(wake_mutex_);
      // Timed wait: offers never notify, so the timeout is what picks up
      // new ring entries (within idle_wait of the offer). Commands and
      // stop() do notify (without the lock); the timeout also bounds
      // their missed-notify window.
      wake_cv_.wait_for(lock, config_.idle_wait);
    }
  }
}

}  // namespace robusthd::serve
