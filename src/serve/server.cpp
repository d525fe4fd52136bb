#include "robusthd/serve/server.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <array>
#include <cassert>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "robusthd/core/serialize.hpp"
#include "robusthd/model/confidence.hpp"
#include "robusthd/util/parallel.hpp"

namespace robusthd::serve {

namespace {

ServerConfig normalized(ServerConfig config) {
  if (config.worker_threads == 0) {
    config.worker_threads = util::hardware_threads();
  }
  if (config.queue_capacity == 0) config.queue_capacity = 1;
  if (config.max_batch == 0) config.max_batch = 1;
  return config;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

/// Best-effort affinity: an out-of-range cpu id or a restricted cpuset
/// just leaves the thread unpinned.
void pin_current_thread(int cpu) noexcept {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

}  // namespace

Server::Server(model::HdcModel model, const ServerConfig& config)
    : config_(normalized(config)),
      snapshot_(std::move(model)),
      queue_(config_.queue_capacity) {
  if (config_.enable_recovery) {
    if (snapshot_.acquire()->precision_bits() != 1) {
      throw std::invalid_argument(
          "serve::Server recovery requires a binary (1-bit) model; "
          "set ServerConfig::enable_recovery = false for multi-bit models");
    }
    scrubber_ =
        std::make_unique<Scrubber>(snapshot_, config_.scrubber, metrics_);
    if (config_.scrubber.gate.enabled) {
      // Build the trust gate against the blessed (version-0) model and
      // the configured canary set; a zero chunk count inherits the
      // recovery engine's chunking so the agreement sweep lines up with
      // the repair sweep it protects.
      auto gate_config = config_.scrubber.gate;
      if (gate_config.chunks == 0) {
        gate_config.chunks = config_.scrubber.recovery.chunks;
      }
      const auto blessed = snapshot_.acquire();
      scrubber_->install_trust_gate(std::make_unique<TrustGate>(
          gate_config, blessed->num_classes(), blessed->dimension(),
          config_.canaries, config_.canary_labels, metrics_));
    }
  }

  if (!config_.persist.dir.empty()) {
    // Write the serving model as an atomic base checkpoint and start the
    // WAL thread. This happens before any worker or the scrubber runs, so
    // the base is exactly snapshot version 0 — every later publication is
    // journaled as a delta above it.
    epoch_log_ = std::make_unique<persist::EpochLog>(
        config_.persist, core::serialize_model(*snapshot_.acquire(), {}),
        snapshot_.version(), metrics_);
    if (scrubber_) {
      // The hook runs on the scrub thread right after a successful
      // publication; it copies the rewritten words out of the (thread-
      // local) working model and hands them to the log thread. Serving
      // never waits on I/O.
      scrubber_->set_persist_hook(
          [this](std::uint64_t version, const model::HdcModel& published,
                 std::span<const RepairedRange> ranges,
                 const model::RecoveryEngineState& state) {
            std::vector<persist::PlaneWrite> writes;
            writes.reserve(ranges.size());
            for (const auto& r : ranges) {
              const auto words = published.class_vector(r.cls).planes[r.plane]
                                     .words();
              persist::PlaneWrite w;
              w.cls = static_cast<std::uint32_t>(r.cls);
              w.plane = static_cast<std::uint32_t>(r.plane);
              w.word_begin = r.word_begin;
              w.words.assign(
                  words.begin() + static_cast<std::ptrdiff_t>(r.word_begin),
                  words.begin() +
                      static_cast<std::ptrdiff_t>(r.word_begin + r.word_count));
              writes.push_back(std::move(w));
            }
            epoch_log_->append_publication(version, std::move(writes), state);
          });
    }
  }

  if (scrubber_) scrubber_->start();

  // The breaker's fallback: the model as constructed is blessed by
  // definition. Updated on every successful reload.
  last_good_ = *snapshot_.acquire();

  if (config_.sentinel.enabled) {
    if (config_.canaries.empty()) {
      throw std::invalid_argument(
          "serve::Server: sentinel.enabled requires a non-empty "
          "ServerConfig::canaries set");
    }
    SentinelHooks hooks;
    if (scrubber_) {
      // Rung (a): suspect chunks jump the scrubber's repair queue.
      hooks.prioritize = [this](std::size_t cls, std::size_t chunk, bool on) {
        scrubber_->prioritize_chunk(cls, chunk, on);
      };
    }
    hooks.publish_quarantine = [this](const std::vector<bool>& excluded) {
      apply_quarantine(excluded);
    };
    hooks.set_breaker = [this](bool open) {
      breaker_open_.store(open, std::memory_order_release);
    };
    hooks.attempt_reload = [this] { return publish_last_good(); };
    sentinel_ = std::make_unique<Sentinel>(
        snapshot_, config_.canaries, config_.canary_labels, config_.sentinel,
        std::move(hooks), metrics_);
    if (config_.sentinel.period.count() > 0) sentinel_->start();
  }

  if (config_.chaos.enabled) {
    ChaosAgent::TargetProvider target;
    if (sentinel_) {
      target = [this] { return sentinel_->most_confident_class(); };
    }
    chaos_ = std::make_unique<ChaosAgent>(snapshot_, scrubber_.get(),
                                          config_.chaos, metrics_,
                                          std::move(target));
    if (config_.chaos.period.count() > 0) chaos_->start();
  }

  workers_.start(config_.worker_threads,
                 [this](std::size_t w) { worker_main(w); });
}

Server::~Server() { shutdown(); }

bool Server::admit(Request& request, bool block) {
  // Counted under the queue lock, before a worker can take the request:
  // otherwise a worker could complete it first, and drain() see completed
  // catch up with submitted while it is still in flight.
  const auto count = [this] { submitted_.add(); };
  const bool accepted = block ? queue_.push(std::move(request), count)
                              : queue_.try_push(request, count);
  if (!accepted) rejected_.add();
  return accepted;
}

std::future<Response> Server::submit(hv::BinVec query) {
  std::promise<Response> promise;
  auto future = promise.get_future();
  Request request{std::move(query), {}, false,
                  CompletionTarget(std::move(promise)),
                  std::chrono::steady_clock::now()};
  // A refused request's target is still armed: leaving scope fails the
  // future with the shutdown error.
  admit(request, /*block=*/true);
  return future;
}

std::optional<std::future<Response>> Server::try_submit(
    hv::BinVec query, std::chrono::steady_clock::time_point deadline) {
  std::promise<Response> promise;
  auto future = promise.get_future();
  Request request{std::move(query), {}, false,
                  CompletionTarget(std::move(promise)),
                  std::chrono::steady_clock::now(), deadline};
  if (!admit(request, /*block=*/false)) {
    request.done.disarm();
    return std::nullopt;
  }
  return future;
}

bool Server::try_submit_to(hv::BinVec query,
                           std::chrono::steady_clock::time_point deadline,
                           std::shared_ptr<CompletionQueue> completions,
                           std::uint64_t tag) {
  Request request{std::move(query), {}, false,
                  CompletionTarget(std::move(completions), tag),
                  std::chrono::steady_clock::now(), deadline};
  if (!admit(request, /*block=*/false)) {
    request.done.disarm();
    return false;
  }
  return true;
}

std::future<Response> Server::submit_features(std::vector<float> features) {
  if (!config_.encoder) {
    throw std::logic_error(
        "serve::Server::submit_features requires ServerConfig::encoder");
  }
  std::promise<Response> promise;
  auto future = promise.get_future();
  Request request{hv::BinVec(), std::move(features), true,
                  CompletionTarget(std::move(promise)),
                  std::chrono::steady_clock::now()};
  admit(request, /*block=*/true);
  return future;
}

std::vector<Response> Server::predict_all(
    std::span<const hv::BinVec> queries) {
  std::vector<std::future<Response>> futures;
  futures.reserve(queries.size());
  for (const auto& q : queries) futures.push_back(submit(q));
  std::vector<Response> responses;
  responses.reserve(queries.size());
  for (auto& f : futures) responses.push_back(f.get());
  return responses;
}

void Server::inject_faults(double rate, fault::AttackMode mode,
                           std::uint64_t seed) {
  if (scrubber_) {
    scrubber_->inject_faults(rate, mode, seed);
    return;
  }
  // No recovery thread to own the mutation: apply copy-on-write under a
  // lock (publication itself stays atomic for the readers).
  const std::lock_guard<std::mutex> lock(direct_fault_mutex_);
  model::HdcModel damaged = *snapshot_.acquire();
  util::Xoshiro256 rng(seed);
  auto regions = damaged.memory_regions();
  const auto report = fault::BitFlipInjector::inject(regions, rate, mode, rng);
  faults_injected_.add(report.flipped);
  // Without a scrubber no hook journals this publication as deltas;
  // rotate the generation around the damaged model instead — published
  // state must be recoverable state, injected or not.
  std::vector<std::byte> blob;
  if (epoch_log_) blob = core::serialize_model(damaged, {});
  const auto version = snapshot_.publish(std::move(damaged));
  if (epoch_log_) epoch_log_->rotate_generation(std::move(blob), version);
}

std::uint64_t Server::reload(model::HdcModel model) {
  const auto current = snapshot_.acquire();
  if (model.dimension() != current->dimension()) {
    throw std::invalid_argument(
        "serve::Server::reload: model dimension mismatch (queued queries "
        "are encoded at the serving dimension)");
  }
  if (config_.enable_recovery && model.precision_bits() != 1) {
    throw std::invalid_argument(
        "serve::Server::reload: recovery requires a binary (1-bit) model");
  }
  // A reload is a blessed publication: it becomes the breaker's new
  // fallback and the sentinel's new drift reference.
  {
    const std::lock_guard<std::mutex> lock(last_good_mutex_);
    last_good_ = model;
  }
  // Publish through the same epoch path repairs use: in-flight batches
  // hold their snapshot pointer and finish on the old model; every batch
  // formed after this line scores the new one. The scrubber notices the
  // foreign version at its next ring-empty boundary and resyncs.
  std::vector<std::byte> blob;
  if (epoch_log_) blob = core::serialize_model(model, {});
  const std::lock_guard<std::mutex> lock(direct_fault_mutex_);
  const auto version = snapshot_.publish(std::move(model));
  // A reload rotates the WAL generation: the reloaded blob becomes the
  // new base checkpoint, and any queued repair deltas of the pre-reload
  // weights fall below the generation fence and are discarded — exactly
  // mirroring the scrubber's own discard of those repairs.
  if (epoch_log_) epoch_log_->rotate_generation(std::move(blob), version);
  reloads_.add();
  // rebase() only sets a flag, so this is safe even when reload() is
  // reached from the sentinel's own breaker path (attempt_reload hook).
  if (sentinel_) sentinel_->rebase();
  return version;
}

std::uint64_t Server::reload(const core::HdcClassifier& classifier) {
  return reload(classifier.model());
}

std::uint64_t Server::load_model(const std::string& path) {
  // Validation happens entirely before publication: a blob that fails the
  // RHD2 integrity checks throws out of core::load_model and the serving
  // model is never touched.
  try {
    return reload(core::load_model(path).model());
  } catch (const std::runtime_error&) {
    integrity_failures_.add();
    throw;
  }
}

double Server::estimated_service_ns(std::size_t n) const {
  const double mean_batch = batch_sizes_.mean();
  // n / mean_batch batches, each costing roughly one mean batch service
  // time (0 while nothing has been measured).
  return static_cast<double>(n) * service_.mean_ns() /
         (mean_batch < 1.0 ? 1.0 : mean_batch);
}

std::uint64_t Server::estimated_wait_ns() const {
  // The queued requests are ahead of one admitted now.
  return static_cast<std::uint64_t>(estimated_service_ns(queue_.depth()));
}

bool Server::inline_pays(std::size_t n) {
  // The lower quartile of the last eight hand-offs, not their mean. On a
  // loaded host a worker can wait milliseconds for a CPU after it is
  // woken; one such sample lifts the mean, and a run of them even the
  // median, past a heavy batch's service time, and the loop, which does
  // no I/O while it scores, would then take the batch. The quartile (the
  // second fastest of eight) ignores up to six slow samples, and the
  // fastest one. Only the last eight count, so a slow stretch is
  // forgotten after eight more hand-offs.
  if (handoffs_seen_.load(std::memory_order_relaxed) < kMinHandoffs) {
    return false;
  }
  const double service = estimated_service_ns(n);
  if (service <= 0.0) return false;
  std::array<std::uint64_t, kMinHandoffs> recent{};
  for (std::size_t i = 0; i < kMinHandoffs; ++i) {
    recent[i] = recent_handoffs_[i].load(std::memory_order_relaxed);
  }
  std::nth_element(recent.begin(), recent.begin() + 1, recent.end());
  if (service > static_cast<double>(recent[1])) return false;
  return inline_eligible_.fetch_add(1, std::memory_order_relaxed) %
             kHandoffRefresh !=
         kHandoffRefresh - 1;
}

void Server::drain() {
  while (completed_.value(std::memory_order_acquire) <
         submitted_.value(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  if (scrubber_) scrubber_->drain();
}

void Server::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  if (chaos_) chaos_->stop();      // stop attacking first
  if (sentinel_) sentinel_->stop();  // then stop escalating
  queue_.close();     // wakes workers; pops drain accepted requests
  workers_.join();    // every accepted request is now completed
  // No answer_now() starts after the close; wait out any still running,
  // or its trust offers would land in a stopped scrubber's ring and
  // drain() would wait for them forever.
  queue_.wait_bypasses();
  if (scrubber_) scrubber_->stop();  // final ring drain, then halt
  // Last: the scrubber's final publications are already appended, so this
  // closes one last epoch over them — a graceful shutdown loses nothing.
  if (epoch_log_) epoch_log_->stop();
}

void Server::persist_barrier() {
  drain();
  if (epoch_log_) epoch_log_->close_epoch();
}

std::unique_ptr<Server> Server::recover(const std::string& dir,
                                        ServerConfig config) {
  auto rec = persist::recover_dir(dir);
  if (!rec) {
    throw std::runtime_error(
        "serve::Server::recover: no usable persisted state in '" + dir + "'");
  }
  config.persist.dir = dir;
  auto server = std::make_unique<Server>(std::move(rec->model), config);
  server->replay_stats_ = rec->stats;
  // Rehydrate the recovery engine's durable counters (budgets, watchdog)
  // on the scrub thread — a crash must not hand the attacker a fresh
  // substitution budget.
  if (rec->engine_state && server->scrubber_) {
    server->scrubber_->restore_engine_state(std::move(*rec->engine_state));
  }
  return server;
}

util::MetricsSnapshot Server::metrics() const {
  auto m = metrics_.snapshot();
  m.set_gauge("serve.queue_depth", static_cast<double>(queue_.depth()));
  {
    const auto model = snapshot_.acquire();
    m.set_gauge("mem.arena_bytes",
                static_cast<double>(model->arena().bytes()));
    m.set_gauge("mem.arena_hugepage", model->arena().hugepage_backed());
  }
  m.set_gauge("persist.replay_records",
              static_cast<double>(replay_stats_.replay_records));
  m.set_gauge("serve.model_version", static_cast<double>(snapshot_.version()));
  return m;
}

ServerStats::ServerStats(const util::MetricsSnapshot& m) {
  submitted = m.counter("serve.submitted");
  rejected = m.counter("serve.rejected");
  completed = m.counter("serve.completed");
  deadline_sheds = m.counter("serve.deadline_sheds");
  queue_depth = static_cast<std::size_t>(m.gauge("serve.queue_depth"));
  const auto& batch = m["serve.batch_size"];
  batches = batch.count;
  mean_batch = batch.count == 0 ? 0.0
                                : static_cast<double>(batch.sum) /
                                      static_cast<double>(batch.count);
  queue_wait = LatencyHistogram::summarize(m["serve.queue_wait_ns"]);
  handoff = LatencyHistogram::summarize(m["serve.handoff_ns"]);
  service = LatencyHistogram::summarize(m["serve.service_ns"]);
  end_to_end = LatencyHistogram::summarize(m["serve.end_to_end_ns"]);
  trusted = m.counter("serve.trusted");
  scrub_offered = m.counter("scrub.offered");
  trust_drops = m.counter("scrub.trust_drops");
  scrub_processed = m.counter("scrub.processed");
  scrub_repairs = m.counter("scrub.repairs");
  scrub_substituted_bits = m.counter("scrub.substituted_bits");
  faults_injected = m.counter("serve.faults_injected");
  snapshots_published = m.counter("scrub.snapshots_published");
  model_version = static_cast<std::uint64_t>(m.gauge("serve.model_version"));
  poisoned_offers = m.counter("gate.poisoned_offers");
  gate_rejects = m.counter("gate.rejects");
  suspect_substitutions = m.counter("scrub.suspect_substitutions");
  reloads = m.counter("serve.reloads");
  integrity_failures = m.counter("serve.integrity_failures");
  scrub_resyncs = m.counter("scrub.resyncs");
  chaos_ticks = m.counter("chaos.ticks");
  chaos_flips = m.counter("chaos.flips");
  canary_runs = m.counter("sentinel.rounds");
  canary_accuracy = m.gauge("sentinel.canary_accuracy");
  quarantined_chunks =
      static_cast<std::size_t>(m.gauge("sentinel.quarantined_chunks"));
  priority_marks = m.counter("scrub.priority_marks");
  degraded_responses = m.counter("serve.degraded_responses");
  abstained_responses = m.counter("serve.abstained_responses");
  breaker_trips = m.counter("sentinel.breaker_trips");
  breaker_open = m.gauge("sentinel.breaker_open") != 0.0;
  reload_retries = m.counter("sentinel.reload_retries");
  arena_bytes = static_cast<std::size_t>(m.gauge("mem.arena_bytes"));
  arena_hugepage = m.gauge("mem.arena_hugepage") != 0.0;
  epochs_closed = m.counter("persist.epochs_closed");
  wal_bytes = m.counter("persist.wal_bytes");
  wal_rotations = m.counter("persist.rotations");
  wal_compactions = m.counter("persist.compactions");
  persist_io_errors = m.counter("persist.io_errors");
  replay_records =
      static_cast<std::uint64_t>(m.gauge("persist.replay_records"));
}

void Server::apply_quarantine(const std::vector<bool>& excluded) {
  const auto model = snapshot_.acquire();
  auto mask = std::make_shared<const QuarantineMask>(
      build_quarantine_mask(model->dimension(), excluded));
  const bool any = mask->excluded_chunks > 0;
  {
    const std::lock_guard<std::mutex> lock(quarantine_mutex_);
    quarantine_ = any ? std::move(mask) : nullptr;
  }
  // Release pairs with the workers' acquire on the version check.
  quarantine_version_.fetch_add(1, std::memory_order_release);
}

bool Server::publish_last_good() {
  try {
    model::HdcModel fallback;
    {
      const std::lock_guard<std::mutex> lock(last_good_mutex_);
      fallback = last_good_;
    }
    reload(std::move(fallback));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

void Server::worker_main(std::size_t worker_index) {
  if (!config_.cpu_affinity.empty()) {
    pin_current_thread(
        config_.cpu_affinity[worker_index % config_.cpu_affinity.size()]);
  }
  // Expired requests are shed at dequeue time, before they occupy a batch
  // slot: the client's budget is spent, so scoring would be pure waste.
  // The predicate owns the disposal (completion, latency records,
  // counters) so the batcher stays deadline-agnostic.
  Batcher<Request> batcher(
      queue_, config_.max_batch, config_.batch_linger,
      [this](Request& request) {
        if (request.deadline ==
            std::chrono::steady_clock::time_point::max()) {
          return false;
        }
        const auto now = std::chrono::steady_clock::now();
        if (now < request.deadline) return false;
        deadline_sheds_.add();
        queue_wait_.record(elapsed_ns(request.enqueued, now));
        end_to_end_.record(elapsed_ns(request.enqueued, now));
        Response response;
        response.expired = true;
        completed_.add(1, std::memory_order_release);
        request.done.complete(CompletionStatus::kExpired, response);
        return true;
      });
  Lane lane;
  for (auto idle_since = std::chrono::steady_clock::now();
       batcher.next_batch(lane.batch_);
       idle_since = std::chrono::steady_clock::now()) {
    const auto started = std::chrono::steady_clock::now();
    // A request that arrived while this worker was idle waited only for it
    // to wake up: that wait is the hand-off inline_pays() weighs.
    const auto first = lane.batch_.front().enqueued;
    if (first > idle_since) {
      const auto wait = elapsed_ns(first, started);
      handoff_.record(wait);
      const auto n = handoffs_seen_.fetch_add(1, std::memory_order_relaxed);
      recent_handoffs_[n % kMinHandoffs].store(wait,
                                               std::memory_order_relaxed);
    }
    run_batch(lane, started);
  }
}

bool Server::answer_now(Lane& lane, std::span<hv::BinVec> queries) {
  if (queries.empty() || queries.size() > config_.max_batch ||
      config_.batch_linger.count() != 0 || !queue_.try_bypass()) {
    return false;
  }
  // The bypass keeps shutdown() from stopping the scrubber until this
  // batch's trust offers have landed.
  struct EndBypass {
    RequestQueue<Request>& queue;
    ~EndBypass() { queue.end_bypass(); }
  } end_bypass{queue_};
  // Enqueued the moment the batch starts: zero queue wait, and end to end
  // is the batch's own service time. No completion target: the answers
  // stay in the lane for the caller.
  const auto started = std::chrono::steady_clock::now();
  lane.batch_.clear();
  for (auto& query : queries) {
    lane.batch_.push_back(Request{std::move(query), {}, false,
                                  CompletionTarget(), started});
  }
  submitted_.add(queries.size());
  run_batch(lane, started);
  lane.batch_.clear();  // the queries are answered: free them now
  return true;
}

void Server::run_batch(Lane& lane,
                       std::chrono::steady_clock::time_point started) {
  auto& batch = lane.batch_;
  auto& responses = lane.responses_;
  const model::ConfidenceConfig& confidence =
      config_.scrubber.recovery.confidence;
  const double trust_threshold =
      config_.scrubber.recovery.confidence_threshold;

  // One snapshot per batch: every query in the batch is scored against
  // the same immutable model, however the scrubber races us. The lane's
  // cached snapshot and quarantine mask are refreshed only when their
  // published versions move, so steady-state batches take no lock.
  snapshot_.refresh(lane.model_, lane.version_);
  if (quarantine_version_.load(std::memory_order_acquire) !=
      lane.qmask_version_) {
    const std::lock_guard<std::mutex> lock(quarantine_mutex_);
    lane.qmask_ = quarantine_;
    lane.qmask_version_ = quarantine_version_.load(std::memory_order_relaxed);
  }
  const auto& model = lane.model_;
  const std::uint64_t version = lane.version_;
  batch_sizes_.record(batch.size());
  responses.assign(batch.size(), Response{});

  if (breaker_open_.load(std::memory_order_acquire)) {
    // Rung (c): breaker open — shed the whole batch with explicit
    // abstentions, no encoding, no scoring. Clients get an answer (not
    // a hang) and retry once the sentinel has republished the
    // last-good model.
    for (auto& response : responses) {
      response.abstained = true;
      response.model_version = version;
    }
    abstained_.add(batch.size());
  } else {
    // Server-side encoding for feature-mode requests, through the
    // lane's persistent workspace (the encoder's bit-sliced counter is
    // reused), so after the first full-sized batch the hot path performs
    // no heap allocations per request.
    [[maybe_unused]] bool encoded_any = false;
    for (auto& request : batch) {
      if (request.from_features) {
        config_.encoder->encode_into(request.features, request.query,
                                     lane.encode_ws_);
        encoded_any = true;
      }
    }
#ifndef NDEBUG
    if (encoded_any) {
      // Steady-state invariant: once warmed, encoding a request must not
      // grow the workspace — i.e. the encode path really is
      // allocation-free.
      assert(!lane.encode_warmed_ ||
             lane.encode_ws_.capacity_signature() == lane.encode_sig_);
      lane.encode_sig_ = lane.encode_ws_.capacity_signature();
      lane.encode_warmed_ = true;
    }
#endif

    // Score the whole batch in one blocked pass over the class planes.
    auto& query_ptrs = lane.query_ptrs_;
    query_ptrs.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      query_ptrs[i] = &batch[i].query;
    }
    // Rung (b): with a non-empty quarantine, score over the surviving
    // dimensions only (the arena kernel under the quarantine mask) and
    // flag the answers degraded.
    // The confidence model then sees kept_dims as the effective
    // dimension.
    const auto& qmask = lane.qmask_;
    const bool degraded = qmask != nullptr;
    const std::size_t effective_dim =
        degraded ? qmask->kept_dims : model->dimension();
    model->scores_batch(query_ptrs, lane.score_ws_,
                        degraded ? qmask->words.data() : nullptr,
                        effective_dim);
    if (degraded) degraded_.add(batch.size());
    const std::size_t k = model->num_classes();

    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::span<const double> similarities(
          lane.score_ws_.scores.data() + i * k, k);
      const auto conf = model::assess(similarities, confidence, effective_dim);

      Response& response = responses[i];
      response.predicted = conf.predicted;
      response.confidence = conf.top_probability;
      response.model_version = version;
      response.degraded = degraded;
      if (scrubber_ && conf.top_probability >= trust_threshold) {
        // Pre-filter only: the trust gate (margin floor, fair-share
        // rate limit, canary agreement) decides admission, and the
        // engine re-runs its own gates on the scrub thread. A full ring
        // drops the hint — serving latency must not wait on recovery.
        // The ring counts its drops (trust_drops) and the gate its
        // rejections.
        response.trusted = true;
        trusted_.add();
        scrubber_->offer_trusted(batch[i].query, conf.predicted,
                                 conf.margin);
      }
    }
  }

  // Every answer of the batch is ready: record and complete them in one
  // pass, so a caller waiting on the first answer wakes once per batch
  // rather than once per request. The batch is the unit of work, so each
  // of its requests records the batch's whole service time.
  const auto end = std::chrono::steady_clock::now();
  const std::uint64_t service = elapsed_ns(started, end);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto& request = batch[i];
    queue_wait_.record(elapsed_ns(request.enqueued, started));
    service_.record(service);
    end_to_end_.record(elapsed_ns(request.enqueued, end));
    // Count before completing: once a client sees its answer,
    // stats().completed already includes it.
    completed_.add(1, std::memory_order_release);
    request.done.complete(CompletionStatus::kAnswered, responses[i]);
  }
}

}  // namespace robusthd::serve
