#pragma once
// robusthd::fleet::Fleet — N independently self-healing shards behind
// one consistent-hash router.
//
// The fleet is the in-process core of the networked service: it owns
// the shards, keeps the router's health flags synced with each shard's
// circuit breaker, and routes tenant submissions. The TCP front end
// (fleet/frontend.hpp) and the CLI are thin adapters over this class,
// and because routing + scoring are deterministic, a fleet submission
// for tenant T is bit-identical to submitting the same query directly
// to a serve::Server holding T's model (fleet_test asserts this).
//
// Failure semantics, end to end:
//  - shard healthy            → normal response (possibly `degraded`
//    while the shard's sentinel has chunks quarantined — rung (b));
//  - shard breaker open       → the router fails the tenant over to the
//    next healthy shard in the same model group;
//  - whole group breaker-open → the request still goes to the primary,
//    whose breaker answers `abstained` (rung (c)) — load-shedding stays
//    visible to the client rather than silently dropping traffic.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "robusthd/fleet/router.hpp"
#include "robusthd/fleet/shard.hpp"
#include "robusthd/hv/binvec.hpp"
#include "robusthd/model/hdc_model.hpp"
#include "robusthd/serve/server.hpp"
#include "robusthd/util/metrics.hpp"

namespace robusthd::fleet {

struct FleetConfig {
  /// One entry per shard. Shards sharing a model_id must be given equal
  /// models (the constructor cannot verify bit-equality cheaply and
  /// trusts the caller — the bench and CLI clone one trained model).
  std::vector<ShardConfig> shards;
  RouterConfig router;
  /// Fleet-wide persistence root: shard i journals into
  /// `<persist_dir>/shard-<i>` and recovers from it on restart (each
  /// shard is its own durability domain — a crash replays per shard,
  /// never cross-shard). Empty (default) disables persistence. A
  /// per-shard ShardConfig::server.persist.dir, when set, wins.
  std::string persist_dir;
};

/// Fleet::stats(): each shard's ServerStats, their sum and the router's
/// own counters.
struct FleetStats {
  serve::ServerStats total;  ///< every shard's metrics, summed
  std::vector<serve::ServerStats> shards;
  std::uint64_t failovers = 0;      ///< requests routed around a shard
  std::uint64_t shed_unrouteable = 0;  ///< whole model group unhealthy
  /// Deadline-driven sheds: admission-time (the budget was already spent
  /// or the estimated queue wait exceeded it) plus in-queue expiries
  /// counted by the shards' servers (total.deadline_sheds).
  std::uint64_t deadline_sheds = 0;
};

/// Why try_submit_to refused a request.
enum class SubmitReject : std::uint8_t {
  kNone = 0,
  kQueueFull,      ///< target shard's queue rejected the push
  kDeadline,       ///< the propagated deadline had already passed
  kPredictedLate,  ///< estimated queue wait exceeds the remaining budget
};

class Fleet {
 public:
  /// `models[i]` becomes shard i's serving model; models.size() must
  /// equal config.shards.size() (or 1 shard per model with an empty
  /// config, every knob defaulted).
  Fleet(std::vector<model::HdcModel> models, FleetConfig config = {});
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  Shard& shard(std::size_t i) noexcept { return *shards_[i]; }
  const Shard& shard(std::size_t i) const noexcept { return *shards_[i]; }
  Router& router() noexcept { return *router_; }
  const Router& router() const noexcept { return *router_; }

  /// Dimension every shard serves at (shard 0's model — the constructor
  /// rejects mixed dimensions, since queries route by tenant, not size).
  std::size_t dimension() const noexcept { return dimension_; }

  /// Syncs router health flags from the shards' breaker gauges. Called
  /// internally on every routing decision (a handful of relaxed loads);
  /// public so tests and pollers can force a sync.
  void refresh_health() noexcept;

  /// Routes and submits; blocks while the target shard's queue is full
  /// (closed-loop backpressure, like serve::Server::submit).
  std::future<serve::Response> submit(std::uint64_t tenant_id,
                                      hv::BinVec query);

  /// The health-aware routing decision for a tenant (no submission).
  /// Counts a failover or an unrouteable shed, so route a request once.
  Router::Decision route(std::uint64_t tenant_id) noexcept;

  /// Deadline triage for a routed request, before it is answered or
  /// queued: true when a finite `deadline` has already passed, counted
  /// into FleetStats::deadline_sheds. The caller owes its client a
  /// kDeadlineExceeded instead of an answer.
  bool shed_expired(std::chrono::steady_clock::time_point deadline);

  /// Non-blocking admission of a request route() sent to `shard`,
  /// completing into `completions` instead of a future (the frontend's
  /// queue path). Returns kNone when the request was accepted: exactly one
  /// serve::Completion carrying `tag` will be pushed to `completions`.
  /// Otherwise says why it was refused, and nothing will be: the shard's
  /// queue was full (counted into FleetStats::rejected via the shard), or
  /// — with a finite `deadline` — the request cannot make it, because the
  /// deadline has passed or the shard's estimated queue wait exceeds the
  /// remaining budget (queue-aware admission; both counted as
  /// deadline_sheds). Throws std::out_of_range when `shard` is not below
  /// shard_count().
  SubmitReject try_submit_to(
      std::size_t shard, hv::BinVec query,
      std::chrono::steady_clock::time_point deadline,
      const std::shared_ptr<serve::CompletionQueue>& completions,
      std::uint64_t tag);

  FleetStats stats() const;

  void drain();
  void shutdown();

 private:
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<Router> router_;
  std::size_t dimension_ = 0;
  util::MetricsRegistry metrics_;
  util::Counter& failovers_ = metrics_.counter("fleet.failovers");
  util::Counter& shed_unrouteable_ = metrics_.counter("fleet.shed_unrouteable");
  /// Admission-time sheds.
  util::Counter& deadline_sheds_ = metrics_.counter("fleet.deadline_sheds");
};

}  // namespace robusthd::fleet
