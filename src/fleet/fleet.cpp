#include "robusthd/fleet/fleet.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace robusthd::fleet {

Fleet::Fleet(std::vector<model::HdcModel> models, FleetConfig config) {
  if (models.empty()) {
    throw std::invalid_argument("Fleet needs at least one model/shard");
  }
  if (config.shards.empty()) {
    config.shards.resize(models.size());
  }
  if (config.shards.size() != models.size()) {
    throw std::invalid_argument(
        "FleetConfig::shards must match models (one config per shard)");
  }
  dimension_ = models[0].dimension();
  std::vector<std::string> groups;
  groups.reserve(models.size());
  for (std::size_t i = 0; i < models.size(); ++i) {
    if (models[i].dimension() != dimension_) {
      throw std::invalid_argument(
          "all fleet shards must serve the same dimension");
    }
    groups.push_back(config.shards[i].model_id);
    if (!config.persist_dir.empty() &&
        config.shards[i].server.persist.dir.empty()) {
      config.shards[i].server.persist.dir =
          config.persist_dir + "/shard-" + std::to_string(i);
    }
    shards_.push_back(std::make_unique<Shard>(i, std::move(models[i]),
                                              std::move(config.shards[i])));
  }
  router_ = std::make_unique<Router>(std::move(groups), config.router);
}

Fleet::~Fleet() { shutdown(); }

void Fleet::refresh_health() noexcept {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    router_->set_healthy(i, shards_[i]->healthy());
  }
}

Router::Decision Fleet::route(std::uint64_t tenant_id) noexcept {
  refresh_health();
  const auto d = router_->route_healthy(tenant_id);
  if (d.failover) failovers_.add();
  if (d.all_unhealthy) {
    shed_unrouteable_.add();
  }
  return d;
}

std::future<serve::Response> Fleet::submit(std::uint64_t tenant_id,
                                           hv::BinVec query) {
  const auto d = route(tenant_id);
  return shards_[d.shard]->server().submit(std::move(query));
}

bool Fleet::shed_expired(std::chrono::steady_clock::time_point deadline) {
  if (deadline == std::chrono::steady_clock::time_point::max() ||
      std::chrono::steady_clock::now() < deadline) {
    return false;
  }
  deadline_sheds_.add();
  return true;
}

SubmitReject Fleet::try_submit_to(
    std::size_t shard, hv::BinVec query,
    std::chrono::steady_clock::time_point deadline,
    const std::shared_ptr<serve::CompletionQueue>& completions,
    std::uint64_t tag) {
  auto& server = shards_.at(shard)->server();
  if (deadline != std::chrono::steady_clock::time_point::max()) {
    if (shed_expired(deadline)) return SubmitReject::kDeadline;
    // Queue-aware admission: refusing now costs the client one cheap
    // error frame; admitting a request the queue cannot serve in time
    // costs a queue slot, a dequeue, and a shed anyway.
    const auto wait = std::chrono::nanoseconds(server.estimated_wait_ns());
    if (std::chrono::steady_clock::now() + wait >= deadline) {
      deadline_sheds_.add();
      return SubmitReject::kPredictedLate;
    }
  }
  return server.try_submit_to(std::move(query), deadline, completions, tag)
             ? SubmitReject::kNone
             : SubmitReject::kQueueFull;
}

FleetStats Fleet::stats() const {
  FleetStats out;
  util::MetricsSnapshot total;
  for (const auto& shard : shards_) {
    const auto m = shard->server().metrics();
    out.shards.emplace_back(m);
    total += m;
  }
  out.total = serve::ServerStats(total);
  out.failovers = failovers_.value();
  out.shed_unrouteable = shed_unrouteable_.value();
  out.deadline_sheds = deadline_sheds_.value() + out.total.deadline_sheds;
  return out;
}

void Fleet::drain() {
  for (auto& shard : shards_) shard->server().drain();
}

void Fleet::shutdown() {
  for (auto& shard : shards_) shard->server().shutdown();
}

}  // namespace robusthd::fleet
