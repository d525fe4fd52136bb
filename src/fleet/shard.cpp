#include "robusthd/fleet/shard.hpp"

#include <utility>

#include "robusthd/persist/recover.hpp"

namespace robusthd::fleet {

Shard::Shard(std::size_t index, model::HdcModel model, ShardConfig config)
    : index_(index), model_id_(std::move(config.model_id)) {
  if (!config.cpus.empty()) {
    config.server.cpu_affinity = config.cpus;
  }
  // A shard with durable state resumes it in preference to the seed
  // model: the WAL carries repairs the seed predates. Dimension safety
  // holds because a recovered dimension mismatch throws out of reload
  // semantics at the Fleet level (all shards are checked against shard 0
  // before construction) — a mismatched persist dir is a config error
  // and surfaces as the recover() exception.
  const std::string& dir = config.server.persist.dir;
  if (!dir.empty() && persist::has_state(dir)) {
    server_ = serve::Server::recover(dir, config.server);
  } else {
    server_ = std::make_unique<serve::Server>(std::move(model), config.server);
  }
}

}  // namespace robusthd::fleet
