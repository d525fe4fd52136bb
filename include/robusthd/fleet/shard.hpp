#pragma once
// robusthd::fleet::Shard — one self-healing serving cell.
//
// A shard is a serve::Server (worker pool + scrubber + sentinel +
// optional chaos agent) plus the fleet-level identity the router needs:
// a stable index, a model group id (failover is confined to shards in
// the same group, i.e. serving the same model), and an optional core
// set the shard's worker threads are pinned to. Every shard scrubs and
// quarantines independently — damage to one tenant's shard never stalls
// or degrades another shard's traffic, which is the whole point of
// partitioning the associative memory.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "robusthd/model/hdc_model.hpp"
#include "robusthd/serve/server.hpp"

namespace robusthd::fleet {

struct ShardConfig {
  /// Tuning for the shard's serve::Server (workers, queue, scrubber,
  /// sentinel, canaries...). ShardConfig::cpus, when non-empty, is
  /// copied over server.cpu_affinity.
  serve::ServerConfig server;
  /// Model group id. Shards with equal ids serve the same model and can
  /// take over each other's tenants.
  std::string model_id = "default";
  /// Core ids for this shard's workers (NUMA/core pinning knob).
  std::vector<int> cpus;
};

class Shard {
 public:
  /// When config.server.persist.dir names a directory that already holds
  /// persisted state, the shard recovers from it (replacing `model`, which
  /// only seeded the first run); otherwise `model` is served fresh and —
  /// with a non-empty dir — becomes the new base checkpoint.
  Shard(std::size_t index, model::HdcModel model, ShardConfig config);

  std::size_t index() const noexcept { return index_; }
  const std::string& model_id() const noexcept { return model_id_; }

  serve::Server& server() noexcept { return *server_; }
  const serve::Server& server() const noexcept { return *server_; }

  /// Router health probe: false while the shard's breaker is open.
  bool healthy() const noexcept { return !server_->breaker_open(); }

 private:
  std::size_t index_;
  std::string model_id_;
  std::unique_ptr<serve::Server> server_;
};

}  // namespace robusthd::fleet
