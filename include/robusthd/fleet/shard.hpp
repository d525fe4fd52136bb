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

/// Per-shard counter snapshot surfaced into FleetStats.
struct ShardStats {
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t scrub_repairs = 0;
  std::uint64_t scrub_substituted_bits = 0;
  std::uint64_t faults_injected = 0;
  std::size_t quarantined_chunks = 0;
  std::uint64_t degraded_responses = 0;
  std::uint64_t abstained_responses = 0;
  std::uint64_t deadline_sheds = 0;  ///< expired in-queue, shed unscored
  std::uint64_t breaker_trips = 0;
  bool breaker_open = false;
  double canary_accuracy = 0.0;
  std::uint64_t model_version = 0;
  double p99_ms = 0.0;  ///< shard-local end-to-end p99
  /// Plane-arena footprint of this shard's live snapshot in bytes and
  /// whether the kernel granted the hugepage request — the per-shard
  /// NUMA/THP placement signal.
  std::size_t arena_bytes = 0;
  bool arena_hugepage = false;
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

  ShardStats stats() const;

 private:
  std::size_t index_;
  std::string model_id_;
  std::unique_ptr<serve::Server> server_;
};

}  // namespace robusthd::fleet
