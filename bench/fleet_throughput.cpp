// Closed-loop fleet load generator: for each shard count N it stands up
// a Fleet + TCP Frontend on loopback, drives it with blocking Clients
// (one per load thread, each its own sockets), injects faults mid-run so
// the per-shard scrubbers have real repair work, and reports aggregate
// QPS, p50/p99 latency and per-shard recovery counters.
//
// Emits one JSON line to stdout and BENCH_fleet.json, and *enforces* the
// scaling gate: efficiency at the largest shard count must be at least
// ROBUSTHD_FLEET_GATE (default 0.70) or the process exits nonzero — this
// is the CI tripwire against serialization creeping into the fleet path.
//
// The sweep is weak scaling: offered load grows with the fleet
// (ROBUSTHD_FLEET_CLIENTS closed-loop client threads per shard), and
// efficiency is normalised core-aware:
//
//   efficiency(N) = QPS(N) / (min(N, hardware cores) x QPS(1))
//
// On a multicore box this is the standard weak-scaling fraction: N
// shards under N x the per-shard load should deliver N x the
// throughput until the cores run out. On a single-core box
// min(N, cores) == 1 and the gate degenerates into an overhead gate:
// growing the fleet (and its offered load) must never cost more than
// 30% of single-shard throughput. Both readings trip on the same
// regression class — locks or hot shared state on the per-request path.
//
// Knobs (environment):
//   ROBUSTHD_FLEET_SHARDS   comma list of shard counts   (default 1,2,4,8)
//   ROBUSTHD_FLEET_SECONDS  measured seconds per point   (default 2)
//   ROBUSTHD_FLEET_CLIENTS  client threads per shard     (default 2)
//   ROBUSTHD_FLEET_DIM      hypervector dimension        (default 2048)
//   ROBUSTHD_FLEET_RATE     mid-run bit-flip rate        (default 0.05)
//   ROBUSTHD_FLEET_RECOVERY 0 disables the scrubbers     (default 1)
//   ROBUSTHD_FLEET_GATE     efficiency floor, 0 disables (default 0.70)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "robusthd/fleet/client.hpp"
#include "robusthd/fleet/fleet.hpp"
#include "robusthd/fleet/frontend.hpp"

namespace {

using namespace robusthd;
using Clock = std::chrono::steady_clock;

double env_double(const char* name, double fallback) {
  if (const char* v = std::getenv(name)) {
    const double parsed = std::atof(v);
    if (parsed >= 0.0) return parsed;
  }
  return fallback;
}

std::vector<std::size_t> env_shard_counts() {
  std::vector<std::size_t> counts;
  if (const char* v = std::getenv("ROBUSTHD_FLEET_SHARDS")) {
    std::stringstream ss(v);
    std::string item;
    while (std::getline(ss, item, ',')) {
      const long long parsed = std::atoll(item.c_str());
      if (parsed > 0) counts.push_back(static_cast<std::size_t>(parsed));
    }
  }
  if (counts.empty()) counts = {1, 2, 4, 8};
  return counts;
}

struct World {
  std::vector<hv::BinVec> queries;
  model::HdcModel model;
};

World make_world(std::size_t dim, std::uint64_t seed) {
  constexpr std::size_t kClasses = 4;
  World w;
  util::Xoshiro256 rng(seed);
  std::vector<hv::BinVec> prototypes;
  std::vector<hv::BinVec> train;
  std::vector<int> labels;
  for (std::size_t c = 0; c < kClasses; ++c) {
    prototypes.push_back(hv::BinVec::random(dim, rng));
  }
  auto noisy = [&](std::size_t c) {
    auto v = prototypes[c];
    for (std::size_t d = 0; d < dim; ++d) {
      if (rng.bernoulli(0.04)) v.flip(d);
    }
    return v;
  };
  for (std::size_t c = 0; c < kClasses; ++c) {
    for (int i = 0; i < 15; ++i) {
      train.push_back(noisy(c));
      labels.push_back(static_cast<int>(c));
    }
    for (int i = 0; i < 16; ++i) w.queries.push_back(noisy(c));
  }
  w.model = model::HdcModel::train(train, labels, kClasses, {});
  return w;
}

struct PointResult {
  std::size_t shards = 0;
  std::size_t clients = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t responses = 0;
  std::uint64_t client_failovers = 0;
  std::uint64_t transport_errors = 0;
  fleet::FleetStats fleet_stats;
};

PointResult run_point(const World& world, std::size_t shards,
                      std::size_t clients, double seconds,
                      double fault_rate, bool recovery) {
  std::vector<model::HdcModel> models;
  fleet::FleetConfig config;
  for (std::size_t s = 0; s < shards; ++s) {
    models.push_back(world.model);
    fleet::ShardConfig shard;
    shard.server.worker_threads = 1;  // scaling comes from shard count
    shard.server.queue_capacity = 256;
    shard.server.enable_recovery = recovery;
    config.shards.push_back(std::move(shard));
  }
  fleet::Fleet fleet(std::move(models), std::move(config));
  fleet::Frontend frontend(fleet);
  frontend.start();

  std::vector<fleet::Endpoint> endpoints;
  std::vector<std::string> groups;
  for (const auto port : frontend.ports()) {
    endpoints.push_back({"127.0.0.1", port});
    groups.push_back("default");
  }

  serve::LatencyHistogram latency;  // lock-free, shared across threads
  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> responses{0};
  std::atomic<std::uint64_t> client_failovers{0};
  std::atomic<std::uint64_t> transport_errors{0};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      fleet::Client client(endpoints, groups);
      std::uint64_t tenant = t;  // stride over threads covers every shard
      std::size_t q = t;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto begin = Clock::now();
        const auto r =
            client.predict(tenant, world.queries[q % world.queries.size()]);
        const auto end = Clock::now();
        tenant += clients;
        ++q;
        if (!measuring.load(std::memory_order_relaxed)) continue;
        if (r.ok) {
          responses.fetch_add(1, std::memory_order_relaxed);
          latency.record(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                   begin)
                  .count()));
          if (r.failover) {
            client_failovers.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (r.error == fleet::wire::ErrorCode::kNone) {
          transport_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Warmup (connections, caches, first batches), then measure.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  measuring.store(true, std::memory_order_relaxed);
  const auto t0 = Clock::now();

  // Half-way through, wound every shard: the remainder of the window runs
  // with the scrubbers actively repairing, so the reported QPS includes
  // recovery overhead and the per-shard repair counters are live.
  std::this_thread::sleep_for(
      std::chrono::duration<double>(seconds / 2.0));
  for (std::size_t s = 0; s < shards; ++s) {
    fleet.shard(s).server().inject_faults(
        fault_rate, fault::AttackMode::kRandom, 0x5eed + s);
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(seconds / 2.0));

  const auto t1 = Clock::now();
  measuring.store(false, std::memory_order_relaxed);
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : threads) thread.join();

  PointResult r;
  r.shards = shards;
  r.clients = clients;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.responses = responses.load();
  r.qps = static_cast<double>(r.responses) / r.seconds;
  const auto summary = latency.summarize();
  r.p50_ms = summary.p50_ns / 1e6;
  r.p99_ms = summary.p99_ns / 1e6;
  r.client_failovers = client_failovers.load();
  r.transport_errors = transport_errors.load();

  fleet.drain();  // let the scrubbers finish the injected repair work
  r.fleet_stats = fleet.stats();
  frontend.stop();
  fleet.shutdown();
  return r;
}

}  // namespace

int main() {
  const auto shard_counts = env_shard_counts();
  const double seconds = env_double("ROBUSTHD_FLEET_SECONDS", 2.0);
  const std::size_t dim = bench::env_size("ROBUSTHD_FLEET_DIM", 2048);
  const double gate = env_double("ROBUSTHD_FLEET_GATE", 0.70);
  const double fault_rate = env_double("ROBUSTHD_FLEET_RATE", 0.05);
  const bool recovery = env_double("ROBUSTHD_FLEET_RECOVERY", 1.0) != 0.0;
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t clients_per_shard =
      bench::env_size("ROBUSTHD_FLEET_CLIENTS", 2);

  bench::header("fleet_throughput (loopback TCP, closed loop)");
  std::cout << "dim=" << dim << " seconds/point=" << seconds
            << " clients/shard=" << clients_per_shard << " cores=" << cores
            << " gate=" << gate << "\n";

  const auto world = make_world(dim, 0x5eed);

  std::vector<PointResult> points;
  double qps1 = 0.0;
  for (const auto shards : shard_counts) {
    auto point = run_point(world, shards, clients_per_shard * shards,
                           seconds, fault_rate, recovery);
    if (point.shards == 1) qps1 = point.qps;
    points.push_back(std::move(point));
    const auto& r = points.back();
    std::cout << "shards=" << r.shards << " clients=" << r.clients
              << " qps=" << static_cast<std::uint64_t>(r.qps)
              << " p50=" << r.p50_ms << "ms p99=" << r.p99_ms << "ms"
              << " repairs=" << r.fleet_stats.total.scrub_repairs
              << " degraded=" << r.fleet_stats.total.degraded_responses
              << " abstained=" << r.fleet_stats.total.abstained_responses
              << "\n";
  }

  // Core-aware efficiency per point, relative to the 1-shard baseline.
  auto efficiency = [&](const PointResult& r) {
    if (qps1 <= 0.0) return 0.0;
    const double ideal =
        static_cast<double>(std::min(r.shards, cores)) * qps1;
    return r.qps / ideal;
  };

  std::ostringstream json;
  json << "{\"bench\":\"fleet_throughput\",\"dim\":" << dim
       << ",\"seconds_per_point\":" << seconds << ",\"cores\":" << cores
       << ",\"gate\":" << gate << ",\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& r = points[i];
    if (i) json << ",";
    json << "{\"shards\":" << r.shards << ",\"clients\":" << r.clients
         << ",\"seconds\":" << r.seconds << ",\"qps\":" << r.qps
         << ",\"p50_ms\":" << r.p50_ms << ",\"p99_ms\":" << r.p99_ms
         << ",\"responses\":" << r.responses
         << ",\"client_failovers\":" << r.client_failovers
         << ",\"transport_errors\":" << r.transport_errors
         << ",\"efficiency\":" << efficiency(r)
         << ",\"server_failovers\":" << r.fleet_stats.failovers
         << ",\"per_shard\":[";
    for (std::size_t s = 0; s < r.fleet_stats.shards.size(); ++s) {
      const auto& sh = r.fleet_stats.shards[s];
      if (s) json << ",";
      json << "{\"completed\":" << sh.completed
           << ",\"rejected\":" << sh.rejected
           << ",\"scrub_repairs\":" << sh.scrub_repairs
           << ",\"scrub_substituted_bits\":" << sh.scrub_substituted_bits
           << ",\"faults_injected\":" << sh.faults_injected
           << ",\"quarantined_chunks\":" << sh.quarantined_chunks
           << ",\"degraded\":" << sh.degraded_responses
           << ",\"abstained\":" << sh.abstained_responses
           << ",\"breaker_trips\":" << sh.breaker_trips
           << ",\"p99_ms\":" << sh.end_to_end.p99_ns / 1e6 << "}";
    }
    json << "]}";
  }

  const auto& last = points.back();
  const double last_eff = efficiency(last);
  const bool gate_enabled = gate > 0.0 && last.shards > 1 && qps1 > 0.0;
  const bool gate_pass = !gate_enabled || last_eff >= gate;
  json << "],\"max_shards\":" << last.shards
       << ",\"max_shards_efficiency\":" << last_eff
       << ",\"gate_enabled\":" << (gate_enabled ? "true" : "false")
       << ",\"gate_pass\":" << (gate_pass ? "true" : "false") << "}";

  std::cout << json.str() << "\n";
  std::ofstream("BENCH_fleet.json") << json.str() << "\n";

  if (!gate_pass) {
    std::cerr << "FAIL: scaling efficiency " << last_eff << " at "
              << last.shards << " shards is below the " << gate
              << " gate\n";
    return 1;
  }
  return 0;
}
