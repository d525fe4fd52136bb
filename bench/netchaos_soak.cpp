// NetChaos soak — live-fire *network* resilience of the serving fleet.
//
// Where bench/chaos_soak.cpp attacks the model's memory, this attacks
// the wire: a closed-loop client fleet drives a 2-shard Fleet + TCP
// Frontend through the NetChaos fault-injecting proxy, under memory
// chaos at the same time. Four phases:
//
//   1. baseline  — clean proxy (passthrough): the goodput and latency
//                  reference for the gates;
//   2. hedge A/B — a seeded latency tail (40ms on ~12% of chunks) is
//                  injected; the same load runs once without and once
//                  with hedged requests. Gate: hedging must cut the
//                  client-observed p99 to <= ROBUSTHD_NETCHAOS_HEDGE
//                  (default 0.8) of the unhedged run;
//   3. full chaos — delay + resets + silent drops + bit flips on the
//                  wire; at half-time one shard is blackholed
//                  (partitioned) AND every shard's model takes a
//                  Table-3/4 rate memory attack while the scrubbers
//                  repair. Gates: goodput >= ROBUSTHD_NETCHAOS_GOODPUT
//                  (default 0.25) x baseline; ZERO corrupted answers
//                  (every torn/flipped frame must die on a CRC, never
//                  parse); post-phase canary accuracy >= the offline
//                  Table-4 recovered floor - ROBUSTHD_NETCHAOS_TOL
//                  (default 0.10);
//   4. compat    — a legacy client (send_deadline=false, version-0
//                  frames) must get answers bit-identical to in-process
//                  Fleet::submit on the same queries.
//
// Emits one JSON line to stdout and BENCH_netchaos.json; exit 1 when
// any gate fails — CI runs this.
//
// Knobs: ROBUSTHD_SOAK_SECONDS (per phase, default 4), ROBUSTHD_NETCHAOS_DIM
// (default 2048), ROBUSTHD_NETCHAOS_RATE (memory attack rate, default 0.06),
// ROBUSTHD_NETCHAOS_CLIENTS (threads, default 4), plus the three gate knobs
// above.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "robusthd/fleet/client.hpp"
#include "robusthd/fleet/fleet.hpp"
#include "robusthd/fleet/frontend.hpp"
#include "robusthd/fleet/netchaos.hpp"
#include "robusthd/model/recovery.hpp"

namespace {

using namespace robusthd;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kClasses = 4;
constexpr std::size_t kShards = 2;

double env_double(const char* name, double fallback) {
  if (const char* v = std::getenv(name)) {
    const double parsed = std::atof(v);
    if (parsed > 0.0) return parsed;
  }
  return fallback;
}

struct World {
  std::vector<hv::BinVec> traffic;
  std::vector<int> traffic_labels;
  std::vector<hv::BinVec> canaries;
  std::vector<int> canary_labels;
  model::HdcModel model;
};

World make_world(std::size_t dim, std::uint64_t seed) {
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
    for (int i = 0; i < 24; ++i) {
      w.traffic.push_back(noisy(c));
      w.traffic_labels.push_back(static_cast<int>(c));
    }
    for (int i = 0; i < 12; ++i) {
      w.canaries.push_back(noisy(c));
      w.canary_labels.push_back(static_cast<int>(c));
    }
  }
  w.model = model::HdcModel::train(train, labels, kClasses, {});
  return w;
}

fleet::Fleet make_fleet(const World& w, bool recovery) {
  std::vector<model::HdcModel> models;
  fleet::FleetConfig config;
  for (std::size_t s = 0; s < kShards; ++s) {
    models.push_back(w.model);
    fleet::ShardConfig shard;
    shard.server.worker_threads = 2;
    shard.server.queue_capacity = 256;
    shard.server.enable_recovery = recovery;
    config.shards.push_back(std::move(shard));
  }
  return fleet::Fleet(std::move(models), std::move(config));
}

std::vector<std::string> default_groups() {
  return std::vector<std::string>(kShards, "default");
}

struct DriveResult {
  double seconds = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t corrupted = 0;  ///< ok responses carrying invalid data
  double goodput = 0.0;         ///< ok responses / second
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  fleet::Client::Counters counters;  ///< summed over client threads
};

/// Closed-loop load through `endpoints` for ~`seconds`. `mid` (if any)
/// runs on the driver thread at the phase midpoint — that is where the
/// partition and the memory attack land in phase 3 — and `late` at 75%,
/// where the partition heals. An ok response with an out-of-range
/// prediction or a non-finite/out-of-range confidence is corruption:
/// bytes that should have died on a CRC came back as data.
DriveResult drive(const std::vector<fleet::Endpoint>& endpoints,
                  const fleet::ClientConfig& client_config,
                  const World& world, std::size_t threads, double seconds,
                  const std::function<void()>& mid = nullptr,
                  const std::function<void()>& late = nullptr) {
  serve::LatencyHistogram latency;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> corrupted{0};
  std::vector<fleet::Client::Counters> per_thread(threads);

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      fleet::Client client(endpoints, default_groups(), client_config);
      std::uint64_t tenant = t;
      std::size_t q = t;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto begin = Clock::now();
        const auto r = client.predict(
            tenant, world.traffic[q % world.traffic.size()]);
        const auto end = Clock::now();
        tenant += threads;
        ++q;
        if (r.ok) {
          ok.fetch_add(1, std::memory_order_relaxed);
          latency.record(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                   begin)
                  .count()));
          const bool bad_prediction =
              r.predicted < -1 ||
              r.predicted >= static_cast<std::int32_t>(kClasses);
          const bool bad_confidence = !std::isfinite(r.confidence) ||
                                      r.confidence < 0.0 ||
                                      r.confidence > 1.0;
          if (bad_prediction || bad_confidence) {
            corrupted.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
      per_thread[t] = client.counters();
    });
  }

  const auto t0 = Clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 2.0));
  if (mid) mid();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 4.0));
  if (late) late();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 4.0));
  stop.store(true, std::memory_order_relaxed);
  for (auto& worker : workers) worker.join();
  const auto t1 = Clock::now();

  DriveResult result;
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.ok = ok.load();
  result.failed = failed.load();
  result.corrupted = corrupted.load();
  result.goodput = static_cast<double>(result.ok) / result.seconds;
  const auto summary = latency.summarize();
  result.p50_ms = summary.p50_ns / 1e6;
  result.p99_ms = summary.p99_ns / 1e6;
  for (const auto& c : per_thread) {
    result.counters.requests += c.requests;
    result.counters.responses += c.responses;
    result.counters.server_errors += c.server_errors;
    result.counters.transport_errors += c.transport_errors;
    result.counters.failovers += c.failovers;
    result.counters.reconnects += c.reconnects;
    result.counters.retries += c.retries;
    result.counters.retry_budget_exhausted += c.retry_budget_exhausted;
    result.counters.hedged_requests += c.hedged_requests;
    result.counters.hedge_wins += c.hedge_wins;
    result.counters.connect_timeouts += c.connect_timeouts;
  }
  return result;
}

std::vector<fleet::Endpoint> frontend_endpoints(
    const fleet::Frontend& frontend) {
  std::vector<fleet::Endpoint> out;
  for (const auto port : frontend.ports()) out.push_back({"127.0.0.1", port});
  return out;
}

/// Per-shard canary accuracy after the chaos phase; returns the worst
/// shard (both were attacked — the floor must hold everywhere).
double min_canary_accuracy(fleet::Fleet& fleet, const World& w) {
  double worst = 1.0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto responses = fleet.shard(s).server().predict_all(w.canaries);
    std::size_t scored = 0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (responses[i].abstained) continue;
      ++scored;
      if (responses[i].predicted == w.canary_labels[i]) ++correct;
    }
    const double acc =
        scored == 0
            ? 0.0
            : static_cast<double>(correct) / static_cast<double>(scored);
    worst = std::min(worst, acc);
  }
  return worst;
}

int run() {
  const double phase_seconds = env_double("ROBUSTHD_SOAK_SECONDS", 4.0);
  const std::size_t dim = bench::env_size("ROBUSTHD_NETCHAOS_DIM", 2048);
  const double attack_rate = env_double("ROBUSTHD_NETCHAOS_RATE", 0.06);
  const double tolerance = env_double("ROBUSTHD_NETCHAOS_TOL", 0.10);
  // Closed-loop goodput is latency-bound: injected delays inflate the
  // mean RTT, so under the storm a large drop is *expected arithmetic*,
  // not a failure. The gate catches collapse (a fleet that stops
  // answering), not latency inflation — the p99 rows cover that.
  const double goodput_gate = env_double("ROBUSTHD_NETCHAOS_GOODPUT", 0.05);
  const double hedge_gate = env_double("ROBUSTHD_NETCHAOS_HEDGE", 0.8);
  const std::size_t threads = bench::env_size("ROBUSTHD_NETCHAOS_CLIENTS", 4);

  bench::header("netchaos soak (wire faults + memory chaos vs the fleet)");
  std::cout << "dim=" << dim << " seconds/phase=" << phase_seconds
            << " clients=" << threads << " attack_rate=" << attack_rate
            << "\n";
  const auto world = make_world(dim, 0x5eedface);

  // ---- Phase 1: clean proxy baseline ------------------------------------
  DriveResult baseline;
  {
    auto fleet = make_fleet(world, /*recovery=*/true);
    fleet::Frontend frontend(fleet);
    frontend.start();
    fleet::NetChaos chaos(frontend_endpoints(frontend));
    chaos.start();
    fleet::ClientConfig cc;
    cc.retry.attempt_timeout = std::chrono::milliseconds(250);
    baseline = drive(chaos.endpoints(), cc, world, threads, phase_seconds);
    chaos.stop();
    frontend.stop();
    fleet.shutdown();
  }
  std::cout << "baseline: goodput=" << static_cast<std::uint64_t>(
                   baseline.goodput)
            << "/s p99=" << baseline.p99_ms << "ms\n";

  // ---- Phase 2: injected tail, hedged vs unhedged -----------------------
  DriveResult unhedged;
  DriveResult hedged;
  {
    fleet::NetChaosConfig tail;
    tail.seed = 0xdac22;
    tail.delay = std::chrono::milliseconds(40);
    tail.delay_jitter = std::chrono::milliseconds(20);
    tail.delay_rate = 0.12;

    fleet::ClientConfig cc;
    cc.response_timeout = std::chrono::milliseconds(2000);
    cc.retry.attempt_timeout = std::chrono::milliseconds(500);

    for (const bool hedge : {false, true}) {
      auto fleet = make_fleet(world, /*recovery=*/true);
      fleet::Frontend frontend(fleet);
      frontend.start();
      fleet::NetChaos chaos(frontend_endpoints(frontend), tail);
      chaos.start();
      auto config = cc;
      config.hedge.enabled = hedge;
      config.hedge.delay = std::chrono::milliseconds(10);
      (hedge ? hedged : unhedged) =
          drive(chaos.endpoints(), config, world, threads, phase_seconds);
      chaos.stop();
      frontend.stop();
      fleet.shutdown();
    }
  }
  const bool hedge_pass =
      unhedged.p99_ms <= 0.0 ||
      hedged.p99_ms <= hedge_gate * unhedged.p99_ms;
  std::cout << "tail: unhedged p99=" << unhedged.p99_ms
            << "ms hedged p99=" << hedged.p99_ms << "ms (hedges fired "
            << hedged.counters.hedged_requests << ", won "
            << hedged.counters.hedge_wins << ") "
            << (hedge_pass ? "PASS" : "FAIL") << "\n";

  // ---- Phase 3: full chaos ----------------------------------------------
  DriveResult chaos_result;
  double canary_accuracy = 0.0;
  std::uint64_t wire_flips = 0;
  std::uint64_t wire_resets = 0;
  std::uint64_t wire_drops = 0;
  std::uint64_t blackholed_chunks = 0;
  std::uint64_t frontend_protocol_errors = 0;
  std::uint64_t frontend_deadline_sheds = 0;
  std::uint64_t frontend_reaped = 0;
  {
    auto fleet = make_fleet(world, /*recovery=*/true);
    fleet::FrontendConfig fc;
    fc.read_deadline = std::chrono::milliseconds(500);
    fleet::Frontend frontend(fleet, fc);
    frontend.start();

    fleet::NetChaosConfig storm;
    storm.seed = 0xdac22;
    storm.delay = std::chrono::milliseconds(5);
    storm.delay_jitter = std::chrono::milliseconds(10);
    storm.delay_rate = 0.02;
    storm.reset_rate = 0.002;
    storm.drop_rate = 0.002;
    storm.flip_rate = 0.002;
    fleet::NetChaos chaos(frontend_endpoints(frontend), storm);
    chaos.start();

    fleet::ClientConfig cc;
    cc.response_timeout = std::chrono::milliseconds(600);
    cc.retry.attempt_timeout = std::chrono::milliseconds(150);
    cc.retry.initial_backoff = std::chrono::milliseconds(2);
    cc.retry.max_backoff = std::chrono::milliseconds(20);
    cc.hedge.enabled = true;
    cc.hedge.delay = std::chrono::milliseconds(10);
    cc.unhealthy_cooldown = std::chrono::milliseconds(100);

    chaos_result = drive(
        chaos.endpoints(), cc, world, threads, phase_seconds,
        [&] {
          // Half-time: partition shard 0 at the network AND wound every
          // shard's model memory — the recovery ladder and the retry /
          // failover / hedging machinery have to hold the fort
          // together. Every request hashed to shard 0 now survives only
          // because its hedge to the twin wins.
          chaos.set_blackholed(0, true);
          for (std::size_t s = 0; s < kShards; ++s) {
            fleet.shard(s).server().inject_faults(
                attack_rate, fault::AttackMode::kRandom, 0x5eed + s);
          }
        },
        [&] {
          // 75%: the partition heals; the last quarter shows goodput
          // recovering while the scrubbers keep repairing memory.
          chaos.set_blackholed(0, false);
        });

    fleet.drain();
    canary_accuracy = min_canary_accuracy(fleet, world);
    const auto wire = chaos.metrics();
    wire_flips = wire.counter("netchaos.bits_flipped");
    wire_resets = wire.counter("netchaos.resets_injected");
    wire_drops = wire.counter("netchaos.chunks_dropped");
    blackholed_chunks = wire.counter("netchaos.blackholed_chunks");
    const auto fcnt = frontend.counters();
    frontend_protocol_errors = fcnt.protocol_errors;
    frontend_deadline_sheds = fcnt.deadline_sheds;
    frontend_reaped = fcnt.reaped_connections;
    chaos.stop();
    frontend.stop();
    fleet.shutdown();
  }

  // Offline Table-4 reference at the matched attack rate.
  double offline_recovered = 0.0;
  {
    model::HdcModel victim = world.model;
    util::Xoshiro256 rng(0xdac22);
    auto regions = victim.memory_regions();
    fault::BitFlipInjector::inject(regions, attack_rate,
                                   fault::AttackMode::kRandom, rng);
    serve::ServerConfig reference_config;
    model::RecoveryEngine engine(victim,
                                 reference_config.scrubber.recovery);
    for (int epoch = 0; epoch < 10; ++epoch) {
      for (const auto& q : world.traffic) engine.observe(q);
    }
    offline_recovered = victim.evaluate(world.canaries, world.canary_labels);
  }

  const double canary_floor = offline_recovered - tolerance;
  const bool canary_pass = canary_accuracy >= canary_floor;
  const bool goodput_pass =
      chaos_result.goodput >= goodput_gate * baseline.goodput;
  const bool corruption_pass = chaos_result.corrupted == 0 &&
                               baseline.corrupted == 0 &&
                               unhedged.corrupted == 0 &&
                               hedged.corrupted == 0;

  std::cout << "chaos: goodput=" << static_cast<std::uint64_t>(
                   chaos_result.goodput)
            << "/s (" << util::fixed(
                   baseline.goodput > 0.0
                       ? chaos_result.goodput / baseline.goodput
                       : 0.0,
                   3)
            << "x baseline, gate " << goodput_gate << "x) "
            << (goodput_pass ? "PASS" : "FAIL") << "\n";
  std::cout << "chaos: corrupted answers=" << chaos_result.corrupted
            << " (wire flips=" << wire_flips
            << ", frontend protocol errors=" << frontend_protocol_errors
            << ") " << (corruption_pass ? "PASS" : "FAIL") << "\n";
  std::cout << "chaos: canary accuracy=" << util::fixed(canary_accuracy, 4)
            << " vs offline recovered " << util::fixed(offline_recovered, 4)
            << " - tol " << tolerance << " "
            << (canary_pass ? "PASS" : "FAIL") << "\n";

  // ---- Phase 4: legacy version-0 client compat --------------------------
  bool compat_pass = true;
  {
    auto fleet = make_fleet(world, /*recovery=*/false);
    fleet::Frontend frontend(fleet);
    frontend.start();
    fleet::ClientConfig cc;
    cc.send_deadline = false;  // byte-identical legacy frames
    fleet::Client legacy(frontend_endpoints(frontend), default_groups(), cc);
    for (std::size_t i = 0; i < world.canaries.size(); ++i) {
      const auto over_wire = legacy.predict(i, world.canaries[i]);
      const auto direct = fleet.submit(i, world.canaries[i]).get();
      if (!over_wire.ok ||
          over_wire.predicted != direct.predicted ||
          std::bit_cast<std::uint64_t>(over_wire.confidence) !=
              std::bit_cast<std::uint64_t>(direct.confidence)) {
        compat_pass = false;
      }
    }
    frontend.stop();
    fleet.shutdown();
  }
  std::cout << "compat: legacy v0 client "
            << (compat_pass ? "PASS" : "FAIL") << "\n";

  const bool gate_pass = hedge_pass && goodput_pass && corruption_pass &&
                         canary_pass && compat_pass;

  util::TextTable table({"metric", "baseline", "tail", "chaos"});
  table.add_row({"goodput (ok/s)", util::fixed(baseline.goodput, 1),
                 util::fixed(unhedged.goodput, 1),
                 util::fixed(chaos_result.goodput, 1)});
  table.add_row({"p99 (ms)", util::fixed(baseline.p99_ms, 2),
                 util::fixed(unhedged.p99_ms, 2) + " -> " +
                     util::fixed(hedged.p99_ms, 2),
                 util::fixed(chaos_result.p99_ms, 2)});
  table.add_row({"failed requests", std::to_string(baseline.failed),
                 std::to_string(unhedged.failed + hedged.failed),
                 std::to_string(chaos_result.failed)});
  table.add_row({"retries", std::to_string(baseline.counters.retries),
                 std::to_string(hedged.counters.retries),
                 std::to_string(chaos_result.counters.retries)});
  table.add_row({"hedges fired / won", "-",
                 std::to_string(hedged.counters.hedged_requests) + " / " +
                     std::to_string(hedged.counters.hedge_wins),
                 std::to_string(chaos_result.counters.hedged_requests) +
                     " / " +
                     std::to_string(chaos_result.counters.hedge_wins)});
  table.add_row({"corrupted answers", std::to_string(baseline.corrupted),
                 std::to_string(unhedged.corrupted + hedged.corrupted),
                 std::to_string(chaos_result.corrupted)});
  table.print(std::cout);

  std::ostringstream json;
  json << "{\"bench\":\"netchaos_soak\""
       << ",\"dim\":" << dim
       << ",\"phase_seconds\":" << phase_seconds
       << ",\"clients\":" << threads
       << ",\"attack_rate\":" << attack_rate
       << ",\"goodput_baseline\":" << baseline.goodput
       << ",\"goodput_chaos\":" << chaos_result.goodput
       << ",\"goodput_fraction\":"
       << (baseline.goodput > 0.0 ? chaos_result.goodput / baseline.goodput
                                  : 0.0)
       << ",\"goodput_gate\":" << goodput_gate
       << ",\"p99_baseline_ms\":" << baseline.p99_ms
       << ",\"p99_unhedged_ms\":" << unhedged.p99_ms
       << ",\"p99_hedged_ms\":" << hedged.p99_ms
       << ",\"hedge_gate\":" << hedge_gate
       << ",\"hedges_fired\":" << hedged.counters.hedged_requests
       << ",\"hedge_wins\":" << hedged.counters.hedge_wins
       << ",\"chaos_retries\":" << chaos_result.counters.retries
       << ",\"chaos_transport_errors\":"
       << chaos_result.counters.transport_errors
       << ",\"chaos_failed\":" << chaos_result.failed
       << ",\"corrupted_answers\":" << chaos_result.corrupted
       << ",\"wire_bits_flipped\":" << wire_flips
       << ",\"wire_resets\":" << wire_resets
       << ",\"wire_drops\":" << wire_drops
       << ",\"blackholed_chunks\":" << blackholed_chunks
       << ",\"frontend_protocol_errors\":" << frontend_protocol_errors
       << ",\"frontend_deadline_sheds\":" << frontend_deadline_sheds
       << ",\"frontend_reaped_connections\":" << frontend_reaped
       << ",\"canary_accuracy\":" << canary_accuracy
       << ",\"offline_recovered_accuracy\":" << offline_recovered
       << ",\"tolerance\":" << tolerance
       << ",\"gate_hedge\":" << (hedge_pass ? "true" : "false")
       << ",\"gate_goodput\":" << (goodput_pass ? "true" : "false")
       << ",\"gate_corruption\":" << (corruption_pass ? "true" : "false")
       << ",\"gate_canary\":" << (canary_pass ? "true" : "false")
       << ",\"gate_compat\":" << (compat_pass ? "true" : "false")
       << ",\"gate_pass\":" << (gate_pass ? "true" : "false") << "}";
  std::cout << json.str() << "\n";
  std::ofstream("BENCH_netchaos.json") << json.str() << "\n";

  if (!gate_pass) {
    std::cerr << "netchaos_soak gate FAILED:"
              << (hedge_pass ? "" : " hedge-p99")
              << (goodput_pass ? "" : " goodput")
              << (corruption_pass ? "" : " corruption")
              << (canary_pass ? "" : " canary-accuracy")
              << (compat_pass ? "" : " legacy-compat") << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main() { return run(); }
