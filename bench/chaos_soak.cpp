// Chaos soak — live-fire resilience of the serving runtime.
//
// Two phases over the same trained model and traffic:
//
//   1. baseline  — serve with recovery + sentinel on, no chaos: the
//                  latency and accuracy reference;
//   2. chaos     — identical server with the ChaosAgent driving a
//                  StreamAttacker-style campaign against the live model
//                  while the scrubber repairs, the sentinel quarantines,
//                  and traffic keeps flowing.
//
// The gate compares the steady-state canary accuracy under live attack +
// recovery against the *offline* Table-4 protocol at the matched attack
// rate (damage a quiet copy, run the RecoveryEngine over the same query
// stream): the serving stack must hold what the offline experiment holds,
// minus a tolerance. Exit code 1 when the gate fails — CI runs this.
//
// Emits one JSON line to stdout and BENCH_chaos.json.
//
// Knobs: ROBUSTHD_CHAOS_RATE (fraction of stored bits, default 0.06 — a
// Table-3/4 attack rate), ROBUSTHD_SOAK_SECONDS (per phase, default 5),
// ROBUSTHD_CHAOS_TOL (accuracy tolerance, default 0.10), ROBUSTHD_WORKERS,
// plus the usual ROBUSTHD_TRAIN / ROBUSTHD_TEST caps.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <tuple>
#include <vector>

#include "bench_common.hpp"

namespace robusthd {
namespace {

double env_double(const char* name, double fallback) {
  if (const char* v = std::getenv(name)) {
    const double parsed = std::atof(v);
    if (parsed > 0.0) return parsed;
  }
  return fallback;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct PhaseResult {
  double qps = 0.0;
  double traffic_accuracy = 0.0;  ///< over non-abstained responses
  serve::ServerStats stats{};
};

/// Drives predict_all passes over `queries` for ~`seconds`, tallying
/// accuracy on the responses that carried a prediction. The stats are the
/// phase's: the server's metrics after it, less those before it.
PhaseResult soak(serve::Server& server,
                 const std::vector<hv::BinVec>& queries,
                 const std::vector<int>& labels, double seconds) {
  PhaseResult result;
  const auto before = server.metrics();
  std::size_t answered = 0;
  std::size_t correct = 0;
  std::size_t scored = 0;
  const auto start = std::chrono::steady_clock::now();
  while (seconds_since(start) < seconds) {
    const auto responses = server.predict_all(queries);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      ++answered;
      if (responses[i].abstained) continue;
      ++scored;
      if (responses[i].predicted == labels[i]) ++correct;
    }
  }
  const double elapsed = seconds_since(start);
  server.drain();
  result.qps = static_cast<double>(answered) / elapsed;
  result.traffic_accuracy =
      scored == 0 ? 0.0
                  : static_cast<double>(correct) /
                        static_cast<double>(scored);
  result.stats = serve::ServerStats(server.metrics() - before);
  return result;
}

int run() {
  const double rate = env_double("ROBUSTHD_CHAOS_RATE", 0.06);
  const double phase_seconds = env_double("ROBUSTHD_SOAK_SECONDS", 5.0);
  const double tolerance = env_double("ROBUSTHD_CHAOS_TOL", 0.10);
  const std::size_t workers = bench::env_size("ROBUSTHD_WORKERS", 4);

  bench::header("chaos soak (live-fire attack vs serving recovery ladder)");
  const auto split = bench::load("PAMAP");
  hv::EncoderConfig encoder_config;
  encoder_config.dimension = 4000;
  const hv::RecordEncoder encoder(split.train.feature_count(),
                                  encoder_config);
  const auto train = encoder.encode_all(split.train);
  const auto all_queries = encoder.encode_all(split.test);
  const auto trained = model::HdcModel::train(
      train, split.train.labels, split.train.num_classes, {});

  // Hold out canaries for the sentinel; the rest is client traffic.
  const std::size_t canary_count =
      std::min<std::size_t>(150, all_queries.size() / 3);
  std::vector<hv::BinVec> canaries(all_queries.begin(),
                                   all_queries.begin() + canary_count);
  std::vector<int> canary_labels(split.test.labels.begin(),
                                 split.test.labels.begin() + canary_count);
  std::vector<hv::BinVec> traffic(all_queries.begin() + canary_count,
                                  all_queries.end());
  std::vector<int> traffic_labels(split.test.labels.begin() + canary_count,
                                  split.test.labels.end());

  serve::ServerConfig config;
  config.worker_threads = workers;
  config.max_batch = 16;
  config.enable_recovery = true;
  config.sentinel.enabled = true;
  config.sentinel.period = std::chrono::milliseconds(10);
  config.sentinel.chunks = config.scrubber.recovery.chunks;
  config.canaries = canaries;
  config.canary_labels = canary_labels;

  // ---- Phase 1: no chaos ------------------------------------------------
  PhaseResult baseline;
  {
    serve::Server server(trained, config);
    baseline = soak(server, traffic, traffic_labels, phase_seconds);
    server.shutdown();
  }

  // ---- Phase 2: chaos campaign while serving ----------------------------
  auto chaos_config = config;
  chaos_config.chaos.enabled = true;
  chaos_config.chaos.rate = rate;
  chaos_config.chaos.mode = fault::AttackMode::kRandom;
  // Spend the campaign budget over the first ~60% of the phase so the
  // tail of the soak measures the recovered steady state.
  chaos_config.chaos.steps_to_full = 250;
  chaos_config.chaos.period = std::chrono::microseconds(
      static_cast<long>(phase_seconds * 0.6 * 1e6 / 250.0));

  PhaseResult chaos;
  double canary_accuracy = 0.0;
  {
    serve::Server server(trained, chaos_config);
    // Warm the batch/encode paths; the soak measures from there.
    std::ignore = server.predict_all(
        std::span<const hv::BinVec>(traffic.data(),
                                    std::min<std::size_t>(64, traffic.size())));
    server.drain();
    chaos = soak(server, traffic, traffic_labels, phase_seconds);
    canary_accuracy = chaos.stats.canary_accuracy;
    server.shutdown();
  }

  // ---- Offline reference: Table-4 protocol at the matched rate ----------
  const double clean_accuracy =
      trained.evaluate(traffic, traffic_labels);
  double offline_recovered = 0.0;
  {
    model::HdcModel victim = trained;
    util::Xoshiro256 rng(0xdac22);
    auto regions = victim.memory_regions();
    fault::BitFlipInjector::inject(regions, rate,
                                   fault::AttackMode::kRandom, rng);
    model::RecoveryEngine engine(victim, config.scrubber.recovery);
    for (int epoch = 0; epoch < 10; ++epoch) {
      for (const auto& q : traffic) engine.observe(q);
    }
    offline_recovered = victim.evaluate(traffic, traffic_labels);
  }

  const double gate_floor = offline_recovered - tolerance;
  const bool gate_pass = canary_accuracy >= gate_floor;
  const double p99_base_ms = baseline.stats.end_to_end.p99_ns / 1e6;
  const double p99_chaos_ms = chaos.stats.end_to_end.p99_ns / 1e6;
  const double repairs_per_sec =
      static_cast<double>(chaos.stats.scrub_repairs) / phase_seconds;

  util::TextTable table({"metric", "baseline", "chaos"});
  table.add_row({"qps", util::fixed(baseline.qps, 1),
                 util::fixed(chaos.qps, 1)});
  table.add_row({"p99 latency (ms)", util::fixed(p99_base_ms, 3),
                 util::fixed(p99_chaos_ms, 3)});
  table.add_row({"traffic accuracy",
                 util::fixed(baseline.traffic_accuracy, 4),
                 util::fixed(chaos.traffic_accuracy, 4)});
  table.add_row({"canary accuracy (effective)",
                 util::fixed(baseline.stats.canary_accuracy, 4),
                 util::fixed(canary_accuracy, 4)});
  table.add_row({"chaos flips", "0",
                 std::to_string(chaos.stats.chaos_flips)});
  table.add_row({"repairs/sec", "-", util::fixed(repairs_per_sec, 1)});
  table.add_row({"quarantined chunks (final)", "0",
                 std::to_string(chaos.stats.quarantined_chunks)});
  table.add_row({"degraded responses", "0",
                 std::to_string(chaos.stats.degraded_responses)});
  table.add_row({"abstained responses", "0",
                 std::to_string(chaos.stats.abstained_responses)});
  table.add_row({"breaker trips", "0",
                 std::to_string(chaos.stats.breaker_trips)});
  table.add_row({"offline recovered accuracy",
                 util::fixed(offline_recovered, 4), "-"});
  table.add_row({"gate floor (offline - tol)",
                 util::fixed(gate_floor, 4),
                 gate_pass ? "PASS" : "FAIL"});
  table.print(std::cout);

  std::ostringstream json;
  json << "{\"bench\":\"chaos_soak\""
       << ",\"rate\":" << rate
       << ",\"phase_seconds\":" << phase_seconds
       << ",\"workers\":" << workers
       << ",\"clean_accuracy\":" << clean_accuracy
       << ",\"qps_baseline\":" << baseline.qps
       << ",\"qps_chaos\":" << chaos.qps
       << ",\"p99_baseline_ms\":" << p99_base_ms
       << ",\"p99_chaos_ms\":" << p99_chaos_ms
       << ",\"p99_delta_ms\":" << p99_chaos_ms - p99_base_ms
       << ",\"traffic_accuracy_baseline\":" << baseline.traffic_accuracy
       << ",\"traffic_accuracy_chaos\":" << chaos.traffic_accuracy
       << ",\"canary_accuracy\":" << canary_accuracy
       << ",\"offline_recovered_accuracy\":" << offline_recovered
       << ",\"tolerance\":" << tolerance
       << ",\"chaos_ticks\":" << chaos.stats.chaos_ticks
       << ",\"chaos_flips\":" << chaos.stats.chaos_flips
       << ",\"repairs_per_sec\":" << repairs_per_sec
       << ",\"substituted_bits\":" << chaos.stats.scrub_substituted_bits
       << ",\"canary_runs\":" << chaos.stats.canary_runs
       << ",\"quarantined_chunks\":" << chaos.stats.quarantined_chunks
       << ",\"priority_marks\":" << chaos.stats.priority_marks
       << ",\"degraded_responses\":" << chaos.stats.degraded_responses
       << ",\"abstained_responses\":" << chaos.stats.abstained_responses
       << ",\"breaker_trips\":" << chaos.stats.breaker_trips
       << ",\"reload_retries\":" << chaos.stats.reload_retries
       << ",\"gate_pass\":" << (gate_pass ? "true" : "false") << "}";
  std::cout << json.str() << "\n";
  std::ofstream("BENCH_chaos.json") << json.str() << "\n";

  if (!gate_pass) {
    std::cerr << "chaos_soak gate FAILED: canary accuracy "
              << canary_accuracy << " < offline recovered "
              << offline_recovered << " - tolerance " << tolerance << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace robusthd

int main() { return robusthd::run(); }
