// Adversarial attack campaign — input-space attacks vs the serving stack.
//
// Four measurements over one trained model:
//
//   1. bit-flip curve  — greedy leverage-ranked bit flips on encoded
//                        queries: attack success rate vs Hamming budget,
//                        raw and "confident" (the flip also clears the
//                        serving trust threshold — what survives the
//                        abstention defense);
//   2. genetic curve   — feature-space genetic/boundary search through
//                        the encoder: success rate vs L-infinity budget;
//   3. undefended poison — a PoisonCampaign streams high-confidence
//                        adversarial queries at a live server whose trust
//                        gate runs in shadow mode: measures how many
//                        wrong bits the recovery engine substitutes when
//                        confidence is the only admission check;
//   4. defended poison — the same campaign against an enforcing gate,
//                        while a ChaosAgent drives a Table-4-rate memory
//                        attack and natural traffic keeps the scrubber
//                        fed: the self-healing loop must keep recovering
//                        real damage while rejecting the poison.
//
// The gate (CI runs this): the undefended run must show measurable
// poisoning (wrong bits > 0 — the attack is real), and the defended run
// must hold live canary accuracy >= the offline Table-4 recovered
// accuracy at the matched rate minus a tolerance (the defense does not
// cost recovery). Exit code 1 otherwise.
//
// Emits one JSON line to stdout and BENCH_adversarial.json.
//
// Knobs: ROBUSTHD_ADV_RATE (memory-attack rate for the defended phase,
// default 0.06), ROBUSTHD_ADV_SECONDS (defended soak length, default 4),
// ROBUSTHD_ADV_TOL (accuracy tolerance, default 0.10),
// ROBUSTHD_ADV_QUERIES (bit-flip sample size, default 40),
// ROBUSTHD_WORKERS, plus the usual ROBUSTHD_TRAIN / ROBUSTHD_TEST caps.

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

constexpr double kTrustThreshold = 0.88;  // the serving trust gate's T_C

int run() {
  const double rate = env_double("ROBUSTHD_ADV_RATE", 0.06);
  const double soak_seconds = env_double("ROBUSTHD_ADV_SECONDS", 4.0);
  const double tolerance = env_double("ROBUSTHD_ADV_TOL", 0.10);
  const std::size_t attack_queries =
      bench::env_size("ROBUSTHD_ADV_QUERIES", 40);
  const std::size_t workers = bench::env_size("ROBUSTHD_WORKERS", 4);

  bench::header("adversarial attacks (input space vs the self-healing loop)");
  const auto split = bench::load("PAMAP");
  hv::EncoderConfig encoder_config;
  encoder_config.dimension = 4000;
  const hv::RecordEncoder encoder(split.train.feature_count(),
                                  encoder_config);
  const auto train = encoder.encode_all(split.train);
  const auto all_queries = encoder.encode_all(split.test);
  const auto trained = model::HdcModel::train(
      train, split.train.labels, split.train.num_classes, {});

  // Canary holdout (sentinel + trust-gate centroids); the rest is traffic.
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

  // ---- Phase 1: bit-flip success vs Hamming budget -----------------------
  const std::vector<std::size_t> budgets = {8, 16, 32, 64, 128, 256};
  std::vector<hv::BinVec> sample(
      traffic.begin(),
      traffic.begin() + std::min(attack_queries, traffic.size()));
  std::vector<adversary::SuccessRates> bitflip;
  bitflip.reserve(budgets.size());
  util::TextTable flip_table(
      {"budget (flips)", "success", "confident success", "mean flips"});
  for (const auto budget : budgets) {
    const auto rates = adversary::bit_flip_success(trained, sample, budget,
                                                   kTrustThreshold);
    bitflip.push_back(rates);
    flip_table.add_row({std::to_string(budget), util::fixed(rates.any, 3),
                        util::fixed(rates.confident, 3),
                        util::fixed(rates.mean_flips, 1)});
  }
  flip_table.print(std::cout);

  // ---- Phase 2: genetic feature-space success vs epsilon -----------------
  const std::vector<double> epsilons = {0.05, 0.10, 0.20};
  const std::size_t genetic_queries =
      std::min<std::size_t>(8, split.test.features.rows() - canary_count);
  struct GeneticPoint {
    double epsilon = 0.0;
    double success = 0.0;
    double confident = 0.0;
    double mean_linf = 0.0;
  };
  std::vector<GeneticPoint> genetic;
  util::TextTable gen_table(
      {"epsilon (Linf)", "success", "confident success", "mean Linf"});
  for (const auto eps : epsilons) {
    GeneticPoint point;
    point.epsilon = eps;
    std::size_t wins = 0;
    std::size_t confident = 0;
    double linf_sum = 0.0;
    for (std::size_t q = 0; q < genetic_queries; ++q) {
      adversary::GeneticConfig config;
      config.epsilon = eps;
      config.seed = 0xadf00d + q;
      const auto result = adversary::genetic_feature_attack(
          trained, encoder, split.test.features.row(canary_count + q),
          config);
      if (!result.success) continue;
      ++wins;
      linf_sum += result.linf;
      if (result.final_confidence >= kTrustThreshold) ++confident;
    }
    point.success =
        static_cast<double>(wins) / static_cast<double>(genetic_queries);
    point.confident =
        static_cast<double>(confident) / static_cast<double>(genetic_queries);
    point.mean_linf = wins == 0 ? 0.0 : linf_sum / static_cast<double>(wins);
    genetic.push_back(point);
    gen_table.add_row({util::fixed(eps, 2), util::fixed(point.success, 3),
                       util::fixed(point.confident, 3),
                       util::fixed(point.mean_linf, 3)});
  }
  gen_table.print(std::cout);

  serve::ServerConfig base_config;
  base_config.worker_threads = workers;
  base_config.max_batch = 16;
  base_config.enable_recovery = true;
  base_config.scrubber.gate.enabled = true;
  base_config.canaries = canaries;
  base_config.canary_labels = canary_labels;

  adversary::PoisonConfig poison;
  poison.chunks = base_config.scrubber.recovery.chunks;
  poison.waves = 16;

  // ---- Phase 3: undefended (shadow gate) poison campaign ----------------
  // Clean model, no memory attack: every bit the recovery engine rewrites
  // here is attack-induced damage.
  std::uint64_t undefended_wrong_bits = 0;
  serve::ServerStats undefended_stats;
  {
    auto config = base_config;
    config.scrubber.gate.enforce = false;  // observe + tag, admit all
    serve::Server server(trained, config);
    std::ignore = server.predict_all(traffic);  // warm the engine's gates
    server.drain();
    const auto before = server.metrics();
    adversary::PoisonCampaign campaign(trained, poison);
    std::ignore = campaign.run(server);
    server.drain();
    undefended_stats = serve::ServerStats(server.metrics() - before);
    undefended_wrong_bits = adversary::PoisonCampaign::wrong_bits(
        trained, *server.current_model());
    server.shutdown();
  }

  // ---- Phase 4: defended (enforcing gate) under memory attack -----------
  // The hard scenario: the gate must reject the poison *without* starving
  // the scrubber of the legitimate evidence it needs to repair real
  // chaos-injected damage at a Table-4 rate.
  double canary_accuracy = 0.0;
  std::uint64_t defended_wrong_bits = 0;
  serve::ServerStats defended_stats;
  {
    auto config = base_config;
    config.scrubber.gate.enforce = true;
    config.sentinel.enabled = true;
    config.sentinel.period = std::chrono::milliseconds(10);
    config.sentinel.chunks = config.scrubber.recovery.chunks;
    config.chaos.enabled = true;
    config.chaos.rate = rate;
    config.chaos.mode = fault::AttackMode::kRandom;
    // Spend the chaos budget over the first ~60% of the soak so the tail
    // measures the recovered steady state (chaos_soak's schedule).
    config.chaos.steps_to_full = 250;
    config.chaos.period = std::chrono::microseconds(
        static_cast<long>(soak_seconds * 0.6 * 1e6 / 250.0));

    serve::Server server(trained, config);
    std::ignore = server.predict_all(
        std::span<const hv::BinVec>(traffic.data(),
                                    std::min<std::size_t>(64, traffic.size())));
    server.drain();
    const auto before = server.metrics();

    adversary::PoisonCampaign campaign(trained, poison);
    const auto start = std::chrono::steady_clock::now();
    while (seconds_since(start) < soak_seconds) {
      // One poison wave between traffic passes: the attacker competes
      // with natural evidence exactly as it would in production.
      auto wave = campaign.craft_wave();
      std::vector<std::future<serve::Response>> futures;
      futures.reserve(wave.size());
      for (auto& query : wave) {
        futures.push_back(server.submit(std::move(query)));
      }
      for (auto& future : futures) std::ignore = future.get();
      std::ignore = server.predict_all(traffic);
    }
    server.drain();
    defended_stats = serve::ServerStats(server.metrics() - before);
    canary_accuracy = defended_stats.canary_accuracy;
    defended_wrong_bits = adversary::PoisonCampaign::wrong_bits(
        trained, *server.current_model());
    server.shutdown();
  }

  // ---- Offline reference: Table-4 protocol at the matched rate ----------
  const double clean_accuracy = trained.evaluate(traffic, traffic_labels);
  double offline_recovered = 0.0;
  {
    model::HdcModel victim = trained;
    util::Xoshiro256 rng(0xdac22);
    auto regions = victim.memory_regions();
    fault::BitFlipInjector::inject(regions, rate, fault::AttackMode::kRandom,
                                   rng);
    model::RecoveryEngine engine(victim, base_config.scrubber.recovery);
    for (int epoch = 0; epoch < 10; ++epoch) {
      for (const auto& q : traffic) engine.observe(q);
    }
    offline_recovered = victim.evaluate(traffic, traffic_labels);
  }

  const double gate_floor = offline_recovered - tolerance;
  const bool poison_measured = undefended_wrong_bits > 0 &&
                               undefended_stats.suspect_substitutions > 0;
  const bool defense_holds = canary_accuracy >= gate_floor;
  const bool gate_pass = poison_measured && defense_holds;

  util::TextTable table({"metric", "undefended", "defended"});
  table.add_row({"poisoned offers",
                 std::to_string(undefended_stats.poisoned_offers),
                 std::to_string(defended_stats.poisoned_offers)});
  table.add_row({"gate rejects",
                 std::to_string(undefended_stats.gate_rejects),
                 std::to_string(defended_stats.gate_rejects)});
  table.add_row({"suspect substitutions",
                 std::to_string(undefended_stats.suspect_substitutions),
                 std::to_string(defended_stats.suspect_substitutions)});
  table.add_row({"wrong bits vs blessed",
                 std::to_string(undefended_wrong_bits),
                 std::to_string(defended_wrong_bits)});
  table.add_row({"chaos flips", "0",
                 std::to_string(defended_stats.chaos_flips)});
  table.add_row({"live canary accuracy", "-",
                 util::fixed(canary_accuracy, 4)});
  table.add_row({"offline recovered accuracy",
                 util::fixed(offline_recovered, 4), "-"});
  table.add_row({"gate floor (offline - tol)", util::fixed(gate_floor, 4),
                 gate_pass ? "PASS" : "FAIL"});
  table.print(std::cout);

  std::ostringstream json;
  json << "{\"bench\":\"adversarial_attacks\""
       << ",\"rate\":" << rate
       << ",\"soak_seconds\":" << soak_seconds
       << ",\"workers\":" << workers
       << ",\"clean_accuracy\":" << clean_accuracy
       << ",\"bitflip_budgets\":[";
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    json << (i ? "," : "") << budgets[i];
  }
  json << "],\"bitflip_success\":[";
  for (std::size_t i = 0; i < bitflip.size(); ++i) {
    json << (i ? "," : "") << bitflip[i].any;
  }
  json << "],\"bitflip_confident_success\":[";
  for (std::size_t i = 0; i < bitflip.size(); ++i) {
    json << (i ? "," : "") << bitflip[i].confident;
  }
  json << "],\"genetic_epsilons\":[";
  for (std::size_t i = 0; i < genetic.size(); ++i) {
    json << (i ? "," : "") << genetic[i].epsilon;
  }
  json << "],\"genetic_success\":[";
  for (std::size_t i = 0; i < genetic.size(); ++i) {
    json << (i ? "," : "") << genetic[i].success;
  }
  json << "],\"undefended_poisoned_offers\":"
       << undefended_stats.poisoned_offers
       << ",\"undefended_suspect_substitutions\":"
       << undefended_stats.suspect_substitutions
       << ",\"undefended_wrong_bits\":" << undefended_wrong_bits
       << ",\"defended_poisoned_offers\":" << defended_stats.poisoned_offers
       << ",\"defended_gate_rejects\":" << defended_stats.gate_rejects
       << ",\"defended_suspect_substitutions\":"
       << defended_stats.suspect_substitutions
       << ",\"defended_wrong_bits\":" << defended_wrong_bits
       << ",\"defended_chaos_flips\":" << defended_stats.chaos_flips
       << ",\"defended_repairs\":" << defended_stats.scrub_repairs
       << ",\"canary_accuracy\":" << canary_accuracy
       << ",\"offline_recovered_accuracy\":" << offline_recovered
       << ",\"tolerance\":" << tolerance
       << ",\"gate_pass\":" << (gate_pass ? "true" : "false") << "}";
  std::cout << json.str() << "\n";
  std::ofstream("BENCH_adversarial.json") << json.str() << "\n";

  if (!gate_pass) {
    if (!poison_measured) {
      std::cerr << "adversarial gate FAILED: undefended campaign caused no "
                   "measurable poisoning (wrong bits "
                << undefended_wrong_bits << ", suspect substitutions "
                << undefended_stats.suspect_substitutions << ")\n";
    }
    if (!defense_holds) {
      std::cerr << "adversarial gate FAILED: defended canary accuracy "
                << canary_accuracy << " < offline recovered "
                << offline_recovered << " - tolerance " << tolerance << "\n";
    }
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace robusthd

int main() { return robusthd::run(); }
