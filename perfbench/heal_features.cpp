// heal_features: raw features encoded server-side, the defended serving
// config (recovery + trust gate + sentinel), and a seeded clustered chaos
// campaign ticked at fixed points of the request stream. Encoding
// dominates; repairs and snapshot publications land beside scoring.

#include <memory>
#include <sstream>

#include "closed_loop.hpp"

namespace perfbench {

namespace rhd = robusthd;

namespace {

constexpr std::size_t kDim = 4096;
constexpr std::size_t kTrain = 2000;
constexpr std::size_t kTest = 4000;
constexpr std::size_t kCanaries = 150;  // held out of traffic
/// Eight batches of 16 in flight: both workers stay fed while the
/// generator waits for a CPU. With 32 the workers idled between batches,
/// and p50 spread twice as wide from run to run.
constexpr std::size_t kOutstanding = 128;
constexpr std::size_t kWorkers = 2;
/// Latency buffer sizing: well above the throughput reached here.
constexpr double kMaxQps = 60000;
/// Answered requests between two chaos ticks. The campaign's 200 ticks
/// land within the first 12,800 answers of the window on every run.
constexpr std::uint64_t kTickEvery = 64;

struct System {
  std::shared_ptr<const rhd::hv::RecordEncoder> encoder;
  std::unique_ptr<rhd::serve::Server> server;
};

System build(const rhd::data::Split& split, std::uint64_t seed) {
  System sys;
  rhd::hv::EncoderConfig encoder_config;
  encoder_config.dimension = kDim;
  sys.encoder = std::make_shared<const rhd::hv::RecordEncoder>(
      split.train.feature_count(), encoder_config);
  const auto train = sys.encoder->encode_all(split.train);
  auto model = rhd::model::HdcModel::train(train, split.train.labels,
                                           split.train.num_classes, {});

  // The defended config of bench/chaos_soak and bench/adversarial_attacks.
  rhd::serve::ServerConfig config;
  config.worker_threads = kWorkers;
  config.max_batch = 16;
  config.enable_recovery = true;
  config.scrubber.gate.enabled = true;
  config.sentinel.enabled = true;
  config.sentinel.period = std::chrono::milliseconds(10);
  config.sentinel.chunks = config.scrubber.recovery.chunks;
  for (std::size_t i = 0; i < kCanaries; ++i) {
    config.canaries.push_back(sys.encoder->encode(split.test.sample(i)));
    config.canary_labels.push_back(split.test.labels[i]);
  }
  config.encoder = sys.encoder;
  // The harness ticks the campaign itself (period 0: no chaos thread).
  config.chaos.enabled = true;
  config.chaos.mode = rhd::fault::AttackMode::kClustered;
  config.chaos.period = std::chrono::microseconds(0);
  config.chaos.seed = seed ^ 0xc4a05ULL;
  sys.server = std::make_unique<rhd::serve::Server>(std::move(model), config);
  return sys;
}

}  // namespace

Result run_heal_features(const Options& options) {
  Result result;
  const auto split = pamap_split(options.seed, kTrain, kTest);
  std::vector<std::vector<float>> traffic;
  std::vector<int> labels;
  for (std::size_t i = kCanaries; i < split.test.size(); ++i) {
    const auto row = split.test.sample(i);
    traffic.emplace_back(row.begin(), row.end());
    labels.push_back(split.test.labels[i]);
  }
  const auto classes = static_cast<int>(split.train.num_classes);

  System sys;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    sys = System{};
    const auto t0 = Clock::now();
    sys = build(split, options.seed);
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  result.values["setup_s"] = median(setups);
  auto& server = *sys.server;
  const rhd::model::HdcModel clean = *server.current_model();
  auto& chaos = *server.chaos_agent();

  LoopSpec spec;
  spec.outstanding = kOutstanding;
  spec.queries = traffic.size();
  spec.seconds = options.seconds;
  spec.submit_span = "serve.submit_features";
  SpanLog log(options.trace, 1);
  Window window;
  WindowTally tally;
  tally.prepare(static_cast<std::size_t>(options.seconds * kMaxQps));
  rhd::serve::ServerStats before;
  rhd::serve::ServerStats after;
  std::uint64_t invalid = 0;
  std::uint64_t degraded = 0;
  std::uint64_t abstained = 0;
  const bool valid = closed_loop(
      server, spec,
      [&](std::size_t q) {
        return std::optional(server.submit_features(traffic[q]));
      },
      [&](std::size_t q, const rhd::serve::Response& r) {
        Verdict v;
        const bool is_class = r.predicted >= 0 && r.predicted < classes;
        v.answered = is_class && !r.abstained && !r.expired;
        v.valid =
            v.answered || (r.predicted == -1 && (r.abstained || r.expired));
        v.correct = v.answered && r.predicted == labels[q];
        if (!v.valid) ++invalid;
        if (v.answered && r.degraded) ++degraded;
        if (r.abstained || r.expired) ++abstained;
        return v;
      },
      [&](std::uint64_t answered) {
        if (answered % kTickEvery != 0 || chaos.campaign_done()) return;
        const auto t0 = Clock::now();
        chaos.tick();
        if (log.enabled()) {
          log.record({"chaos.tick", t0, Clock::now(), log.new_id(), 0, 0});
        }
      },
      log, window, tally, before, after);
  server.drain();

  fill_end_to_end({&tally, 1}, window, result);
  const auto served = server.current_model();
  const double damage = residual_damage_frac(*served, clean);
  result.values["intact_bits_frac"] = 1.0 - damage;
  result.correct = valid && tally.attempted > 0;

  std::ostringstream check;
  check << "check: every answer a class in [0," << classes
        << ") or an explicit abstained/expired: "
        << (result.correct ? "ok" : "FAILED") << " (answers="
        << tally.attempted << " invalid=" << invalid
        << " degraded=" << degraded << " abstained_or_expired=" << abstained
        << ")";
  result.report.push_back(check.str());
  std::ostringstream damage_line;
  damage_line << "damage: residual_bits=" << differing_bits(*served, clean)
              << " model_bits=" << clean.num_classes() * clean.dimension()
              << " chaos_ticks=" << after.chaos_ticks - before.chaos_ticks
              << " campaign_done=" << (chaos.campaign_done() ? 1 : 0);
  result.report.push_back(damage_line.str());
  result.report.push_back(host_line(
      window, served->arena().hugepage_backed(),
      "generator=1+workers=2+scrubber=1=4,sentinel_every_10ms"));

  if (options.trace) {
    fill_serve_layer(before, after, result);
    result.values["serve.residual_damage_frac"] = damage;
    const SpanLog* logs[] = {&log};
    result.values["serve.submit_ns"] =
        mean_span_ns(logs, "serve.submit_features");
    std::vector<rhd::hv::BinVec> queries;
    queries.reserve(traffic.size());
    for (const auto& f : traffic) queries.push_back(sys.encoder->encode(f));
    std::ostringstream scored;
    scored << "finding: final snapshot scored unmasked over the traffic: "
           << "accuracy=" << fmt(served->evaluate(queries, labels), 4)
           << " (served answers, masked where quarantined: "
           << fmt(result.values["accuracy"], 4) << ")";
    result.report.push_back(scored.str());
    run_ladder({served.get(), queries, server.config().scrubber.recovery,
                sys.encoder.get(), &split.test.features},
               result);
    tracing_overhead(3.0, result);  // request, submit_features, serve.wait
    result.report.push_back("trace: spans=" +
                            std::to_string(write_spans(options, logs,
                                                       window.start())));
  }
  server.shutdown();
  return result;
}

}  // namespace perfbench
