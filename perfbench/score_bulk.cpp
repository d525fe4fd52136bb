// score_bulk: many classes, queries pre-encoded, an in-process server
// with default config and one worker. Kernels and model (scoring and the
// scrubber's recovery engine) do most of the work; fleet and encoder are
// bypassed.

#include <memory>
#include <sstream>

#include "answer_check.hpp"
#include "closed_loop.hpp"
#include "robusthd/util/rng.hpp"

namespace perfbench {

namespace rhd = robusthd;

namespace {

// The arena and the query set (256 KiB each) fit one core's L2, and the
// busy threads (worker, scrubber, generator) leave a vCPU of four free. A
// 1 MiB arena with 16 MiB of queries and two workers spread twice as wide
// from run to run on a shared 4-vCPU host.
constexpr std::size_t kDim = 16384;
constexpr std::size_t kClasses = 128;  // 128 planes x 2 KiB
constexpr std::size_t kTrainPerClass = 4;
constexpr std::size_t kQueries = 128;
constexpr std::size_t kOutstanding = 64;
constexpr std::size_t kWorkers = 1;
/// Latency buffer sizing: well above the throughput reached here.
constexpr double kMaxQps = 150000;

struct Inputs {
  std::vector<rhd::hv::BinVec> train;
  std::vector<int> train_labels;
  std::vector<rhd::hv::BinVec> queries;
  std::vector<int> labels;
};

/// `proto` with each bit flipped with probability 2^-and_terms.
rhd::hv::BinVec noisy_copy(const rhd::hv::BinVec& proto, int and_terms,
                           rhd::util::Xoshiro256& rng) {
  rhd::hv::BinVec v = proto;
  for (auto& w : v.mutable_words()) {
    std::uint64_t mask = rng.next();
    for (int t = 1; t < and_terms; ++t) mask &= rng.next();
    w ^= mask;
  }
  return v;
}

/// Random class prototypes. Training samples flip an eighth of a
/// prototype's bits, queries a quarter.
Inputs generate(std::uint64_t seed) {
  rhd::util::Xoshiro256 rng(seed);
  std::vector<rhd::hv::BinVec> protos;
  protos.reserve(kClasses);
  for (std::size_t c = 0; c < kClasses; ++c) {
    protos.push_back(rhd::hv::BinVec::random(kDim, rng));
  }
  Inputs in;
  for (std::size_t c = 0; c < kClasses; ++c) {
    for (std::size_t i = 0; i < kTrainPerClass; ++i) {
      in.train.push_back(noisy_copy(protos[c], 3, rng));
      in.train_labels.push_back(static_cast<int>(c));
    }
  }
  for (std::size_t i = 0; i < kQueries; ++i) {
    const auto c = static_cast<std::size_t>(rng.below(kClasses));
    in.queries.push_back(noisy_copy(protos[c], 2, rng));
    in.labels.push_back(static_cast<int>(c));
  }
  return in;
}

}  // namespace

Result run_score_bulk(const Options& options) {
  Result result;
  const Inputs in = generate(options.seed);

  rhd::serve::ServerConfig config;
  config.worker_threads = kWorkers;
  std::unique_ptr<rhd::serve::Server> server;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    server.reset();
    const auto t0 = Clock::now();
    auto model = rhd::model::HdcModel::train(in.train, in.train_labels,
                                             kClasses, {});
    server = std::make_unique<rhd::serve::Server>(std::move(model), config);
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  result.values["setup_s"] = median(setups);

  const rhd::model::HdcModel clean = *server->current_model();

  LoopSpec spec;
  spec.outstanding = kOutstanding;
  spec.queries = in.queries.size();
  spec.seconds = options.seconds;
  spec.submit_span = "serve.submit";
  SpanLog log(options.trace, 1);
  Window window;
  WindowTally tally;
  tally.prepare(static_cast<std::size_t>(options.seconds * kMaxQps));
  rhd::serve::ServerStats before;
  rhd::serve::ServerStats after;
  AnswerCheck answers(*server, in.queries);
  closed_loop(
      *server, spec,
      [&](std::size_t q) { return server->try_submit(in.queries[q]); },
      [&](std::size_t q, const rhd::serve::Response& r) {
        Verdict v;
        v.answered = !r.abstained && !r.expired && r.predicted >= 0;
        v.correct = r.predicted == in.labels[q];
        answers.note(q, r.predicted, r.model_version);
        return v;
      },
      [](std::uint64_t) {}, log, window, tally, before, after);
  server->drain();

  fill_end_to_end({&tally, 1}, window, result);
  const auto served = server->current_model();
  const double damage = residual_damage_frac(*served, clean);
  result.values["intact_bits_frac"] = 1.0 - damage;
  answers.finish();
  const auto checked = answers.summary();
  result.correct = checked.mismatches == 0 && tally.attempted > 0;
  result.report.push_back(check_line(checked, result.correct));
  result.report.push_back(
      host_line(window, served->arena().hugepage_backed(),
                "generator=1+worker=1+scrubber=1=3"));

  if (options.trace) {
    fill_serve_layer(before, after, result);
    result.values["serve.residual_damage_frac"] = damage;
    const SpanLog* logs[] = {&log};
    result.values["serve.submit_ns"] = mean_span_ns(logs, "serve.submit");
    run_ladder({served.get(), in.queries, config.scrubber.recovery, nullptr,
                nullptr},
               result);
    tracing_overhead(3.0, result);  // request, serve.submit, serve.wait
    result.report.push_back("trace: spans=" +
                            std::to_string(write_spans(options, logs,
                                                       window.start())));
  }
  server->shutdown();
  return result;
}

}  // namespace perfbench
