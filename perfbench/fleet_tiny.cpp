// fleet_tiny: a small model behind a one-shard Fleet + Frontend on
// loopback, driven by four fleet::Client threads with one request
// outstanding each. Scoring is a sliver of a request's CPU; the wire,
// frontend loop, client, queue and completion path dominate.

#include <latch>
#include <memory>
#include <sstream>
#include <thread>

#include "answer_check.hpp"
#include "harness.hpp"
#include "robusthd/fleet/client.hpp"
#include "robusthd/fleet/fleet.hpp"
#include "robusthd/fleet/frontend.hpp"

namespace perfbench {

namespace rhd = robusthd;

namespace {

constexpr std::size_t kDim = 4096;
constexpr std::size_t kTrain = 2000;
constexpr std::size_t kTest = 4000;
constexpr std::size_t kClients = 4;
constexpr std::size_t kWarmupPerClient = 2000;
constexpr std::uint64_t kTenant = 1;
/// Latency buffer sizing: well above what one client reaches here.
constexpr double kMaxQpsPerClient = 40000;

/// The served system, built in the order a deployment builds it.
struct System {
  std::unique_ptr<rhd::hv::RecordEncoder> encoder;
  std::unique_ptr<rhd::fleet::Fleet> fleet;
  std::unique_ptr<rhd::fleet::Frontend> frontend;
  std::vector<std::unique_ptr<rhd::fleet::Client>> clients;

  ~System() {
    clients.clear();
    if (frontend) frontend->stop();
    if (fleet) fleet->shutdown();
  }
};

std::unique_ptr<System> build(const rhd::data::Split& split) {
  auto sys = std::make_unique<System>();
  rhd::hv::EncoderConfig encoder_config;
  encoder_config.dimension = kDim;
  sys->encoder = std::make_unique<rhd::hv::RecordEncoder>(
      split.train.feature_count(), encoder_config);
  const auto train = sys->encoder->encode_all(split.train);
  std::vector<rhd::model::HdcModel> models;
  models.push_back(rhd::model::HdcModel::train(
      train, split.train.labels, split.train.num_classes, {}));

  rhd::fleet::FleetConfig fleet_config;
  fleet_config.shards.resize(1);
  fleet_config.shards[0].server.worker_threads = 1;
  sys->fleet = std::make_unique<rhd::fleet::Fleet>(std::move(models),
                                                   fleet_config);
  sys->frontend = std::make_unique<rhd::fleet::Frontend>(*sys->fleet);
  sys->frontend->start();
  const rhd::fleet::Endpoint endpoint{"127.0.0.1",
                                      sys->frontend->ports().at(0)};
  for (std::size_t i = 0; i < kClients; ++i) {
    sys->clients.push_back(std::make_unique<rhd::fleet::Client>(
        std::vector<rhd::fleet::Endpoint>{endpoint},
        std::vector<std::string>{"default"}));
    if (!sys->clients.back()->ping(0)) {
      throw std::runtime_error("fleet_tiny: client could not connect");
    }
  }
  return sys;
}

/// One client thread's share of the window.
struct ClientRun {
  WindowTally tally;
  std::unique_ptr<AnswerCheck> answers;
  rhd::fleet::Client::Counters before{};
  rhd::fleet::Client::Counters after{};
};

}  // namespace

Result run_fleet_tiny(const Options& options) {
  Result result;
  const auto split = pamap_split(options.seed, kTrain, kTest);

  std::unique_ptr<System> sys;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    sys.reset();
    const auto t0 = Clock::now();
    sys = build(split);
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  result.values["setup_s"] = median(setups);

  auto& server = sys->fleet->shard(0).server();
  const rhd::model::HdcModel clean = *server.current_model();
  const auto queries = sys->encoder->encode_all(split.test);

  std::vector<ClientRun> runs(kClients);
  std::vector<std::unique_ptr<SpanLog>> logs;
  for (std::size_t i = 0; i < kClients; ++i) {
    logs.push_back(std::make_unique<SpanLog>(options.trace, i + 1));
    runs[i].tally.prepare(
        static_cast<std::size_t>(options.seconds * kMaxQpsPerClient));
    runs[i].answers = std::make_unique<AnswerCheck>(server, queries);
  }
  std::latch warmed(kClients);
  std::latch go(1);
  Window window;
  Clock::time_point end{};

  const auto client_main = [&](std::size_t i) {
    auto& client = *sys->clients[i];
    auto& run = runs[i];
    auto& log = *logs[i];
    std::size_t q = i;
    std::uint64_t request = 0;
    for (std::size_t w = 0; w < kWarmupPerClient; ++w) {
      std::ignore = client.predict(kTenant, queries[q]);
      q = (q + kClients) % queries.size();
    }
    warmed.count_down();
    go.wait();
    log.open_window(window.start());
    run.before = client.counters();
    while (true) {
      const auto t0 = Clock::now();
      const auto r = client.predict(kTenant, queries[q]);
      const auto t1 = Clock::now();
      if (t1 >= end) break;
      run.tally.cross(t1, window);
      ++request;
      log.record({"fleet.client_predict", t0, t1, log.new_id(), 0,
                  (static_cast<std::uint64_t>(i) << 48) | request});
      ++run.tally.attempted;
      const bool answered = r.ok && !r.abstained && r.predicted >= 0;
      if (answered) {
        ++run.tally.answered;
        run.tally.record(t1 - t0);
        run.answers->note(q, r.predicted, r.model_version);
        if (r.predicted == split.test.labels[q]) ++run.tally.correct;
      }
      q = (q + kClients) % queries.size();
    }
    run.after = client.counters();
  };

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back(client_main, i);
  }
  warmed.wait();
  window.open();
  const auto stats_before = server.stats();
  const auto frontend_before = sys->frontend->counters();
  end = window.start() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(options.seconds));
  go.count_down();
  for (std::size_t k = 1; window.boundary(k) < end; ++k) {
    std::this_thread::sleep_until(window.boundary(k));
    window.mark();
  }
  std::this_thread::sleep_until(end);
  window.close();
  const auto stats_after = server.stats();
  const auto frontend_after = sys->frontend->counters();
  for (auto& t : threads) t.join();
  sys->fleet->drain();

  std::vector<WindowTally> tallies;
  AnswerCheck::Summary checked;
  rhd::fleet::Client::Counters delta{};
  for (auto& run : runs) {
    tallies.push_back(std::move(run.tally));
    run.answers->finish();
    const auto c = run.answers->summary();
    checked.answers += c.answers;
    checked.mismatches += c.mismatches;
    checked.unchecked += c.unchecked;
    checked.differ_from_clean += c.differ_from_clean;
    checked.versions = std::max(checked.versions, c.versions);
    delta.retries += run.after.retries - run.before.retries;
    delta.transport_errors +=
        run.after.transport_errors - run.before.transport_errors;
    delta.reconnects += run.after.reconnects - run.before.reconnects;
  }
  fill_end_to_end(tallies, window, result);
  const auto served = server.current_model();
  const double damage = residual_damage_frac(*served, clean);
  result.values["intact_bits_frac"] = 1.0 - damage;
  result.correct = checked.mismatches == 0 && result.attempted > 0;
  result.report.push_back(check_line(checked, result.correct));
  result.report.push_back(host_line(
      window, served->arena().hugepage_backed(),
      "clients=4+frontend_loop=1+worker=1+scrubber=1=7,clients_block_on_io"));

  if (options.trace) {
    fill_serve_layer(stats_before, stats_after, result);
    result.values["serve.residual_damage_frac"] = damage;
    std::vector<const SpanLog*> log_ptrs;
    for (const auto& log : logs) log_ptrs.push_back(log.get());
    const double rtt = mean_span_ns(log_ptrs, "fleet.client_predict");
    auto& v = result.values;
    v["fleet.client_rtt_ns"] = rtt;
    v["fleet.transport_ns"] = rtt - v["serve.end_to_end_ns"];
    v["fleet.frames_in"] = static_cast<double>(frontend_after.frames_in -
                                               frontend_before.frames_in);
    v["fleet.frames_out"] = static_cast<double>(frontend_after.frames_out -
                                                frontend_before.frames_out);
    v["fleet.busy_rejections"] = static_cast<double>(
        frontend_after.busy_rejections - frontend_before.busy_rejections);
    v["fleet.protocol_errors"] = static_cast<double>(
        frontend_after.protocol_errors - frontend_before.protocol_errors);
    v["fleet.client_retries"] = static_cast<double>(delta.retries);
    v["fleet.client_transport_errors"] =
        static_cast<double>(delta.transport_errors);
    v["fleet.client_reconnects"] = static_cast<double>(delta.reconnects);
    run_ladder({served.get(), queries,
                sys->fleet->shard(0).server().config().scrubber.recovery,
                sys->encoder.get(), &split.test.features},
               result);
    tracing_overhead(1.0, result);  // fleet.client_predict
    result.report.push_back(
        "trace: spans=" +
        std::to_string(write_spans(options, log_ptrs, window.start())));
  }
  return result;
}

}  // namespace perfbench
