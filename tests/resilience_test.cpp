// Tests for the live-fire resilience layer: quarantine-masked scoring,
// repair prioritization, the plane health sentinel (drift verdicts,
// hysteresis, quarantine, circuit breaker), the chaos agent's budget
// accounting, and the full ChaosAgent + Scrubber + Sentinel stack running
// concurrently against live traffic. The concurrent tests here are part
// of the TSan gate (see .github/workflows/ci.yml).
#include "robusthd/serve/sentinel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <tuple>
#include <vector>

#include "robusthd/fault/injector.hpp"
#include "robusthd/model/recovery.hpp"
#include "robusthd/serve/chaos.hpp"
#include "robusthd/serve/server.hpp"
#include "robusthd/util/bitops.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd::serve {
namespace {

constexpr std::size_t kDim = 2000;
constexpr std::size_t kClasses = 5;
constexpr std::size_t kChunks = 20;

/// Same tight-cluster geometry serve_test uses: queries agree with their
/// prototype on ~96% of dimensions, so clean accuracy is ~1.0.
struct World {
  std::vector<hv::BinVec> queries;
  std::vector<int> labels;
  model::HdcModel model;
};

World make_world(std::uint64_t seed, std::size_t queries_per_class = 20) {
  World w;
  util::Xoshiro256 rng(seed);
  std::vector<hv::BinVec> prototypes;
  std::vector<hv::BinVec> train;
  std::vector<int> train_labels;
  for (std::size_t c = 0; c < kClasses; ++c) {
    prototypes.push_back(hv::BinVec::random(kDim, rng));
  }
  auto noisy = [&](std::size_t c) {
    auto v = prototypes[c];
    for (std::size_t d = 0; d < kDim; ++d) {
      if (rng.bernoulli(0.04)) v.flip(d);
    }
    return v;
  };
  for (std::size_t c = 0; c < kClasses; ++c) {
    for (int i = 0; i < 20; ++i) {
      train.push_back(noisy(c));
      train_labels.push_back(static_cast<int>(c));
    }
    for (std::size_t i = 0; i < queries_per_class; ++i) {
      w.queries.push_back(noisy(c));
      w.labels.push_back(static_cast<int>(c));
    }
  }
  w.model = model::HdcModel::train(train, train_labels, kClasses, {});
  return w;
}

/// The recovery engine's chunk partition, shared by the whole ladder.
std::pair<std::size_t, std::size_t> chunk_range(std::size_t c,
                                                std::size_t dim,
                                                std::size_t m) {
  return {c * dim / m, (c + 1) * dim / m};
}

/// Inverts every bit of `cls`'s plane 0 inside chunk `c`.
void invert_chunk(model::HdcModel& model, std::size_t cls, std::size_t c,
                  std::size_t m) {
  const auto plane = model.class_vector(cls).planes[0];
  const auto [begin, end] = chunk_range(c, model.dimension(), m);
  for (std::size_t d = begin; d < end; ++d) plane.flip(d);
}

double accuracy(const model::HdcModel& model,
                const std::vector<hv::BinVec>& queries,
                const std::vector<int>& labels,
                const QuarantineMask* mask = nullptr) {
  std::vector<const hv::BinVec*> ptrs(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) ptrs[i] = &queries[i];
  model::ScoreWorkspace ws;
  model.scores_batch(ptrs, ws, mask != nullptr ? mask->words.data() : nullptr,
                     mask != nullptr ? mask->kept_dims : 0);
  const std::size_t k = model.num_classes();
  std::size_t correct = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double* row = ws.scores.data() + i * k;
    const auto predicted = std::max_element(row, row + k) - row;
    if (predicted == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(queries.size());
}

// ------------------------------------------------------- quarantine mask --

TEST(QuarantineMask, PartitionGeometryAndTailBits) {
  const std::size_t dim = 130;  // 3 words, 2-bit tail
  std::vector<bool> excluded(4, false);
  excluded[1] = true;
  const auto mask = build_quarantine_mask(dim, excluded);
  ASSERT_EQ(mask.words.size(), util::words_for_bits(dim));
  const auto [begin, end] = chunk_range(1, dim, 4);
  for (std::size_t i = 0; i < dim; ++i) {
    const bool kept = (mask.words[i / 64] >> (i % 64)) & 1;
    EXPECT_EQ(kept, i < begin || i >= end) << "bit " << i;
  }
  // Tail bits beyond the dimension must stay clear so kept_dims counts
  // real dimensions only (and masked scoring never counts padding).
  for (std::size_t i = dim; i < mask.words.size() * 64; ++i) {
    EXPECT_FALSE((mask.words[i / 64] >> (i % 64)) & 1) << "tail bit " << i;
  }
  EXPECT_EQ(mask.kept_dims, dim - (end - begin));
  EXPECT_EQ(mask.excluded_chunks, 1u);
}

TEST(MaskedScoring, AllOnesMaskIsBitIdenticalToFullScoring) {
  const auto world = make_world(0x11a5);
  const auto mask =
      build_quarantine_mask(kDim, std::vector<bool>(kChunks, false));
  ASSERT_EQ(mask.kept_dims, kDim);
  std::vector<const hv::BinVec*> ptrs(world.queries.size());
  for (std::size_t i = 0; i < world.queries.size(); ++i) {
    ptrs[i] = &world.queries[i];
  }
  model::ScoreWorkspace full_ws, masked_ws;
  world.model.scores_batch(ptrs, full_ws);
  world.model.scores_batch(ptrs, masked_ws, mask.words.data(),
                           mask.kept_dims);
  // Same numerators, same denominator, same float op order: the scores
  // must be bit-identical, not merely close.
  for (std::size_t i = 0; i < ptrs.size() * kClasses; ++i) {
    EXPECT_EQ(masked_ws.scores[i], full_ws.scores[i]) << "score " << i;
  }
}

TEST(MaskedScoring, QuarantiningInvertedChunksRestoresAccuracy) {
  const auto world = make_world(0x2b0b);
  EXPECT_GE(accuracy(world.model, world.queries, world.labels), 0.95);

  // Invert most of class 0's plane, chunk by chunk — enough damage that
  // class 0's canaries land closer to other prototypes.
  auto damaged = world.model;
  std::vector<bool> excluded(kChunks, false);
  for (std::size_t c = 0; c < 12; ++c) {
    invert_chunk(damaged, 0, c, kChunks);
    excluded[c] = true;
  }
  const double broken = accuracy(damaged, world.queries, world.labels);
  EXPECT_LT(broken, 0.85);  // class 0 (1/5 of the queries) is lost

  // Excluding the damaged chunks from scoring recovers the clean
  // accuracy: the surviving 40% of the dimensions still separate the
  // classes (the holographic property the paper leans on).
  const auto mask = build_quarantine_mask(kDim, excluded);
  const double masked =
      accuracy(damaged, world.queries, world.labels, &mask);
  EXPECT_GE(masked, 0.95);
}

// ---------------------------------------------------- repair priority ----

TEST(RecoveryPriority, PrioritizedChunkSkipsConsensusBuffering) {
  const auto world = make_world(0x3c1a);
  model::RecoveryConfig config;
  config.chunks = kChunks;
  config.consensus_flags = 3;
  config.confidence_threshold = 0.70;
  // The absolute gate needs >= 10 observations per class; this test feeds
  // exactly one query, so disable it (documented sentinel value).
  config.absolute_gate_sigma = -100.0;

  // Without priority, the first trusted flagger is only buffered.
  {
    auto damaged = world.model;
    invert_chunk(damaged, 0, 4, kChunks);
    model::RecoveryEngine engine(damaged, config);
    const auto result = engine.observe(world.queries[0]);  // class-0 query
    ASSERT_TRUE(result.trusted);
    EXPECT_EQ(result.substituted_bits, 0u);
  }

  // With priority, the same single query substitutes immediately.
  {
    auto damaged = world.model;
    invert_chunk(damaged, 0, 4, kChunks);
    model::RecoveryEngine engine(damaged, config);
    engine.set_chunk_priority(0, 4, true);
    EXPECT_TRUE(engine.chunk_priority(0, 4));
    const auto result = engine.observe(world.queries[0]);
    ASSERT_TRUE(result.trusted);
    EXPECT_GT(result.substituted_bits, 0u);
    engine.clear_priorities();
    EXPECT_FALSE(engine.chunk_priority(0, 4));
  }

  EXPECT_THROW(
      {
        auto damaged = world.model;
        model::RecoveryEngine engine(damaged, config);
        engine.set_chunk_priority(kClasses, 0, true);
      },
      std::out_of_range);
}

// ------------------------------------------------------------- sentinel --

struct HookLog {
  std::vector<std::tuple<std::size_t, std::size_t, bool>> priorities;
  std::vector<std::vector<bool>> quarantines;
  std::vector<bool> breaker_changes;
};

SentinelConfig manual_sentinel_config() {
  SentinelConfig config;
  config.enabled = true;
  config.period = std::chrono::milliseconds(0);  // manual run_round()
  config.chunks = kChunks;
  config.chunk_drift_threshold = 0.10;
  config.bad_streak = 2;
  config.good_streak = 2;
  return config;
}

SentinelHooks logging_hooks(HookLog& log) {
  SentinelHooks hooks;
  hooks.prioritize = [&log](std::size_t cls, std::size_t chunk, bool on) {
    log.priorities.emplace_back(cls, chunk, on);
  };
  hooks.publish_quarantine = [&log](const std::vector<bool>& excluded) {
    log.quarantines.push_back(excluded);
  };
  hooks.set_breaker = [&log](bool open) { log.breaker_changes.push_back(open); };
  return hooks;
}

TEST(Sentinel, DriftVerdictsQuarantineAndReleaseWithHysteresis) {
  const auto world = make_world(0x5e11);
  ModelSnapshot snapshot{model::HdcModel(world.model)};
  HookLog log;
  util::MetricsRegistry metrics;
  Sentinel sentinel(snapshot, world.queries, world.labels,
                    manual_sentinel_config(), logging_hooks(log), metrics);

  // Clean round: everything healthy, no escalation.
  sentinel.run_round();
  auto report = sentinel.report();
  EXPECT_EQ(report.rounds, 1u);
  EXPECT_GE(report.raw_accuracy, 0.95);
  EXPECT_EQ(report.effective_accuracy, report.raw_accuracy);
  EXPECT_TRUE(std::all_of(report.verdicts.begin(), report.verdicts.end(),
                          [](ChunkHealth h) {
                            return h == ChunkHealth::kHealthy;
                          }));
  EXPECT_TRUE(log.priorities.empty());
  EXPECT_LT(sentinel.most_confident_class(), kClasses);

  // Damage chunk 3 of class 1 (100% local drift) and publish — this is a
  // scrubber-style publication, NOT a blessed one, so the reference stays.
  {
    auto damaged = *snapshot.acquire();
    invert_chunk(damaged, 1, 3, kChunks);
    snapshot.publish(std::move(damaged));
  }

  // Round 2: suspect (streak 1 of bad_streak 2), repair-prioritized.
  sentinel.run_round();
  report = sentinel.report();
  EXPECT_EQ(report.verdicts[1 * kChunks + 3], ChunkHealth::kSuspect);
  EXPECT_GT(report.chunk_drift[1 * kChunks + 3], 0.9);
  ASSERT_FALSE(log.priorities.empty());
  EXPECT_EQ(log.priorities.back(),
            std::make_tuple(std::size_t{1}, std::size_t{3}, true));
  EXPECT_EQ(report.quarantined_chunks, 0u);

  // Round 3: streak reaches bad_streak -> quarantined and published.
  sentinel.run_round();
  report = sentinel.report();
  EXPECT_EQ(report.verdicts[1 * kChunks + 3], ChunkHealth::kQuarantined);
  EXPECT_EQ(report.quarantined_chunks, 1u);
  ASSERT_EQ(log.quarantines.size(), 1u);
  EXPECT_TRUE(log.quarantines.back()[3]);
  EXPECT_EQ(metrics.snapshot().counter("sentinel.quarantine_events"), 1u);

  // Heal the model (publish a clean copy; still not blessed — drift just
  // drops to zero, exactly as if the scrubber repaired the planes).
  snapshot.publish(model::HdcModel(world.model));

  // Release needs good_streak clean rounds: still quarantined after one...
  sentinel.run_round();
  EXPECT_EQ(sentinel.report().quarantined_chunks, 1u);
  EXPECT_EQ(log.priorities.back(),
            std::make_tuple(std::size_t{1}, std::size_t{3}, false));
  // ...and released after the second.
  sentinel.run_round();
  report = sentinel.report();
  EXPECT_EQ(report.quarantined_chunks, 0u);
  EXPECT_EQ(report.verdicts[1 * kChunks + 3], ChunkHealth::kHealthy);
  ASSERT_EQ(log.quarantines.size(), 2u);
  EXPECT_FALSE(log.quarantines.back()[3]);
  EXPECT_EQ(metrics.snapshot().counter("sentinel.release_events"), 1u);
  EXPECT_TRUE(log.breaker_changes.empty());
}

TEST(Sentinel, BreakerTripsReloadsLastGoodAndCloses) {
  const auto world = make_world(0x6f00);
  ModelSnapshot snapshot{model::HdcModel(world.model)};
  HookLog log;
  auto config = manual_sentinel_config();
  config.breaker_floor = 0.55;
  config.breaker_window = 2;
  config.breaker_reload_retries = 3;
  config.breaker_backoff = std::chrono::milliseconds(1);
  auto hooks = logging_hooks(log);
  std::atomic<int> reload_calls{0};
  hooks.attempt_reload = [&] {
    reload_calls.fetch_add(1);
    snapshot.publish(model::HdcModel(world.model));  // last-good
    return true;
  };
  util::MetricsRegistry metrics;
  Sentinel sentinel(snapshot, world.queries, world.labels, config,
                    std::move(hooks), metrics);

  // Wreck every plane: predictions collapse to ~chance (1/kClasses).
  {
    auto wrecked = *snapshot.acquire();
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      for (std::size_t c = 0; c < kChunks; ++c) {
        invert_chunk(wrecked, cls, c, kChunks);
      }
    }
    snapshot.publish(std::move(wrecked));
  }

  sentinel.run_round();  // below floor, streak 1
  EXPECT_FALSE(sentinel.breaker_open());
  sentinel.run_round();  // streak 2: trip, reload, recover, close
  EXPECT_FALSE(sentinel.breaker_open());
  const auto counters = metrics.snapshot();
  EXPECT_EQ(counters.counter("sentinel.breaker_trips"), 1u);
  EXPECT_EQ(counters.counter("sentinel.reload_retries"), 1u);
  EXPECT_EQ(reload_calls.load(), 1);
  // The breaker opened and closed within the round, both hook calls seen.
  ASSERT_EQ(log.breaker_changes.size(), 2u);
  EXPECT_TRUE(log.breaker_changes[0]);
  EXPECT_FALSE(log.breaker_changes[1]);
  // The reload rebased the reference; health is clean again.
  const auto report = sentinel.report();
  EXPECT_GE(report.raw_accuracy, 0.95);
  EXPECT_GE(metrics.snapshot().gauge("sentinel.canary_accuracy"), 0.95);
}

// ------------------------------------------------- server-level ladder ---

TEST(ServerResilience, BreakerShedsLoadThenRecoversAfterReload) {
  const auto world = make_world(0x7a11);
  ServerConfig config;
  config.worker_threads = 2;
  config.enable_recovery = false;  // isolate the breaker from repairs
  config.sentinel.enabled = true;
  config.sentinel.period = std::chrono::milliseconds(0);  // manual rounds
  config.sentinel.chunks = kChunks;
  config.sentinel.breaker_floor = 0.55;
  config.sentinel.breaker_window = 1;
  config.sentinel.breaker_reload_retries = 0;  // stay open until we reload
  config.canaries = world.queries;
  config.canary_labels = world.labels;
  Server server(world.model, config);
  ASSERT_NE(server.sentinel(), nullptr);

  // Healthy round first: normal answers, no degradation flags.
  server.sentinel()->run_round();
  auto response = server.submit(world.queries[0]).get();
  EXPECT_EQ(response.predicted, world.labels[0]);
  EXPECT_FALSE(response.abstained);
  EXPECT_FALSE(response.degraded);

  // Scramble the serving model (direct-publish injection path) and let
  // the sentinel notice: the breaker must trip and stay open (no retries
  // configured).
  server.inject_faults(0.5, fault::AttackMode::kRandom, 0xbad);
  server.sentinel()->run_round();
  EXPECT_TRUE(server.sentinel()->breaker_open());
  auto stats = server.stats();
  EXPECT_TRUE(stats.breaker_open);
  EXPECT_EQ(stats.breaker_trips, 1u);

  // Open breaker: every response is an explicit abstention.
  for (std::size_t i = 0; i < 8; ++i) {
    const auto shed = server.submit(world.queries[i]).get();
    EXPECT_TRUE(shed.abstained);
    EXPECT_EQ(shed.predicted, -1);
  }
  EXPECT_GE(server.stats().abstained_responses, 8u);

  // Operator-style recovery: hot-reload the good model. The reload
  // rebases the sentinel; its next round sees healthy canaries and
  // closes the breaker.
  server.reload(world.model);
  server.sentinel()->run_round();
  EXPECT_FALSE(server.sentinel()->breaker_open());
  EXPECT_FALSE(server.stats().breaker_open);

  // Served predictions are consistent with direct inference again.
  const auto responses = server.predict_all(world.queries);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_FALSE(responses[i].abstained);
    if (responses[i].predicted == world.labels[i]) ++correct;
  }
  EXPECT_GE(static_cast<double>(correct) /
                static_cast<double>(responses.size()),
            0.95);
  server.shutdown();
}

TEST(ServerResilience, QuarantineMarksResponsesDegraded) {
  const auto world = make_world(0x8bad);
  ServerConfig config;
  config.worker_threads = 2;
  config.enable_recovery = false;
  config.sentinel.enabled = true;
  config.sentinel.period = std::chrono::milliseconds(0);
  config.sentinel.chunks = kChunks;
  // Light random damage drifts every chunk past this threshold, so the
  // quarantine trigger is deterministic; the 0.5 cap keeps the worst half.
  config.sentinel.chunk_drift_threshold = 0.01;
  config.sentinel.bad_streak = 1;      // quarantine on first sighting
  config.sentinel.good_streak = 1000;  // and keep it for the test
  config.canaries = world.queries;
  config.canary_labels = world.labels;
  Server server(world.model, config);

  server.inject_faults(0.05, fault::AttackMode::kRandom, 0xfeed);
  server.sentinel()->run_round();
  const auto report = server.sentinel()->report();
  ASSERT_GT(report.quarantined_chunks, 0u);
  ASSERT_LE(report.quarantined_chunks, kChunks / 2);  // cap respected
  EXPECT_GT(server.stats().quarantined_chunks, 0u);

  // Responses under quarantine are flagged degraded and still mostly
  // correct: 5% random damage barely moves the masked scores over the
  // surviving half of the dimensions.
  const auto responses = server.predict_all(world.queries);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_TRUE(responses[i].degraded);
    EXPECT_FALSE(responses[i].abstained);
    if (responses[i].predicted == world.labels[i]) ++correct;
  }
  EXPECT_GE(static_cast<double>(correct) /
                static_cast<double>(responses.size()),
            0.85);
  EXPECT_GE(server.stats().degraded_responses, responses.size());
  server.shutdown();
}

// ---------------------------------------------------------- chaos agent --

TEST(ChaosAgent, BudgetIsExactAndCampaignTerminates) {
  const auto world = make_world(0x9c0a);
  ModelSnapshot snapshot{model::HdcModel(world.model)};
  ChaosConfig config;
  config.rate = 0.05;
  config.steps_to_full = 37;
  config.mode = fault::AttackMode::kRandom;
  config.seed = 0xfade;
  util::MetricsRegistry metrics;
  ChaosAgent agent(snapshot, nullptr, config, metrics);

  const std::size_t total_bits =
      kClasses * util::words_for_bits(kDim) * 64;
  for (std::size_t i = 0; i < config.steps_to_full + 5; ++i) agent.tick();

  const auto counters = metrics.snapshot();
  EXPECT_EQ(counters.counter("chaos.ticks"),
            config.steps_to_full);  // extra ticks no-op
  EXPECT_TRUE(agent.campaign_done());
  // Fractional carry makes the cumulative schedule exact to within one
  // flip of rate * total_bits.
  const double budget = config.rate * static_cast<double>(total_bits);
  EXPECT_NEAR(static_cast<double>(counters.counter("chaos.flips")), budget,
              1.5);
  EXPECT_EQ(counters.counter("chaos.direct_publishes"),
            counters.counter("chaos.ticks"));
  EXPECT_EQ(counters.counter("chaos.publish_conflicts"), 0u);
  // The damage actually landed on the published model.
  const auto damaged = snapshot.acquire();
  std::size_t changed = 0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    changed += util::hamming(world.model.plane_words(c, 0),
                             damaged->plane_words(c, 0));
  }
  EXPECT_GT(changed, static_cast<std::size_t>(budget) / 2);
}

TEST(ChaosAgent, TargetedCampaignHitsOnlyTheProvidedClassPlane) {
  const auto world = make_world(0xa3a3);
  ModelSnapshot snapshot{model::HdcModel(world.model)};
  ChaosConfig config;
  config.rate = 0.02;
  config.steps_to_full = 10;
  config.mode = fault::AttackMode::kTargeted;
  config.seed = 0x7a57;
  const std::size_t victim = 2;
  util::MetricsRegistry metrics;
  ChaosAgent agent(snapshot, nullptr, config, metrics,
                   [victim] { return victim; });
  while (!agent.campaign_done()) agent.tick();

  const auto damaged = snapshot.acquire();
  for (std::size_t c = 0; c < kClasses; ++c) {
    const auto dist = util::hamming(world.model.plane_words(c, 0),
                                    damaged->plane_words(c, 0));
    if (c == victim) {
      EXPECT_GT(dist, 0u) << "victim plane untouched";
    } else {
      EXPECT_EQ(dist, 0u) << "non-victim class " << c << " was hit";
    }
  }
}

// ------------------------------------------------- full-stack live fire --

TEST(ServerResilience, ChaosScrubberSentinelStressUnderTraffic) {
  const auto world = make_world(0xbeef);
  ServerConfig config;
  config.worker_threads = 3;
  config.max_batch = 16;
  config.batch_linger = std::chrono::microseconds(100);
  config.enable_recovery = true;
  config.scrubber.recovery.chunks = kChunks;
  config.sentinel.enabled = true;
  config.sentinel.period = std::chrono::milliseconds(2);
  config.sentinel.chunks = kChunks;
  config.canaries = world.queries;
  config.canary_labels = world.labels;
  config.chaos.enabled = true;
  config.chaos.rate = 0.03;
  config.chaos.steps_to_full = 60;
  config.chaos.period = std::chrono::microseconds(300);
  config.chaos.mode = fault::AttackMode::kTargeted;  // exercises provider
  Server server(world.model, config);
  ASSERT_NE(server.chaos_agent(), nullptr);

  // Three producers hammer the server while chaos, scrubber and sentinel
  // all run; every accepted request must resolve.
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kPerProducer = 300;
  std::atomic<std::size_t> answered{0};
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const auto& q = world.queries[(t * kPerProducer + i) %
                                      world.queries.size()];
        auto response = server.submit(q).get();
        if (response.abstained || response.predicted >= 0) {
          answered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  EXPECT_EQ(answered.load(), kProducers * kPerProducer);

  server.drain();
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_GT(stats.chaos_ticks, 0u);
  EXPECT_GT(stats.canary_runs, 0u);
  server.shutdown();
  // Post-shutdown stats stay readable and consistent.
  EXPECT_EQ(server.stats().completed, stats.completed);
}

// -------------------------------------------------------------- stats ----

TEST(ServerResilience, ResetStatsZeroesCountersAndKeepsGauges) {
  // A phase is the difference of two snapshots: its counters start from
  // zero and its gauges hold the later reading.
  const auto world = make_world(0xcafe);
  ServerConfig config;
  config.worker_threads = 2;
  Server server(world.model, config);

  std::ignore = server.predict_all(
      std::span<const hv::BinVec>(world.queries.data(), 10));
  server.reload(world.model);
  server.drain();
  const auto before = server.metrics();
  const ServerStats stats(before);
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_EQ(stats.reloads, 1u);
  const auto version = stats.model_version;
  EXPECT_GE(version, 1u);

  ServerStats phase(server.metrics() - before);
  EXPECT_EQ(phase.submitted, 0u);
  EXPECT_EQ(phase.completed, 0u);
  EXPECT_EQ(phase.reloads, 0u);
  EXPECT_EQ(phase.batches, 0u);
  EXPECT_EQ(phase.scrub_offered, 0u);
  EXPECT_EQ(phase.end_to_end.count, 0u);
  EXPECT_EQ(phase.model_version, version);  // gauge: the later reading

  // New work is counted in the phase, and only there.
  const auto response = server.submit(world.queries[0]).get();
  EXPECT_EQ(response.predicted, world.labels[0]);
  server.drain();
  phase = ServerStats(server.metrics() - before);
  EXPECT_EQ(phase.completed, 1u);
  EXPECT_EQ(phase.end_to_end.count, 1u);
  EXPECT_EQ(server.stats().completed, 11u);
  server.shutdown();
}

}  // namespace
}  // namespace robusthd::serve
