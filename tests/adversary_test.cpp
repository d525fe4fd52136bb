// Tests for the adversarial input-space layer: the gradient-free attack
// generators (greedy bit-flip, genetic feature search), the TrustGate's
// three admission checks (margin floor, per-class fair share, canary
// agreement), the PoisonCampaign against a live server in shadow and
// enforce modes, sentinel quarantine of poisoning-induced drift, and the
// full concurrent stack (scrubber + sentinel + chaos + campaign) for the
// TSan gate.
#include "robusthd/adversary/attacks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

#include "robusthd/adversary/poison.hpp"
#include "robusthd/hv/encoder.hpp"
#include "robusthd/model/confidence.hpp"
#include "robusthd/serve/server.hpp"
#include "robusthd/serve/trust_gate.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd {
namespace {

constexpr std::size_t kDim = 2000;
constexpr std::size_t kClasses = 5;
constexpr std::size_t kChunks = 20;

/// Same tight-cluster geometry the serve/resilience suites use: queries
/// agree with their prototype on ~96% of dimensions, clean accuracy ~1.0.
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

double accuracy(const model::HdcModel& model,
                const std::vector<hv::BinVec>& queries,
                const std::vector<int>& labels) {
  return model.evaluate(queries, labels);
}

// ------------------------------------------------------ bit-flip attack --

TEST(BitFlipAttack, FlipsPredictionWithinBudget) {
  const auto world = make_world(0xa1);
  const auto& query = world.queries.front();
  ASSERT_EQ(world.model.predict(query), world.labels.front());

  // Tight clusters put the winner ~0.46 similarity above the runner-up,
  // so flipping it takes ~margin * D / 2 leverage bits. 600 is enough
  // with slack; 16 is not even close.
  adversary::BitFlipConfig config;
  config.max_flips = 600;
  const auto result = adversary::greedy_bit_flip(world.model, query, config);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.original_prediction, world.labels.front());
  EXPECT_NE(result.final_prediction, result.original_prediction);
  EXPECT_LE(result.flips_used, config.max_flips);
  // The reported adversarial vector really is within the Hamming budget
  // and really does flip the model.
  EXPECT_LE(hv::hamming(query, result.adversarial), config.max_flips);
  EXPECT_EQ(world.model.predict(result.adversarial), result.final_prediction);

  adversary::BitFlipConfig tiny;
  tiny.max_flips = 16;
  const auto blocked = adversary::greedy_bit_flip(world.model, query, tiny);
  EXPECT_FALSE(blocked.success);
}

TEST(BitFlipAttack, TargetedLandsOnRequestedClass) {
  const auto world = make_world(0xa2);
  const auto& query = world.queries.front();
  const int origin = world.model.predict(query);
  const int target = (origin + 2) % static_cast<int>(kClasses);

  adversary::BitFlipConfig config;
  config.max_flips = 800;
  config.target = target;
  const auto result = adversary::greedy_bit_flip(world.model, query, config);
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(result.hit_target);
  EXPECT_EQ(result.final_prediction, target);
}

TEST(BitFlipAttack, SuccessRateMonotoneInBudget) {
  const auto world = make_world(0xa3, 6);
  std::vector<hv::BinVec> sample(world.queries.begin(),
                                 world.queries.begin() + 10);
  const auto none = adversary::bit_flip_success(world.model, sample, 0, 0.88);
  const auto small =
      adversary::bit_flip_success(world.model, sample, 64, 0.88);
  const auto big = adversary::bit_flip_success(world.model, sample, 700, 0.88);
  EXPECT_EQ(none.any, 0.0);
  EXPECT_LE(small.any, big.any);
  EXPECT_GT(big.any, 0.9);
  // Abstention is a real (partial) defense: the confident success rate can
  // never exceed the raw one.
  EXPECT_LE(big.confident, big.any);
}

// ------------------------------------------------------- genetic attack --

TEST(GeneticAttack, FlipsPredictionThroughEncoder) {
  // Two feature-space clusters close enough that an epsilon-ball search
  // can cross the boundary: class 0 near 0.42, class 1 near 0.58.
  constexpr std::size_t kFeatures = 16;
  hv::EncoderConfig encoder_config;
  encoder_config.dimension = kDim;
  hv::RecordEncoder encoder(kFeatures, encoder_config);

  util::Xoshiro256 rng(0xb1);
  std::vector<hv::BinVec> train;
  std::vector<int> labels;
  auto sample = [&](double center) {
    std::vector<float> f(kFeatures);
    for (auto& v : f) {
      v = static_cast<float>(center + rng.uniform(-0.05, 0.05));
    }
    return f;
  };
  for (int i = 0; i < 40; ++i) {
    train.push_back(encoder.encode(sample(0.42)));
    labels.push_back(0);
    train.push_back(encoder.encode(sample(0.58)));
    labels.push_back(1);
  }
  const auto model = model::HdcModel::train(train, labels, 2, {});

  const auto victim = sample(0.42);
  ASSERT_EQ(model.predict(encoder.encode(victim)), 0);

  adversary::GeneticConfig config;
  config.epsilon = 0.20;
  config.population = 16;
  config.generations = 30;
  config.seed = 0xb2;
  const auto result =
      adversary::genetic_feature_attack(model, encoder, victim, config);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.original_prediction, 0);
  EXPECT_EQ(result.final_prediction, 1);
  EXPECT_LE(result.linf, config.epsilon + 1e-6);
  // The reported feature vector reproduces the flip end-to-end.
  EXPECT_EQ(model.predict(encoder.encode(result.adversarial)), 1);
}

// ----------------------------------------------------------- trust gate --

serve::TrustGateConfig gate_config(bool enforce) {
  serve::TrustGateConfig config;
  config.enabled = true;
  config.enforce = enforce;
  config.chunks = kChunks;
  return config;
}

TEST(TrustGate, CentroidIsThePerBitMajority) {
  // Class c gets 2 + c canaries (even counts make ties; c = 4 gets none),
  // plus canaries the gate must ignore: a label out of range and a
  // mismatched dimension.
  util::Xoshiro256 rng(0xce);
  std::vector<hv::BinVec> canaries;
  std::vector<int> labels;
  for (std::size_t c = 0; c + 1 < kClasses; ++c) {
    for (std::size_t i = 0; i < 2 + c; ++i) {
      canaries.push_back(hv::BinVec::random(kDim, rng));
      labels.push_back(static_cast<int>(c));
    }
  }
  canaries.push_back(hv::BinVec::random(kDim, rng));
  labels.push_back(static_cast<int>(kClasses));
  canaries.push_back(hv::BinVec::random(kDim + 1, rng));
  labels.push_back(0);
  util::MetricsRegistry metrics;
  const serve::TrustGate gate(gate_config(true), kClasses, kDim, canaries,
                              labels, metrics);
  for (std::size_t c = 0; c < kClasses; ++c) {
    std::size_t members = 0;
    std::vector<std::size_t> ones(kDim, 0);
    for (std::size_t i = 0; i < canaries.size(); ++i) {
      if (labels[i] != static_cast<int>(c) ||
          canaries[i].dimension() != kDim) {
        continue;
      }
      ++members;
      for (std::size_t b = 0; b < kDim; ++b) ones[b] += canaries[i].get(b);
    }
    ASSERT_EQ(members, c + 1 < kClasses ? 2 + c : 0) << "class " << c;
    if (members == 0) {
      EXPECT_TRUE(gate.centroid(c).empty()) << "class " << c;
      continue;
    }
    // Bit b is set iff more than half the members have it; a tie is 0.
    hv::BinVec expected(kDim);
    std::size_t ties = 0;
    for (std::size_t b = 0; b < kDim; ++b) {
      if (2 * ones[b] > members) expected.set(b, true);
      ties += 2 * ones[b] == members ? 1 : 0;
    }
    EXPECT_EQ(ties > 0, members % 2 == 0) << "class " << c;
    EXPECT_EQ(gate.centroid(c), expected)
        << "class " << c << " members " << members << " ties " << ties;
  }
}

TEST(TrustGate, AcceptsNaturalTraffic) {
  const auto world = make_world(0xc1);
  util::MetricsRegistry metrics;
  serve::TrustGate gate(gate_config(true), kClasses, kDim, world.queries,
                        world.labels, metrics);
  model::ConfidenceConfig confidence;
  for (std::size_t i = 0; i < world.queries.size(); ++i) {
    const auto scores = world.model.scores(world.queries[i]);
    const auto conf = model::assess(scores, confidence, kDim);
    const auto verdict =
        gate.check(world.queries[i], conf.predicted, conf.margin);
    EXPECT_TRUE(verdict.accept);
    EXPECT_FALSE(verdict.suspect);
  }
  const auto counters = metrics.snapshot();
  EXPECT_EQ(counters.counter("gate.checked"), world.queries.size());
  EXPECT_EQ(counters.counter("gate.poisoned_offers"), 0u);
  EXPECT_EQ(counters.counter("gate.rejects"), 0u);
}

TEST(TrustGate, RejectsPoisonQueriesByCanaryAgreement) {
  const auto world = make_world(0xc2);
  util::MetricsRegistry metrics;
  serve::TrustGate gate(gate_config(true), kClasses, kDim, world.queries,
                        world.labels, metrics);

  adversary::PoisonConfig poison;
  poison.chunks = kChunks;
  adversary::PoisonCampaign campaign(world.model, poison);
  const auto wave = campaign.craft_wave();
  ASSERT_FALSE(wave.empty());

  model::ConfidenceConfig confidence;
  std::size_t rejected = 0;
  for (const auto& query : wave) {
    const auto scores = world.model.scores(query);
    const auto conf = model::assess(scores, confidence, kDim);
    // The poison query still reads as high-confidence, on-margin traffic —
    // that is the whole point of the attack...
    EXPECT_GT(conf.top_probability, 0.88);
    const auto verdict = gate.check(query, conf.predicted, conf.margin);
    // ...but its payload chunk sits at chance agreement with the class
    // centroid, which the gate flags and (enforcing) rejects.
    EXPECT_TRUE(verdict.suspect);
    if (!verdict.accept) ++rejected;
  }
  EXPECT_EQ(rejected, wave.size());
  const auto counters = metrics.snapshot();
  EXPECT_EQ(counters.counter("gate.poisoned_offers"), wave.size());
  EXPECT_EQ(counters.counter("gate.rejects"), wave.size());
}

TEST(TrustGate, RelativeGapCatchesLocalizedDisagreement) {
  // A payload chunk whose bits are merely *correlated* with the victim —
  // the real-dataset regime, where cross-class plane agreement sits near
  // 0.8 and the absolute chance-floor never fires. The relative criterion
  // flags the localized deficit against the query's own clean chunks.
  const auto world = make_world(0xc6);
  util::MetricsRegistry metrics;
  serve::TrustGate gate(gate_config(true), kClasses, kDim, world.queries,
                        world.labels, metrics);

  auto query = gate.centroid(0);
  ASSERT_FALSE(query.empty());
  const std::size_t begin = 7 * kDim / kChunks;
  const std::size_t end = 8 * kDim / kChunks;
  // Flip exactly 30% of the chunk: agreement 0.70, safely above the 0.6
  // absolute floor yet far below the clean chunks' 1.0.
  const std::size_t payload = (end - begin) * 3 / 10;
  for (std::size_t b = begin; b < begin + payload; ++b) query.flip(b);
  const auto conf = model::assess(world.model.scores(query), {}, kDim);
  ASSERT_EQ(conf.predicted, 0);

  const auto verdict = gate.check(query, conf.predicted, conf.margin);
  EXPECT_TRUE(verdict.suspect);
  EXPECT_FALSE(verdict.accept);

  // With the relative criterion disabled the same query sails through:
  // the absolute floor alone cannot see correlated payloads.
  auto lax_config = gate_config(true);
  lax_config.relative_gap = 0.0;
  util::MetricsRegistry lax_metrics;
  serve::TrustGate lax(lax_config, kClasses, kDim, world.queries,
                       world.labels, lax_metrics);
  const auto lax_verdict = lax.check(query, conf.predicted, conf.margin);
  EXPECT_FALSE(lax_verdict.suspect);
  EXPECT_TRUE(lax_verdict.accept);
}

TEST(TrustGate, ShadowModeObservesWithoutRejecting) {
  const auto world = make_world(0xc3);
  util::MetricsRegistry metrics;
  serve::TrustGate gate(gate_config(false), kClasses, kDim, world.queries,
                        world.labels, metrics);

  adversary::PoisonConfig poison;
  poison.chunks = kChunks;
  adversary::PoisonCampaign campaign(world.model, poison);
  const auto wave = campaign.craft_wave();

  model::ConfidenceConfig confidence;
  for (const auto& query : wave) {
    const auto scores = world.model.scores(query);
    const auto conf = model::assess(scores, confidence, kDim);
    const auto verdict = gate.check(query, conf.predicted, conf.margin);
    EXPECT_TRUE(verdict.accept);  // shadow mode admits everything
    EXPECT_TRUE(verdict.suspect); // ...but still tags it
  }
  const auto counters = metrics.snapshot();
  EXPECT_EQ(counters.counter("gate.poisoned_offers"), wave.size());
  EXPECT_EQ(counters.counter("gate.rejects"), 0u);
}

TEST(TrustGate, MarginFloorRejectsLowMarginQueries) {
  const auto world = make_world(0xc4);
  util::MetricsRegistry metrics;
  serve::TrustGate gate(gate_config(true), kClasses, kDim, world.queries,
                        world.labels, metrics);
  util::Xoshiro256 rng(7);
  // A random vector sits at ~0.5 similarity to every class: its margin is
  // pure noise, far under the 4-sigma floor.
  const auto junk = hv::BinVec::random(kDim, rng);
  const auto scores = world.model.scores(junk);
  const auto conf = model::assess(scores, {}, kDim);
  const auto verdict = gate.check(junk, conf.predicted, conf.margin);
  EXPECT_FALSE(verdict.accept);
  EXPECT_GT(metrics.snapshot().counter("gate.margin_rejects"), 0u);
}

// The satellite regression test: before the gate, a single hot class
// could monopolize the trust ring without bound. The fair-share window
// caps its admissions while leaving other classes admissible.
TEST(TrustGate, HotClassCannotMonopolizeAdmission) {
  const auto world = make_world(0xc5);
  auto config = gate_config(true);
  config.rate_window = 64;
  config.fair_share_factor = 1.0;
  config.min_class_share = 4;  // cap = max(4, 64/5) = 12 per window
  util::MetricsRegistry metrics;
  serve::TrustGate gate(config, kClasses, kDim, world.queries, world.labels,
                        metrics);

  model::ConfidenceConfig confidence;
  auto offer = [&](const hv::BinVec& query) {
    const auto scores = world.model.scores(query);
    const auto conf = model::assess(scores, confidence, kDim);
    return gate.check(query, conf.predicted, conf.margin).accept;
  };

  // 100 offers of (noisy variants of) class 0 only.
  util::Xoshiro256 rng(0xc6);
  std::size_t hot_accepted = 0;
  for (int i = 0; i < 100; ++i) {
    auto query = world.queries[0];
    for (std::size_t d = 0; d < kDim; ++d) {
      if (rng.bernoulli(0.01)) query.flip(d);
    }
    if (offer(query)) ++hot_accepted;
  }
  EXPECT_LT(hot_accepted, 40u);  // well under the 100 a gateless ring takes
  EXPECT_GT(metrics.snapshot().counter("gate.rate_rejects"), 0u);

  // Other classes are still admissible right now — fairness, not a
  // global brake.
  std::size_t other_accepted = 0;
  for (std::size_t i = 0; i < world.queries.size(); ++i) {
    if (world.labels[i] == 0) continue;
    if (offer(world.queries[i])) ++other_accepted;
  }
  EXPECT_GT(other_accepted, 0u);
}

// -------------------------------------------------- poison vs the server --

serve::ServerConfig poisoned_server_config(const World& world, bool enforce) {
  serve::ServerConfig config;
  config.worker_threads = 2;
  config.scrubber.recovery.chunks = kChunks;
  config.scrubber.gate = gate_config(enforce);
  config.canaries = world.queries;
  config.canary_labels = world.labels;
  return config;
}

TEST(PoisonCampaign, ShadowModePoisonsRecoveryEngineAndSentinelCatchesIt) {
  const auto world = make_world(0xd1);
  const auto blessed = world.model;

  auto config = poisoned_server_config(world, /*enforce=*/false);
  config.sentinel.enabled = true;
  config.sentinel.period = std::chrono::milliseconds(0);  // manual rounds
  config.sentinel.chunks = kChunks;
  serve::Server server(world.model, config);

  // Warm the engine's per-class similarity stats (its absolute gate needs
  // ten observations per class before any repair can commit).
  (void)server.predict_all(world.queries);
  server.drain();

  adversary::PoisonConfig poison;
  poison.chunks = kChunks;
  poison.waves = 12;
  adversary::PoisonCampaign campaign(blessed, poison);
  const auto report = campaign.run(server);
  EXPECT_EQ(report.answered, report.sent);
  EXPECT_GT(report.trusted, 0u);

  server.drain();
  const auto stats = server.stats();
  // The gate saw the poison (shadow mode counts it)...
  EXPECT_GT(stats.poisoned_offers, 0u);
  EXPECT_EQ(stats.gate_rejects, 0u);
  // ...and without enforcement the engine substituted wrong bits on the
  // suspects' behalf: the self-healing loop was successfully attacked.
  EXPECT_GT(stats.suspect_substitutions, 0u);
  const auto wrong =
      adversary::PoisonCampaign::wrong_bits(blessed, *server.current_model());
  EXPECT_GT(wrong, 0u);

  // Poisoning-induced drift trips quarantine exactly like memory damage:
  // the sentinel measures the stored planes against its blessed reference,
  // and wrong-bit substitution moved them.
  auto* sentinel = server.sentinel();
  ASSERT_NE(sentinel, nullptr);
  sentinel->run_round();
  sentinel->run_round();  // bad_streak = 2
  EXPECT_GT(server.stats().quarantined_chunks, 0u);

  server.shutdown();
}

TEST(PoisonCampaign, EnforcedGateDefendsTheRecoveryEngine) {
  const auto world = make_world(0xd2);
  const auto blessed = world.model;
  const double clean_accuracy = accuracy(blessed, world.queries, world.labels);

  serve::Server server(world.model,
                       poisoned_server_config(world, /*enforce=*/true));
  (void)server.predict_all(world.queries);
  server.drain();

  adversary::PoisonConfig poison;
  poison.chunks = kChunks;
  poison.waves = 12;
  adversary::PoisonCampaign campaign(blessed, poison);
  (void)campaign.run(server);
  server.drain();

  const auto stats = server.stats();
  // The same campaign that poisons the shadow-mode server is stopped at
  // admission: every suspect is rejected before it reaches the ring, so
  // no suspect ever contributes a substitution.
  EXPECT_GT(stats.gate_rejects, 0u);
  EXPECT_EQ(stats.suspect_substitutions, 0u);
  const auto wrong =
      adversary::PoisonCampaign::wrong_bits(blessed, *server.current_model());
  EXPECT_EQ(wrong, 0u);

  // Live accuracy holds through (and after) the campaign.
  const double defended_accuracy =
      accuracy(*server.current_model(), world.queries, world.labels);
  EXPECT_GE(defended_accuracy, clean_accuracy - 0.01);

  server.shutdown();
}

// Full concurrent stack under attack — the TSan gate for this subsystem:
// scrubber (repairs), sentinel (rounds on its own thread), chaos agent
// (memory attacks through the scrub thread), natural traffic and a poison
// campaign all running at once.
TEST(AdversaryStress, CampaignAgainstFullResilienceStack) {
  const auto world = make_world(0xd3);
  const auto blessed = world.model;

  auto config = poisoned_server_config(world, /*enforce=*/true);
  config.sentinel.enabled = true;
  config.sentinel.period = std::chrono::milliseconds(5);
  config.sentinel.chunks = kChunks;
  config.chaos.enabled = true;
  config.chaos.rate = 0.02;
  config.chaos.steps_to_full = 50;
  config.chaos.period = std::chrono::microseconds(2000);
  serve::Server server(world.model, config);

  std::atomic<bool> stop{false};
  std::thread traffic([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)server.predict_all(world.queries);
    }
  });

  adversary::PoisonConfig poison;
  poison.chunks = kChunks;
  poison.waves = 6;
  adversary::PoisonCampaign campaign(blessed, poison);
  const auto report = campaign.run(server);
  EXPECT_EQ(report.answered, report.sent);

  stop.store(true, std::memory_order_release);
  traffic.join();
  server.drain();
  const auto stats = server.stats();
  EXPECT_EQ(stats.suspect_substitutions, 0u);  // gate enforced throughout
  server.shutdown();
}

}  // namespace
}  // namespace robusthd
