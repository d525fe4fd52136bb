// Tests for the RobustHD recovery engine: gating, detection, substitution,
// stability safeguards, and end-to-end healing on a controlled geometry.
#include "robusthd/model/recovery.hpp"

#include <gtest/gtest.h>

#include "robusthd/fault/injector.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd::model {
namespace {

constexpr std::size_t kDim = 4000;
constexpr std::size_t kClasses = 6;

/// Tight-cluster toy geometry: queries agree with their prototype on ~96%
/// of dimensions (the regime where substitution is meaningful).
struct World {
  std::vector<hv::BinVec> prototypes;
  std::vector<hv::BinVec> queries;
  std::vector<int> labels;
  HdcModel model;
};

World make_world(std::uint64_t seed) {
  World w;
  util::Xoshiro256 rng(seed);
  std::vector<hv::BinVec> train;
  std::vector<int> train_labels;
  for (std::size_t c = 0; c < kClasses; ++c) {
    w.prototypes.push_back(hv::BinVec::random(kDim, rng));
  }
  auto noisy = [&](std::size_t c, double p) {
    auto v = w.prototypes[c];
    for (std::size_t d = 0; d < kDim; ++d) {
      if (rng.bernoulli(p)) v.flip(d);
    }
    return v;
  };
  for (std::size_t c = 0; c < kClasses; ++c) {
    for (int i = 0; i < 20; ++i) {
      train.push_back(noisy(c, 0.04));
      train_labels.push_back(static_cast<int>(c));
    }
    for (int i = 0; i < 40; ++i) {
      w.queries.push_back(noisy(c, 0.04));
      w.labels.push_back(static_cast<int>(c));
    }
  }
  w.model = HdcModel::train(train, train_labels, kClasses, {});
  return w;
}

TEST(RecoveryEngine, RejectsMultibitModels) {
  util::Xoshiro256 rng(1);
  std::vector<hv::BinVec> train{hv::BinVec::random(256, rng),
                                hv::BinVec::random(256, rng)};
  std::vector<int> labels{0, 1};
  HdcConfig config;
  config.precision_bits = 2;
  auto model = HdcModel::train(train, labels, 2, config);
  EXPECT_THROW(RecoveryEngine(model, {}), std::invalid_argument);
}

TEST(RecoveryEngine, RejectsBadChunkCounts) {
  util::Xoshiro256 rng(2);
  std::vector<hv::BinVec> train{hv::BinVec::random(256, rng),
                                hv::BinVec::random(256, rng)};
  std::vector<int> labels{0, 1};
  auto model = HdcModel::train(train, labels, 2, {});
  RecoveryConfig zero;
  zero.chunks = 0;
  EXPECT_THROW(RecoveryEngine(model, zero), std::invalid_argument);
  RecoveryConfig huge;
  huge.chunks = 10000;
  EXPECT_THROW(RecoveryEngine(model, huge), std::invalid_argument);
}

TEST(RecoveryEngine, ChunkRangesTileTheDimension) {
  auto world = make_world(3);
  RecoveryConfig config;
  config.chunks = 7;  // does not divide kDim
  RecoveryEngine engine(world.model, config);
  std::size_t covered = 0;
  std::size_t prev_end = 0;
  for (std::size_t c = 0; c < 7; ++c) {
    const auto [begin, end] = engine.chunk_range(c);
    EXPECT_EQ(begin, prev_end);
    EXPECT_GT(end, begin);
    covered += end - begin;
    prev_end = end;
  }
  EXPECT_EQ(covered, kDim);
}

TEST(RecoveryEngine, HealthyModelIsLeftAlone) {
  auto world = make_world(4);
  const auto snapshot = world.model;
  RecoveryEngine engine(world.model, {});
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (const auto& q : world.queries) engine.observe(q);
  }
  // A clean model must not accumulate meaningful rewrites.
  EXPECT_LT(engine.total_substituted_bits(), kDim / 50);
  EXPECT_GE(world.model.evaluate(world.queries, world.labels),
            snapshot.evaluate(world.queries, world.labels) - 0.01);
}

TEST(RecoveryEngine, ObserveReportsPrediction) {
  auto world = make_world(5);
  RecoveryEngine engine(world.model, {});
  // Warm the per-class statistics first.
  for (const auto& q : world.queries) engine.observe(q);
  for (std::size_t i = 0; i < 20; ++i) {
    const auto obs = engine.observe(world.queries[i]);
    EXPECT_EQ(obs.predicted, world.labels[i]);
    EXPECT_GT(obs.confidence, 0.5);
  }
}

TEST(RecoveryEngine, RepairsClusteredDamage) {
  auto world = make_world(6);
  const auto clean_model = world.model;  // pre-attack snapshot
  const double clean = world.model.evaluate(world.queries, world.labels);
  util::Xoshiro256 rng(7);
  auto regions = world.model.memory_regions();
  fault::BitFlipInjector::inject(regions, 0.20,
                                 fault::AttackMode::kClustered, rng);
  const auto attacked_model = world.model;  // snapshot for comparison
  // Generous repair throughput: this test verifies that substitution
  // genuinely regenerates damaged planes, not the default conservatism.
  RecoveryConfig generous;
  generous.max_updates_per_chunk = 0;
  generous.repair_balance_slack = 4;
  generous.max_total_substitution_fraction = 0.5;
  RecoveryEngine engine(world.model, generous);
  for (int epoch = 0; epoch < 25; ++epoch) {
    for (const auto& q : world.queries) engine.observe(q);
  }
  EXPECT_GT(engine.total_substituted_bits(), 0u);
  // Bit-level agreement with the clean *trained* planes improved
  // (substitution regenerates what training stored, not the latent
  // generative prototypes).
  double before = 0.0, after = 0.0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    const auto clean = clean_model.class_vector(c).planes[0].to_binvec();
    before += hv::similarity(
        attacked_model.class_vector(c).planes[0].to_binvec(), clean);
    after +=
        hv::similarity(world.model.class_vector(c).planes[0].to_binvec(), clean);
  }
  EXPECT_GT(after, before + 0.005 * kClasses);
  // And accuracy did not degrade relative to the attacked model.
  EXPECT_GE(world.model.evaluate(world.queries, world.labels),
            attacked_model.evaluate(world.queries, world.labels) - 0.01);
  EXPECT_GE(world.model.evaluate(world.queries, world.labels), clean - 0.05);
}

TEST(RecoveryEngine, RepairsAreClassBalanced) {
  auto world = make_world(8);
  util::Xoshiro256 rng(9);
  auto regions = world.model.memory_regions();
  fault::BitFlipInjector::inject(regions, 0.15,
                                 fault::AttackMode::kClustered, rng);
  RecoveryConfig config;
  RecoveryEngine engine(world.model, config);
  std::vector<int> per_class(kClasses, 0);
  for (int epoch = 0; epoch < 12; ++epoch) {
    for (std::size_t i = 0; i < world.queries.size(); ++i) {
      const auto obs = engine.observe(world.queries[i]);
      if (obs.substituted_bits > 0) {
        ++per_class[static_cast<std::size_t>(obs.predicted)];
      }
    }
  }
  const auto [min_it, max_it] =
      std::minmax_element(per_class.begin(), per_class.end());
  // Balanced repair keeps classes within slack+1 of each other over the
  // committed substitutions.
  EXPECT_LE(*max_it - *min_it,
            static_cast<int>(config.repair_balance_slack) + 1);
}

TEST(RecoveryEngine, SubstitutionProbabilityZeroChangesNothing) {
  auto world = make_world(10);
  util::Xoshiro256 rng(11);
  auto regions = world.model.memory_regions();
  fault::BitFlipInjector::inject(regions, 0.10,
                                 fault::AttackMode::kClustered, rng);
  RecoveryConfig config;
  config.substitution_prob = 0.0;
  RecoveryEngine engine(world.model, config);
  for (const auto& q : world.queries) engine.observe(q);
  EXPECT_EQ(engine.total_substituted_bits(), 0u);
}

TEST(RecoveryEngine, ConfidenceGateBlocksEverythingAtOne) {
  auto world = make_world(12);
  util::Xoshiro256 rng(13);
  auto regions = world.model.memory_regions();
  fault::BitFlipInjector::inject(regions, 0.10,
                                 fault::AttackMode::kClustered, rng);
  RecoveryConfig config;
  config.confidence_threshold = 1.01;  // nothing can pass
  RecoveryEngine engine(world.model, config);
  for (const auto& q : world.queries) engine.observe(q);
  EXPECT_EQ(engine.total_updates(), 0u);
  EXPECT_EQ(engine.total_substituted_bits(), 0u);
}

TEST(RecoveryEngine, TotalUpdatesCountsOnlyAppliedRepairs) {
  // Regression: observe() used to bump total_updates_ whenever a chunk
  // was *flagged*, even when every flag was gated out (consensus,
  // budgets, balance) and no repair touched the model. Consumers — the
  // serve-layer stats, the recover CLI — read total_updates() as repair
  // activity, so detection-only passes must leave it at zero.
  auto world = make_world(16);
  util::Xoshiro256 rng(17);
  auto regions = world.model.memory_regions();
  fault::BitFlipInjector::inject(regions, 0.15,
                                 fault::AttackMode::kClustered, rng);

  RecoveryConfig config;
  config.consensus_flags = 1000;  // never reached: flags only buffer
  RecoveryEngine engine(world.model, config);
  std::size_t flags = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (const auto& q : world.queries) flags += engine.observe(q).faulty_chunks;
  }
  EXPECT_GT(flags, 0u);  // damage was detected...
  EXPECT_EQ(engine.total_updates(), 0u);  // ...but nothing was repaired
  EXPECT_EQ(engine.total_substituted_bits(), 0u);
}

TEST(RecoveryEngine, TotalUpdatesMatchesObservedRepairs) {
  // With single-query substitution at probability 1, a repair is applied
  // exactly when observe() reports substituted bits — total_updates()
  // must agree with that count observation by observation.
  auto world = make_world(18);
  util::Xoshiro256 rng(19);
  auto regions = world.model.memory_regions();
  fault::BitFlipInjector::inject(regions, 0.15,
                                 fault::AttackMode::kClustered, rng);

  RecoveryConfig config;
  config.consensus_flags = 1;
  config.substitution_prob = 1.0;
  RecoveryEngine engine(world.model, config);
  std::size_t applied = 0;
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (const auto& q : world.queries) {
      if (engine.observe(q).substituted_bits > 0) ++applied;
    }
  }
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(engine.total_updates(), applied);
}

TEST(RecoveryEngine, GlobalBudgetBoundsRewrites) {
  auto world = make_world(14);
  util::Xoshiro256 rng(15);
  auto regions = world.model.memory_regions();
  fault::BitFlipInjector::inject(regions, 0.25,
                                 fault::AttackMode::kClustered, rng);
  RecoveryConfig config;
  config.max_total_substitution_fraction = 0.002;
  config.max_updates_per_chunk = 0;  // no per-chunk cap
  RecoveryEngine engine(world.model, config);
  for (int epoch = 0; epoch < 20; ++epoch) {
    for (const auto& q : world.queries) engine.observe(q);
  }
  const auto cap = static_cast<std::size_t>(0.002 * kDim * kClasses);
  // One final in-flight repair may overshoot the cap by at most a chunk.
  EXPECT_LE(engine.total_substituted_bits(), cap + kDim / 10);
}

}  // namespace
}  // namespace robusthd::model
