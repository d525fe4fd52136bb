// Tests for the SECDED-protected model deployment.
#include "robusthd/core/protected_model.hpp"

#include <gtest/gtest.h>

#include "robusthd/data/synthetic.hpp"
#include "robusthd/core/hdc_classifier.hpp"
#include "robusthd/fault/injector.hpp"

namespace robusthd::core {
namespace {

model::HdcModel small_model() {
  const auto spec = data::scaled(data::dataset_by_name("PAMAP"), 300, 100);
  const auto split = data::make_synthetic(spec);
  HdcClassifierConfig config;
  config.encoder.dimension = 2000;
  return HdcClassifier::train(split.train, config).model();
}

TEST(EccProtectedModel, CleanScrubIsIdentity) {
  auto model = small_model();
  const auto snapshot = model;
  EccProtectedModel protect(model);
  const auto report = protect.scrub_and_refresh();
  EXPECT_EQ(report.corrected, 0u);
  EXPECT_EQ(report.uncorrectable, 0u);
  for (std::size_t c = 0; c < model.num_classes(); ++c) {
    EXPECT_EQ(model.class_vector(c).planes[0].to_binvec(),
              snapshot.class_vector(c).planes[0].to_binvec());
  }
}

TEST(EccProtectedModel, StorageCarriesOverhead) {
  auto model = small_model();
  EccProtectedModel protect(model);
  std::size_t raw_bits = 0;
  for (const auto& region : model.memory_regions()) {
    raw_bits += region.bit_count();
  }
  EXPECT_GT(protect.stored_bits(), raw_bits);
  // SECDED(72,64): exactly 12.5% on the padded words.
  EXPECT_NEAR(static_cast<double>(protect.stored_bits()) /
                  static_cast<double>(raw_bits),
              1.125, 0.01);
}

TEST(EccProtectedModel, RepairsTraceLevelErrors) {
  auto model = small_model();
  const auto snapshot = model;
  EccProtectedModel protect(model);
  util::Xoshiro256 rng(1);
  auto regions = protect.memory_regions();
  fault::BitFlipInjector::inject_bit_errors(regions, 0.0003, rng);
  const auto report = protect.scrub_and_refresh();
  EXPECT_GT(report.corrected, 0u);
  EXPECT_EQ(report.uncorrectable, 0u);
  // Model fully restored.
  for (std::size_t c = 0; c < model.num_classes(); ++c) {
    EXPECT_EQ(hv::hamming_range(model.plane_words(c, 0),
                                snapshot.plane_words(c, 0), 0,
                                model.dimension()),
              0u);
  }
}

TEST(EccProtectedModel, PercentBerLeavesResidualDamage) {
  auto model = small_model();
  const auto snapshot = model;
  EccProtectedModel protect(model);
  util::Xoshiro256 rng(2);
  auto regions = protect.memory_regions();
  fault::BitFlipInjector::inject_bit_errors(regions, 0.04, rng);
  const auto report = protect.scrub_and_refresh();
  EXPECT_GT(report.uncorrectable, report.clean / 4);
  std::size_t residual = 0;
  for (std::size_t c = 0; c < model.num_classes(); ++c) {
    residual += hv::hamming_range(model.plane_words(c, 0),
                                  snapshot.plane_words(c, 0), 0,
                                  model.dimension());
  }
  EXPECT_GT(residual, 0u);
}

TEST(EccProtectedModel, ScrubbedModelScoresItsOwnBits) {
  auto model = small_model();
  EccProtectedModel protect(model);
  util::Xoshiro256 rng(3);
  auto regions = protect.memory_regions();
  fault::BitFlipInjector::inject_bit_errors(regions, 0.04, rng);
  protect.scrub_and_refresh();

  // The scrub wrote residual damage into the model's planes; batch and
  // per-query scoring, and a model rebuilt from copies of the same bits,
  // all agree.
  std::vector<hv::BinVec> queries;
  for (int i = 0; i < 20; ++i) {
    queries.push_back(hv::BinVec::random(model.dimension(), rng));
  }
  std::vector<const hv::BinVec*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);
  model::ScoreWorkspace ws;
  model.scores_batch(ptrs, ws);
  std::vector<model::ClassVector> copies(model.num_classes());
  for (std::size_t c = 0; c < model.num_classes(); ++c) {
    copies[c].planes.push_back(model.class_vector(c).planes[0].to_binvec());
  }
  model::ScoreWorkspace rebuilt;
  model::HdcModel::from_planes(copies, 1).scores_batch(ptrs, rebuilt);
  EXPECT_EQ(ws.scores, rebuilt.scores);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto expected = model.scores(queries[i]);
    for (std::size_t c = 0; c < model.num_classes(); ++c) {
      ASSERT_EQ(ws.scores[i * model.num_classes() + c], expected[c]);
    }
  }
}

TEST(EccProtectedModel, AttackSurfaceIncludesChecks) {
  auto model = small_model();
  EccProtectedModel protect(model);
  const auto regions = protect.memory_regions();
  // One data + one check region per (class, plane).
  EXPECT_EQ(regions.size(), 2 * model.num_classes());
  std::size_t check_bits = 0;
  for (const auto& region : regions) {
    if (region.name.find("check") != std::string::npos) {
      check_bits += region.bit_count();
    }
  }
  EXPECT_GT(check_bits, 0u);
}

}  // namespace
}  // namespace robusthd::core
