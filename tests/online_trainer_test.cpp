// Tests for the OnlineHD-style single-pass trainer.
#include "robusthd/model/online_trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "robusthd/util/rng.hpp"

namespace robusthd::model {
namespace {

constexpr std::size_t kDim = 2048;

struct Stream {
  std::vector<hv::BinVec> samples;
  std::vector<int> labels;
};

Stream make_stream(std::size_t classes, std::size_t per_class, double noise,
                   std::uint64_t seed, std::size_t dim = kDim) {
  Stream s;
  util::Xoshiro256 rng(seed);
  std::vector<hv::BinVec> prototypes;
  for (std::size_t c = 0; c < classes; ++c) {
    prototypes.push_back(hv::BinVec::random(dim, rng));
  }
  std::vector<std::size_t> order;
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) order.push_back(c);
  }
  util::shuffle(std::span<std::size_t>(order), rng);
  for (const auto c : order) {
    auto v = prototypes[c];
    for (std::size_t d = 0; d < dim; ++d) {
      if (rng.bernoulli(noise)) v.flip(d);
    }
    s.samples.push_back(std::move(v));
    s.labels.push_back(static_cast<int>(c));
  }
  return s;
}

TEST(OnlineTrainer, LearnsInOnePass) {
  const auto stream = make_stream(5, 40, 0.15, 1);
  OnlineTrainer trainer(kDim, 5);
  for (std::size_t i = 0; i < stream.samples.size(); ++i) {
    trainer.observe(stream.samples[i], stream.labels[i]);
  }
  EXPECT_EQ(trainer.observed(), stream.samples.size());
  const auto model = trainer.deploy();
  EXPECT_GE(model.evaluate(stream.samples, stream.labels), 0.98);
}

TEST(OnlineTrainer, PrequentialAccuracyImproves) {
  const auto stream = make_stream(4, 100, 0.2, 2);
  OnlineTrainer trainer(kDim, 4);
  std::size_t early_correct = 0, late_correct = 0;
  const std::size_t n = stream.samples.size();
  for (std::size_t i = 0; i < n; ++i) {
    const int guess = trainer.observe(stream.samples[i], stream.labels[i]);
    const bool correct = guess == stream.labels[i];
    if (i < n / 4) early_correct += correct;
    if (i >= 3 * n / 4) late_correct += correct;
  }
  EXPECT_GT(late_correct, early_correct);
  EXPECT_GT(late_correct, (n / 4) * 9 / 10);  // >90% by the end
}

TEST(OnlineTrainer, FamiliarSamplesStopUpdating) {
  // Feeding the exact same sample repeatedly: after it is absorbed, the
  // (1 - similarity) weight goes to ~0 and mistakes stay at <=1.
  util::Xoshiro256 rng(3);
  const auto v = hv::BinVec::random(kDim, rng);
  OnlineTrainer trainer(kDim, 2);
  for (int i = 0; i < 50; ++i) trainer.observe(v, 0);
  EXPECT_LE(trainer.mistakes(), 1u);
  EXPECT_EQ(trainer.deploy().predict(v), 0);
}

TEST(OnlineTrainer, DeployedPrecisionMatchesConfig) {
  OnlineTrainer::Config config;
  config.precision_bits = 2;
  const auto stream = make_stream(3, 10, 0.1, 4);
  OnlineTrainer trainer(kDim, 3, config);
  for (std::size_t i = 0; i < stream.samples.size(); ++i) {
    trainer.observe(stream.samples[i], stream.labels[i]);
  }
  const auto model = trainer.deploy();
  EXPECT_EQ(model.precision_bits(), 2u);
  EXPECT_EQ(model.class_vector(0).planes.size(), 2u);
}

TEST(OnlineTrainer, ComparableToBatchOnEasyStream) {
  const auto stream = make_stream(4, 50, 0.1, 5);
  OnlineTrainer trainer(kDim, 4);
  for (std::size_t i = 0; i < stream.samples.size(); ++i) {
    trainer.observe(stream.samples[i], stream.labels[i]);
  }
  const auto online = trainer.deploy();
  const auto batch =
      HdcModel::train(stream.samples, stream.labels, 4, {});
  const auto test = make_stream(4, 20, 0.1, 6);
  // Same prototypes are regenerated only with the same seed; evaluate on
  // the training stream instead (both should be near-perfect).
  EXPECT_GE(online.evaluate(stream.samples, stream.labels),
            batch.evaluate(stream.samples, stream.labels) - 0.02);
  (void)test;
}

TEST(OnlineTrainer, MatchesPerDimensionReference) {
  // The OnlineHD rule on per-dimension counters and sign snapshots: every
  // prediction and the deployed model must agree with the trainer, whose
  // counters run on the SIMD counter kernels.
  constexpr std::size_t kClasses = 4;
  const int resolution = OnlineTrainer::Config{}.weight_resolution;
  for (const std::size_t dim : {std::size_t{65}, std::size_t{1000}, kDim}) {
    const auto stream = make_stream(kClasses, 60, 0.3, 7, dim);
    OnlineTrainer trainer(dim, kClasses);
    std::vector<std::vector<std::int32_t>> counts(
        kClasses, std::vector<std::int32_t>(dim, 0));
    std::vector<hv::BinVec> signs(kClasses, hv::BinVec(dim));
    const auto update = [&](std::size_t c, const hv::BinVec& x, int weight) {
      signs[c] = hv::BinVec(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        counts[c][i] += x.get(i) ? weight : -weight;
        if (counts[c][i] > 0) signs[c].set(i, true);
      }
    };
    for (std::size_t n = 0; n < stream.samples.size(); ++n) {
      const auto& x = stream.samples[n];
      const auto label = static_cast<std::size_t>(stream.labels[n]);
      std::size_t guess = 0;
      double guess_similarity = -1.0;
      for (std::size_t c = 0; c < kClasses; ++c) {
        const double s = hv::similarity(x, signs[c]);
        if (s > guess_similarity) {
          guess_similarity = s;
          guess = c;
        }
      }
      const int reinforce = static_cast<int>(std::lround(
          (1.0 - hv::similarity(x, signs[label])) * resolution));
      if (reinforce > 0) update(label, x, reinforce);
      if (guess != label) {
        const int repel = static_cast<int>(
            std::lround((1.0 - guess_similarity) * resolution));
        if (repel > 0) update(guess, x, -repel);
      }
      ASSERT_EQ(trainer.observe(x, stream.labels[n]), static_cast<int>(guess))
          << "dim=" << dim << " sample=" << n;
    }
    EXPECT_GT(trainer.mistakes(), 0u) << "dim=" << dim;
    const auto model = trainer.deploy();
    for (std::size_t c = 0; c < kClasses; ++c) {
      EXPECT_TRUE(std::ranges::equal(model.plane_words(c, 0), signs[c].words()))
          << "dim=" << dim << " class=" << c;
    }
  }
}

}  // namespace
}  // namespace robusthd::model
