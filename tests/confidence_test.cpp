// Tests for the prediction-confidence block.
#include "robusthd/model/confidence.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "robusthd/util/rng.hpp"
#include "robusthd/util/stats.hpp"

namespace robusthd::model {
namespace {

TEST(Confidence, EmptyScores) {
  const auto c = assess({});
  EXPECT_EQ(c.predicted, -1);
  EXPECT_DOUBLE_EQ(c.top_probability, 0.0);
}

TEST(Confidence, SingleClassIsCertain) {
  const double s[] = {0.9};
  const auto c = assess(s);
  EXPECT_EQ(c.predicted, 0);
  EXPECT_DOUBLE_EQ(c.top_probability, 1.0);
}

TEST(Confidence, PicksArgmaxAndMargin) {
  const double s[] = {0.80, 0.92, 0.85};
  const auto c = assess(s);
  EXPECT_EQ(c.predicted, 1);
  EXPECT_NEAR(c.margin, 0.07, 1e-12);
}

TEST(Confidence, ClearWinnerBeatsAmbiguous) {
  const double clear[] = {0.80, 0.95, 0.81, 0.79};
  const double tied[] = {0.88, 0.89, 0.88, 0.89};
  EXPECT_GT(assess(clear).top_probability, assess(tied).top_probability);
}

TEST(Confidence, ScaleInvariantUnderZScoring) {
  // z-scored softmax should be insensitive to a shared offset.
  const double a[] = {0.50, 0.60, 0.52};
  const double b[] = {0.80, 0.90, 0.82};
  EXPECT_NEAR(assess(a).top_probability, assess(b).top_probability, 1e-9);
}

TEST(Confidence, TemperatureControlsSharpness) {
  const double s[] = {0.80, 0.90, 0.82, 0.81};
  ConfidenceConfig soft;
  soft.temperature = 2.0;
  ConfidenceConfig sharp;
  sharp.temperature = 0.1;
  EXPECT_LT(assess(s, soft).top_probability,
            assess(s, sharp).top_probability);
}

TEST(Confidence, TwoClassUsesNoiseFloorWhenDimensionGiven) {
  // With two classes and a known dimension, a margin well above the
  // Hamming noise floor should give high confidence...
  const double wide[] = {0.70, 0.90};
  const auto high = assess(wide, {}, 10000);
  EXPECT_GT(high.top_probability, 0.95);
  // ...and a margin at the noise floor should not.
  const double thin[] = {0.8990, 0.9000};
  const auto low = assess(thin, {}, 10000);
  EXPECT_LT(low.top_probability, 0.8);
  EXPECT_EQ(low.predicted, 1);
}

TEST(Confidence, TwoClassSmallerDimensionLessConfident) {
  const double s[] = {0.88, 0.90};
  const auto big = assess(s, {}, 10000);
  const auto small = assess(s, {}, 100);
  EXPECT_GT(big.top_probability, small.top_probability);
}

/// The confidence block as first written: the full temperature softmax
/// over the z-scores (util::softmax), read at the winner. assess() must
/// reproduce it bit for bit.
Confidence reference_assess(std::span<const double> s,
                            const ConfidenceConfig& config,
                            std::size_t dimension) {
  Confidence c;
  if (s.empty()) return c;
  double top = -1.0, second = -1.0;
  std::size_t best = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] > top) {
      second = top;
      top = s[i];
      best = i;
    } else if (s[i] > second) {
      second = s[i];
    }
  }
  c.predicted = static_cast<int>(best);
  c.margin = s.size() > 1 ? top - second : top;
  if (s.size() == 1) {
    c.top_probability = 1.0;
    return c;
  }
  if (s.size() == 2 && dimension > 0) {
    const double noise = 0.5 / std::sqrt(static_cast<double>(dimension));
    const double z = c.margin / (noise * 2.0) / config.temperature;
    c.top_probability = 1.0 / (1.0 + std::exp(-z));
    return c;
  }
  util::RunningStats stats;
  for (const auto v : s) stats.add(v);
  const double sd = stats.stddev() > 1e-12 ? stats.stddev() : 1e-12;
  std::vector<double> z(s.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    z[i] = (s[i] - stats.mean()) / sd;
  }
  c.top_probability = util::softmax(z, config.temperature)[best];
  return c;
}

TEST(Confidence, BitIdenticalToFullSoftmax) {
  // Similarities as the serving path produces them: integer Hamming
  // distances at D=16,384 mapped to 1 - d/D.
  constexpr std::size_t kDim = 16384;
  const auto similarity = [](std::uint64_t d) {
    return 1.0 - static_cast<double>(d) / static_cast<double>(kDim);
  };
  util::Xoshiro256 rng(0x5eed);
  std::size_t checked = 0;
  for (const std::size_t k : {1, 2, 3, 5, 26, 128, 1024}) {
    for (int trial = 0; trial < 256; ++trial) {
      std::vector<double> s(k);
      switch (trial % 4) {
        case 0:  // anywhere in [0, D]
          for (auto& v : s) v = similarity(rng.below(kDim + 1));
          break;
        case 1: {  // near D/2, one class clearly closer (a real query)
          for (auto& v : s) v = similarity(kDim / 2 - 200 + rng.below(401));
          s[rng.below(k)] = similarity(rng.below(kDim / 2));
          break;
        }
        case 2: {  // the top two tie
          for (auto& v : s) v = similarity(kDim / 2 - 200 + rng.below(401));
          const std::uint64_t d = rng.below(kDim / 2 - 200);
          s[rng.below(k)] = similarity(d);
          s[rng.below(k)] = similarity(d);
          break;
        }
        default:  // every class equally similar
          for (auto& v : s) v = similarity(trial);
          break;
      }
      for (const double temperature : {0.5, 0.1, 2.0}) {
        const ConfidenceConfig config{temperature};
        for (const std::size_t dimension : {kDim, std::size_t{0}}) {
          const auto got = assess(s, config, dimension);
          const auto want = reference_assess(s, config, dimension);
          ASSERT_EQ(got.predicted, want.predicted) << "k=" << k;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.margin),
                    std::bit_cast<std::uint64_t>(want.margin))
              << "k=" << k;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.top_probability),
                    std::bit_cast<std::uint64_t>(want.top_probability))
              << "k=" << k << " trial=" << trial << " T=" << temperature
              << " got=" << got.top_probability
              << " want=" << want.top_probability;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 7u * 256u * 3u * 2u);
}

TEST(Confidence, ProbabilityBounds) {
  const double s[] = {0.1, 0.9, 0.5, 0.3, 0.2};
  const auto c = assess(s);
  EXPECT_GT(c.top_probability, 1.0 / 5.0);
  EXPECT_LE(c.top_probability, 1.0);
}

}  // namespace
}  // namespace robusthd::model
