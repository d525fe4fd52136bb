// Tests for the alternative encoders, sequence (n-gram) encoding, and the
// associative memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "robusthd/hv/accumulator.hpp"
#include "robusthd/hv/alt_encoders.hpp"
#include "robusthd/hv/assoc.hpp"
#include "robusthd/hv/sequence.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd::hv {
namespace {

// ---------------------------------------------------------------- encoders

template <typename E>
void expect_encoder_basics(const E& encoder, std::size_t features) {
  util::Xoshiro256 rng(11);
  std::vector<float> x(features), y(features), z(features);
  for (std::size_t i = 0; i < features; ++i) {
    x[i] = static_cast<float>(rng.uniform());
    y[i] = std::min(1.0f, x[i] + 0.02f);
    z[i] = static_cast<float>(rng.uniform());
  }
  const auto hx = encoder.encode(x);
  // Deterministic.
  EXPECT_EQ(hx, encoder.encode(x));
  // Locality: nearby inputs stay closer than unrelated inputs.
  const double near = similarity(hx, encoder.encode(y));
  const double far = similarity(hx, encoder.encode(z));
  EXPECT_GT(near, far);
  EXPECT_GT(near, 0.8);
}

TEST(ThermometerEncoder, BasicsAndBalance) {
  ThermometerEncoder::Config config;
  config.dimension = 2048;
  config.levels = 16;
  ThermometerEncoder encoder(40, config);
  EXPECT_EQ(encoder.dimension(), 2048u);
  EXPECT_EQ(encoder.feature_count(), 40u);
  expect_encoder_basics(encoder, 40);
}

TEST(RandomProjectionEncoder, BasicsAndBalance) {
  RandomProjectionEncoder::Config config;
  config.dimension = 2048;
  RandomProjectionEncoder encoder(40, config);
  EXPECT_EQ(encoder.dimension(), 2048u);
  expect_encoder_basics(encoder, 40);
}

TEST(Encoders, DifferentFamiliesDisagree) {
  // Same input, different encoders: codes should be unrelated (~0.5).
  ThermometerEncoder::Config tc;
  tc.dimension = 2048;
  RandomProjectionEncoder::Config pc;
  pc.dimension = 2048;
  ThermometerEncoder thermometer(20, tc);
  RandomProjectionEncoder projection(20, pc);
  std::vector<float> x(20, 0.7f);
  EXPECT_NEAR(similarity(thermometer.encode(x), projection.encode(x)), 0.5,
              0.06);
}

TEST(Encoders, PolymorphicUseThroughBase) {
  ThermometerEncoder::Config config;
  config.dimension = 1024;
  ThermometerEncoder concrete(8, config);
  const Encoder& encoder = concrete;
  data::Dataset d;
  d.features = util::Matrix(3, 8, 0.5f);
  d.labels = {0, 0, 0};
  d.num_classes = 1;
  const auto all = encoder.encode_all(d);
  EXPECT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].dimension(), 1024u);
}

/// ThermometerEncoder::encode as it was built before kernels::majority: the
/// encoder's construction redone step by step from the same seed, then
/// every feature's bound level code added into a BitSliceCounter and
/// thresholded with the tie-break.
BinVec thermometer_reference(std::size_t features,
                             const ThermometerEncoder::Config& config,
                             std::span<const float> x) {
  const std::size_t dim = config.dimension;
  const std::size_t levels = std::max<std::size_t>(config.levels, 2);
  util::Xoshiro256 rng(config.seed);
  std::vector<BinVec> codes;
  std::vector<std::uint32_t> order(dim);
  for (std::size_t k = 0; k < features; ++k) {
    const auto base = BinVec::random(dim, rng);
    auto level = BinVec::random(dim, rng);
    for (std::size_t i = 0; i < dim; ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    util::shuffle(std::span<std::uint32_t>(order), rng);
    std::size_t flipped = 0;
    for (std::size_t j = 0; j < levels; ++j) {
      const std::size_t target = j * (dim / 2) / (levels - 1);
      for (; flipped < target; ++flipped) level.flip(order[flipped]);
      codes.push_back(bind(level, base));
    }
  }
  const auto tie_break = BinVec::random(dim, rng);
  BitSliceCounter counter(dim);
  for (std::size_t k = 0; k < features; ++k) {
    const float v =
        std::clamp(x[k], 0.0f, 1.0f) * static_cast<float>(levels - 1);
    counter.add(codes[k * levels + static_cast<std::size_t>(std::lround(v))]);
  }
  return counter.threshold_majority(&tie_break);
}

TEST(ThermometerEncoder, MatchesBitSliceCounterReference) {
  util::Xoshiro256 rng(0x7e47);
  // Odd and even feature counts: only an even count can tie.
  for (const std::size_t features : {1, 7, 8, 40}) {
    for (const std::size_t dim : {65, 2048}) {
      ThermometerEncoder::Config config;
      config.dimension = dim;
      config.levels = 8;
      const ThermometerEncoder encoder(features, config);
      for (int sample = 0; sample < 4; ++sample) {
        std::vector<float> x(features);
        for (auto& f : x) f = static_cast<float>(rng.uniform());
        EXPECT_EQ(encoder.encode(x), thermometer_reference(features, config, x))
            << "features=" << features << " D=" << dim;
      }
    }
  }
}

// ---------------------------------------------------------------- sequence

TEST(SequenceEncoder, NgramOrderSensitivity) {
  SequenceEncoder::Config config;
  config.dimension = 4096;
  config.ngram = 2;
  SequenceEncoder encoder(5, config);
  const std::size_t ab[] = {0, 1};
  const std::size_t ba[] = {1, 0};
  // "ab" and "ba" must encode differently (rotation breaks symmetry).
  EXPECT_NEAR(similarity(encoder.encode_ngram(ab), encoder.encode_ngram(ba)),
              0.5, 0.05);
}

TEST(SequenceEncoder, SharedNgramsMakeSequencesSimilar) {
  SequenceEncoder::Config config;
  config.dimension = 4096;
  config.ngram = 3;
  SequenceEncoder encoder(4, config);
  const std::size_t base[] = {0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3};
  std::size_t tweaked[12];
  std::copy(std::begin(base), std::end(base), tweaked);
  tweaked[11] = 0;  // change one symbol at the end
  std::vector<std::size_t> unrelated{3, 3, 0, 0, 2, 2, 1, 1, 3, 0, 2, 1};
  const auto h = encoder.encode(base);
  EXPECT_GT(similarity(h, encoder.encode(tweaked)),
            similarity(h, encoder.encode(unrelated)));
}

TEST(SequenceEncoder, HandlesShortAndEmptySequences) {
  SequenceEncoder::Config config;
  config.dimension = 1024;
  config.ngram = 4;
  SequenceEncoder encoder(3, config);
  EXPECT_EQ(encoder.encode({}).count_ones(), 0u);
  const std::size_t two[] = {0, 2};
  const auto h = encoder.encode(two);
  EXPECT_EQ(h.dimension(), 1024u);
  EXPECT_GT(h.count_ones(), 0u);
  // Deterministic.
  EXPECT_EQ(h, encoder.encode(two));
}

TEST(SequenceEncoder, ClassifiesLanguagesOfNgrams) {
  // Two "languages" over 8 symbols with different bigram statistics; the
  // sequence encoder + associative memory should tell them apart.
  SequenceEncoder::Config config;
  config.dimension = 4096;
  config.ngram = 2;
  SequenceEncoder encoder(8, config);
  util::Xoshiro256 rng(5);

  auto sample = [&](bool even_language) {
    std::vector<std::size_t> seq(40);
    for (auto& s : seq) {
      const auto step = rng.below(4) * 2;           // 0,2,4,6
      s = even_language ? step : (step + 1) % 8;    // evens vs odds
    }
    return seq;
  };

  AssociativeMemory::Config mem_config;
  mem_config.dimension = 4096;
  AssociativeMemory memory(mem_config);
  for (int i = 0; i < 10; ++i) {
    memory.insert(encoder.encode(sample(true)), 0);
    memory.insert(encoder.encode(sample(false)), 1);
  }
  int correct = 0;
  for (int i = 0; i < 20; ++i) {
    const bool even = (i % 2) == 0;
    correct += memory.predict(encoder.encode(sample(even)), 3) ==
               (even ? 0 : 1);
  }
  EXPECT_GE(correct, 18);
}

TEST(SequenceEncoder, MatchesBitSliceCounterReference) {
  // The reference bundles the sliding n-grams into a BitSliceCounter and
  // thresholds with the encoder's tie-break, which its constructor draws
  // right after the symbol codes.
  SequenceEncoder::Config config;
  config.dimension = 1000;
  config.ngram = 3;
  constexpr std::size_t kAlphabet = 5;
  const SequenceEncoder encoder(kAlphabet, config);
  util::Xoshiro256 codes(config.seed);
  for (std::size_t s = 0; s < kAlphabet; ++s) {
    (void)BinVec::random(config.dimension, codes);
  }
  const auto tie_break = BinVec::random(config.dimension, codes);

  util::Xoshiro256 rng(0x5e95);
  // 3 to 12 symbols: 1 to 10 grams, odd and even counts.
  for (std::size_t length = 3; length <= 12; ++length) {
    std::vector<std::size_t> sequence(length);
    for (auto& symbol : sequence) symbol = rng.below(kAlphabet);
    BitSliceCounter counter(config.dimension);
    for (std::size_t t = 0; t + config.ngram <= length; ++t) {
      counter.add(encoder.encode_ngram(
          std::span<const std::size_t>(sequence).subspan(t, config.ngram)));
    }
    EXPECT_EQ(encoder.encode(sequence), counter.threshold_majority(&tie_break))
        << "length=" << length;
  }
}

// ------------------------------------------------------------ associative

TEST(AssociativeMemory, EmptyBehaviour) {
  AssociativeMemory memory({.dimension = 256, .merge_radius = 0});
  util::Xoshiro256 rng(6);
  const auto q = BinVec::random(256, rng);
  EXPECT_FALSE(memory.nearest(q).has_value());
  EXPECT_TRUE(memory.top_k(q, 3).empty());
  EXPECT_EQ(memory.predict(q), -1);
}

TEST(AssociativeMemory, ExactAndNoisyRecall) {
  AssociativeMemory memory({.dimension = 2048, .merge_radius = 0});
  util::Xoshiro256 rng(7);
  std::vector<BinVec> stored;
  for (int i = 0; i < 10; ++i) {
    stored.push_back(BinVec::random(2048, rng));
    memory.insert(stored.back(), i);
  }
  for (int i = 0; i < 10; ++i) {
    // Exact recall.
    const auto exact = memory.nearest(stored[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(exact.has_value());
    EXPECT_EQ(exact->label, i);
    EXPECT_EQ(exact->distance, 0u);
    // Recall under 20% noise.
    auto noisy = stored[static_cast<std::size_t>(i)];
    for (std::size_t d = 0; d < 2048; ++d) {
      if (rng.bernoulli(0.2)) noisy.flip(d);
    }
    EXPECT_EQ(memory.predict(noisy), i);
  }
}

TEST(AssociativeMemory, TopKOrderedByDistance) {
  AssociativeMemory memory({.dimension = 1024, .merge_radius = 0});
  util::Xoshiro256 rng(8);
  for (int i = 0; i < 6; ++i) {
    memory.insert(BinVec::random(1024, rng), i);
  }
  const auto q = BinVec::random(1024, rng);
  const auto matches = memory.top_k(q, 4);
  ASSERT_EQ(matches.size(), 4u);
  for (std::size_t i = 1; i < matches.size(); ++i) {
    EXPECT_LE(matches[i - 1].distance, matches[i].distance);
  }
}

TEST(AssociativeMemory, PrototypeModeMergesNearbyInserts) {
  AssociativeMemory memory({.dimension = 2048, .merge_radius = 600});
  util::Xoshiro256 rng(9);
  const auto prototype = BinVec::random(2048, rng);
  for (int i = 0; i < 15; ++i) {
    auto sample = prototype;
    for (std::size_t d = 0; d < 2048; ++d) {
      if (rng.bernoulli(0.1)) sample.flip(d);
    }
    memory.insert(sample, 7);
  }
  EXPECT_EQ(memory.size(), 1u);  // everything bundled into one slot
  EXPECT_EQ(memory.bundled(0), 15u);
  // The bundled prototype is close to the generative one.
  EXPECT_GT(similarity(memory.vector(0), prototype), 0.9);
  // A distant insert opens a new slot even in prototype mode.
  memory.insert(BinVec::random(2048, rng), 7);
  EXPECT_EQ(memory.size(), 2u);
}

TEST(AssociativeMemory, MergeRespectsLabels) {
  AssociativeMemory memory({.dimension = 1024, .merge_radius = 1024});
  util::Xoshiro256 rng(10);
  const auto v = BinVec::random(1024, rng);
  memory.insert(v, 0);
  memory.insert(v, 1);  // same vector, different label -> separate slot
  EXPECT_EQ(memory.size(), 2u);
}

TEST(AssociativeMemory, TiedMergeKeepsTheOldBits) {
  AssociativeMemory memory({.dimension = 1000, .merge_radius = 1000});
  util::Xoshiro256 rng(12);
  const auto first = BinVec::random(1000, rng);
  auto second = first;
  for (std::size_t d = 0; d < 1000; ++d) {
    if (rng.bernoulli(0.3)) second.flip(d);
  }
  ASSERT_GT(hamming(first, second), 0u);
  memory.insert(first, 3);
  memory.insert(second, 3);  // the counters are 0 wherever the two differ
  ASSERT_EQ(memory.size(), 1u);
  EXPECT_EQ(memory.vector(0), first);
}

TEST(AssociativeMemory, MergesMatchPerDimensionReference) {
  for (const std::size_t dim : {65, 1000}) {
    // A radius of dim merges every same-label insert into slot 0.
    AssociativeMemory memory({.dimension = dim, .merge_radius = dim});
    util::Xoshiro256 rng(13);
    const auto prototype = BinVec::random(dim, rng);
    std::vector<std::int32_t> counts(dim, 0);
    BinVec expected;
    for (int n = 0; n < 12; ++n) {
      auto sample = prototype;
      for (std::size_t d = 0; d < dim; ++d) {
        if (rng.bernoulli(0.35)) sample.flip(d);
      }
      memory.insert(sample, 1);
      for (std::size_t d = 0; d < dim; ++d) {
        counts[d] += sample.get(d) ? 1 : -1;
      }
      if (n == 0) {
        expected = sample;  // a new slot holds its first insert
      } else {
        for (std::size_t d = 0; d < dim; ++d) {
          if (counts[d] != 0) expected.set(d, counts[d] > 0);  // ties keep
        }
      }
      ASSERT_EQ(memory.size(), 1u);
      ASSERT_EQ(memory.vector(0), expected)
          << "dim=" << dim << " inserts=" << n + 1;
    }
  }
}

}  // namespace
}  // namespace robusthd::hv
