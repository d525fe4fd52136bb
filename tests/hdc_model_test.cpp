// Tests for the HDC classifier: training, scoring, chunked scoring,
// precision variants, and attackable memory regions.
#include "robusthd/model/hdc_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <initializer_list>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "robusthd/data/dataset.hpp"
#include "robusthd/data/synthetic.hpp"
#include "robusthd/fault/injector.hpp"
#include "robusthd/hv/encoder.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd::model {
namespace {

constexpr std::size_t kDim = 2048;

/// Builds a toy training set: per class one prototype hypervector plus
/// noisy copies (bits flipped with probability `noise`).
struct Toy {
  std::vector<hv::BinVec> prototypes;
  std::vector<hv::BinVec> samples;
  std::vector<int> labels;
};

Toy make_toy(std::size_t classes, std::size_t per_class, double noise,
             std::uint64_t seed) {
  Toy toy;
  util::Xoshiro256 rng(seed);
  for (std::size_t c = 0; c < classes; ++c) {
    toy.prototypes.push_back(hv::BinVec::random(kDim, rng));
  }
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      auto v = toy.prototypes[c];
      for (std::size_t d = 0; d < kDim; ++d) {
        if (rng.bernoulli(noise)) v.flip(d);
      }
      toy.samples.push_back(std::move(v));
      toy.labels.push_back(static_cast<int>(c));
    }
  }
  return toy;
}

TEST(HdcModel, LearnsSeparableToyProblem) {
  const auto toy = make_toy(4, 20, 0.15, 1);
  const auto model = HdcModel::train(toy.samples, toy.labels, 4, {});
  EXPECT_EQ(model.num_classes(), 4u);
  EXPECT_EQ(model.dimension(), kDim);
  EXPECT_GE(model.evaluate(toy.samples, toy.labels), 0.99);
  // Fresh noisy queries also classify correctly.
  util::Xoshiro256 rng(2);
  for (std::size_t c = 0; c < 4; ++c) {
    auto q = toy.prototypes[c];
    for (std::size_t d = 0; d < kDim; ++d) {
      if (rng.bernoulli(0.2)) q.flip(d);
    }
    EXPECT_EQ(model.predict(q), static_cast<int>(c));
  }
}

TEST(HdcModel, ScoresOrderedBySimilarity) {
  const auto toy = make_toy(3, 10, 0.1, 3);
  const auto model = HdcModel::train(toy.samples, toy.labels, 3, {});
  const auto scores = model.scores(toy.prototypes[1]);
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_GT(scores[1], scores[0]);
  EXPECT_GT(scores[1], scores[2]);
  for (const auto s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(HdcModel, ChunkScoresAverageToGlobalScore) {
  const auto toy = make_toy(3, 10, 0.1, 4);
  const auto model = HdcModel::train(toy.samples, toy.labels, 3, {});
  const auto& q = toy.samples[0];
  const auto global = model.scores(q);
  const std::size_t m = 16;
  std::vector<double> weighted(3, 0.0);
  for (std::size_t c = 0; c < m; ++c) {
    const std::size_t begin = c * kDim / m;
    const std::size_t end = (c + 1) * kDim / m;
    const auto local = model.chunk_scores(q, begin, end);
    for (std::size_t k = 0; k < 3; ++k) {
      weighted[k] += local[k] * static_cast<double>(end - begin);
    }
  }
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(weighted[k] / kDim, global[k], 1e-9);
  }
}

TEST(HdcModel, RetrainingFixesSinglePassErrors) {
  // Close prototypes (0.3 apart) with high sample noise: single-pass
  // bundling struggles; retraining should improve training accuracy.
  util::Xoshiro256 rng(5);
  auto base = hv::BinVec::random(kDim, rng);
  std::vector<hv::BinVec> prototypes;
  for (int c = 0; c < 3; ++c) {
    auto p = base;
    for (std::size_t d = 0; d < kDim; ++d) {
      if (rng.bernoulli(0.15)) p.flip(d);
    }
    prototypes.push_back(std::move(p));
  }
  std::vector<hv::BinVec> samples;
  std::vector<int> labels;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 30; ++i) {
      auto v = prototypes[static_cast<std::size_t>(c)];
      for (std::size_t d = 0; d < kDim; ++d) {
        if (rng.bernoulli(0.2)) v.flip(d);
      }
      samples.push_back(std::move(v));
      labels.push_back(c);
    }
  }
  HdcConfig no_retrain;
  no_retrain.retrain_epochs = 0;
  HdcConfig with_retrain;
  with_retrain.retrain_epochs = 20;
  const auto plain = HdcModel::train(samples, labels, 3, no_retrain);
  const auto tuned = HdcModel::train(samples, labels, 3, with_retrain);
  EXPECT_GE(tuned.evaluate(samples, labels),
            plain.evaluate(samples, labels));
}

TEST(HdcModel, TwoBitModelHasTwoPlanes) {
  const auto toy = make_toy(2, 10, 0.1, 6);
  HdcConfig config;
  config.precision_bits = 2;
  const auto model = HdcModel::train(toy.samples, toy.labels, 2, config);
  EXPECT_EQ(model.precision_bits(), 2u);
  EXPECT_EQ(model.class_vector(0).planes.size(), 2u);
  EXPECT_GE(model.evaluate(toy.samples, toy.labels), 0.99);
}

TEST(HdcModel, MemoryRegionsCoverAllPlanes) {
  const auto toy = make_toy(3, 5, 0.1, 7);
  HdcConfig config;
  config.precision_bits = 2;
  auto model = HdcModel::train(toy.samples, toy.labels, 3, config);
  auto regions = model.memory_regions();
  EXPECT_EQ(regions.size(), 6u);  // 3 classes x 2 planes
  for (const auto& r : regions) {
    EXPECT_EQ(r.value_bits, 1u);
    EXPECT_EQ(r.bytes.size(), util::words_for_bits(kDim) * 8);
  }
}

TEST(HdcModel, RegionWritesReachTheModel) {
  const auto toy = make_toy(2, 10, 0.05, 8);
  auto model = HdcModel::train(toy.samples, toy.labels, 2, {});
  const auto before = model.class_vector(0).planes[0].to_binvec();
  auto regions = model.memory_regions();
  // Flip one byte of class 0's plane through the region view.
  regions[0].bytes[0] ^= std::byte{0xFF};
  EXPECT_NE(model.class_vector(0).planes[0].to_binvec(), before);
}

/// A hand-built model of random planes (from_planes).
HdcModel random_model(std::size_t classes, std::size_t dim, unsigned planes,
                      util::Xoshiro256& rng) {
  std::vector<ClassVector> cvs(classes);
  for (auto& cv : cvs) {
    for (unsigned p = 0; p < planes; ++p) {
      cv.planes.push_back(hv::BinVec::random(dim, rng));
    }
  }
  return HdcModel::from_planes(cvs, planes);
}

TEST(HdcModel, MemoryRegionsAreTheArenaRowsClassMajor) {
  util::Xoshiro256 rng(20);
  constexpr std::size_t kOddDim = 700;  // 11 live words, stride 16
  auto model = random_model(4, kOddDim, 3, rng);
  const auto regions = model.memory_regions();
  const std::size_t words = util::words_for_bits(kOddDim);
  ASSERT_EQ(regions.size(), 4u * 3u);
  std::size_t bits = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t p = 0; p < 3; ++p) {
      const auto& r = regions[c * 3 + p];
      EXPECT_EQ(r.name, "class" + std::to_string(c) + "/plane" +
                            std::to_string(p));
      EXPECT_EQ(r.value_bits, 1u);
      // The live words of row c * planes + p, never the padding.
      EXPECT_EQ(static_cast<const void*>(r.bytes.data()),
                static_cast<const void*>(model.arena().plane(c * 3 + p)));
      EXPECT_EQ(r.bytes.size(), words * sizeof(std::uint64_t));
      bits += r.bit_count();
    }
  }
  EXPECT_EQ(bits, 4u * 3u * words * 64u);
}

TEST(HdcModel, CampaignStaysInsideTheRegions) {
  util::Xoshiro256 rng(21);
  constexpr std::size_t kOddDim = 700;
  auto model = random_model(5, kOddDim, 2, rng);
  const auto clean = model;
  const auto& arena = model.arena();
  ASSERT_GT(arena.stride_words(), arena.words());  // there is padding
  auto regions = model.memory_regions();
  util::Xoshiro256 attack(22);
  const auto report = fault::BitFlipInjector::inject(
      regions, 0.5, fault::AttackMode::kRandom, attack);
  EXPECT_EQ(report.flipped, fault::total_bits(regions) / 2);
  std::size_t changed = 0;
  for (std::size_t row = 0; row < arena.num_planes(); ++row) {
    for (std::size_t w = arena.words(); w < arena.stride_words(); ++w) {
      ASSERT_EQ(arena.plane(row)[w], 0u) << "padding row " << row;
    }
    changed += util::hamming(
        std::span<const std::uint64_t>(arena.plane(row), arena.words()),
        std::span<const std::uint64_t>(clean.arena().plane(row),
                                       arena.words()));
  }
  // Every flip landed in a live word.
  EXPECT_EQ(changed, report.flipped);
}

TEST(HdcModel, ScoringSeesWritesAtOnce) {
  util::Xoshiro256 rng(23);
  auto model = random_model(4, kDim, 2, rng);
  std::vector<hv::BinVec> queries;
  std::vector<const hv::BinVec*> ptrs;
  for (int q = 0; q < 9; ++q) queries.push_back(hv::BinVec::random(kDim, rng));
  for (const auto& q : queries) ptrs.push_back(&q);
  ScoreWorkspace before;
  model.scores_batch(ptrs, before);

  // Write through a mutable view and through a fault region, then score
  // with no other call in between.
  const auto plane = model.class_vector(1).planes[1];
  for (std::size_t i = 0; i < kDim; i += 3) plane.flip(i);
  model.class_vector(3).planes[0].set(5, !model.class_vector(3).planes[0].get(5));
  auto regions = model.memory_regions();
  regions[0].bytes[17] ^= std::byte{0x5A};

  ScoreWorkspace after;
  model.scores_batch(ptrs, after);
  EXPECT_NE(after.scores, before.scores);
  // The same bits in a freshly built model score the same.
  std::vector<ClassVector> copies(model.num_classes());
  for (std::size_t c = 0; c < model.num_classes(); ++c) {
    for (std::size_t p = 0; p < 2; ++p) {
      copies[c].planes.push_back(model.class_vector(c).planes[p].to_binvec());
    }
  }
  ScoreWorkspace rebuilt;
  HdcModel::from_planes(copies, 2).scores_batch(ptrs, rebuilt);
  EXPECT_EQ(after.scores, rebuilt.scores);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto expected = model.scores(queries[i]);
    for (std::size_t c = 0; c < model.num_classes(); ++c) {
      EXPECT_EQ(after.scores[i * model.num_classes() + c], expected[c]);
    }
  }
}

TEST(HdcModel, DefaultAndMovedFromModelsHaveNoClasses) {
  EXPECT_EQ(HdcModel().num_classes(), 0u);
  util::Xoshiro256 rng(25);
  auto model = random_model(3, 100, 2, rng);
  const HdcModel moved = std::move(model);
  EXPECT_EQ(moved.num_classes(), 3u);
  EXPECT_EQ(moved.dimension(), 100u);
  // The class count and dimension are read from the arena, which the
  // move emptied.
  EXPECT_EQ(model.num_classes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(model.dimension(), 0u);
  EXPECT_TRUE(model.memory_regions().empty());
}

// ---- from_planes shape checks --------------------------------------------

std::vector<ClassVector> planes_of(std::initializer_list<std::size_t> counts,
                                   std::size_t dim) {
  util::Xoshiro256 rng(24);
  std::vector<ClassVector> cvs;
  for (const auto n : counts) {
    ClassVector cv;
    for (std::size_t p = 0; p < n; ++p) {
      cv.planes.push_back(hv::BinVec::random(dim, rng));
    }
    cvs.push_back(std::move(cv));
  }
  return cvs;
}

TEST(HdcModelFromPlanes, AcceptsAWellFormedModel) {
  const auto model = HdcModel::from_planes(planes_of({2, 2, 2}, 100), 2);
  EXPECT_EQ(model.num_classes(), 3u);
  EXPECT_EQ(model.dimension(), 100u);
  EXPECT_EQ(model.precision_bits(), 2u);
}

TEST(HdcModelFromPlanes, RejectsNoClasses) {
  EXPECT_THROW(HdcModel::from_planes({}, 1), std::invalid_argument);
}

TEST(HdcModelFromPlanes, RejectsAClassWithNoPlanes) {
  EXPECT_THROW(HdcModel::from_planes(planes_of({1, 0, 1}, 100), 1),
               std::invalid_argument);
}

TEST(HdcModelFromPlanes, RejectsUnequalPlaneCounts) {
  EXPECT_THROW(HdcModel::from_planes(planes_of({2, 1}, 100), 2),
               std::invalid_argument);
}

TEST(HdcModelFromPlanes, RejectsPlaneCountOtherThanPrecision) {
  EXPECT_THROW(HdcModel::from_planes(planes_of({2, 2}, 100), 1),
               std::invalid_argument);
  EXPECT_THROW(HdcModel::from_planes(planes_of({1, 1}, 100), 3),
               std::invalid_argument);
}

TEST(HdcModelFromPlanes, RejectsMixedDimensions) {
  auto cvs = planes_of({2, 2}, 100);
  cvs[1].planes[1] = hv::BinVec(101);
  EXPECT_THROW(HdcModel::from_planes(cvs, 2), std::invalid_argument);
}

TEST(HdcModelFromPlanes, RejectsDimensionZero) {
  EXPECT_THROW(HdcModel::from_planes(planes_of({1, 1}, 0), 1),
               std::invalid_argument);
}

// ---- the precision a model can store -------------------------------------

/// Every factory refuses `bits` planes per class.
void expect_precision_rejected(unsigned bits) {
  const auto toy = make_toy(2, 5, 0.1, 10);
  HdcConfig config;
  config.precision_bits = bits;
  EXPECT_THROW(HdcModel::train(toy.samples, toy.labels, 2, config),
               std::invalid_argument);
  const hv::CounterStore counters(2, kDim);
  EXPECT_THROW(HdcModel::from_accumulators(counters, bits),
               std::invalid_argument);
  if (bits > 0) {
    EXPECT_THROW(HdcModel::from_planes(planes_of({bits, bits}, 100), bits),
                 std::invalid_argument);
  }
}

TEST(HdcModel, PrecisionZeroIsRejected) { expect_precision_rejected(0); }

TEST(HdcModel, PrecisionNineIsRejected) {
  expect_precision_rejected(HdcModel::kMaxPrecisionBits + 1);
  // The limit itself is storable.
  const auto toy = make_toy(2, 5, 0.1, 11);
  HdcConfig config;
  config.precision_bits = HdcModel::kMaxPrecisionBits;
  EXPECT_EQ(HdcModel::train(toy.samples, toy.labels, 2, config)
                .precision_bits(),
            HdcModel::kMaxPrecisionBits);
}

// ---- the training sets train() accepts ------------------------------------

TEST(HdcModelTrain, RejectsLabelsAndSamplesOfDifferentLengths) {
  const auto toy = make_toy(2, 5, 0.1, 12);
  const auto fewer = std::span(toy.labels).first(toy.labels.size() - 1);
  EXPECT_THROW(HdcModel::train(toy.samples, fewer, 2), std::invalid_argument);
  auto more = toy.labels;
  more.push_back(0);
  EXPECT_THROW(HdcModel::train(toy.samples, more, 2), std::invalid_argument);
}

TEST(HdcModelTrain, RejectsAnEmptySet) {
  EXPECT_THROW(HdcModel::train({}, {}, 2), std::invalid_argument);
}

TEST(HdcModelTrain, RejectsALabelOutsideTheClasses) {
  const auto toy = make_toy(2, 5, 0.1, 13);
  // 2 and past it would count past the class table; -1 would index
  // before it.
  for (const int bad : {2, 1000, -1}) {
    auto labels = toy.labels;
    labels[3] = bad;
    EXPECT_THROW(HdcModel::train(toy.samples, labels, 2),
                 std::invalid_argument)
        << "label " << bad;
  }
  EXPECT_THROW(HdcModel::train(toy.samples, toy.labels, 0),
               std::invalid_argument);
}

TEST(HdcModelTrain, RejectsSamplesOfMixedDimensions) {
  auto toy = make_toy(2, 5, 0.1, 14);
  // Shorter than the first sample: scoring and the majority would read
  // past its words.
  toy.samples[4] = hv::BinVec(kDim - 64);
  EXPECT_THROW(HdcModel::train(toy.samples, toy.labels, 2),
               std::invalid_argument);
  toy.samples[4] = hv::BinVec(kDim + 1);
  EXPECT_THROW(HdcModel::train(toy.samples, toy.labels, 2),
               std::invalid_argument);
  const std::vector<hv::BinVec> dimensionless(2);
  const std::vector<int> labels = {0, 1};
  EXPECT_THROW(HdcModel::train(dimensionless, labels, 2),
               std::invalid_argument);
}

// ---- training against a per-dimension reference --------------------------

/// Bipolar class counters, one dimension at a time: the rule the counter
/// kernels must reproduce.
using RefCounts = std::vector<std::int32_t>;

void ref_add(RefCounts& counts, const hv::BinVec& bits, std::int32_t weight) {
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] += bits.get(i) ? weight : -weight;
  }
}

hv::BinVec ref_sign(const RefCounts& counts) {
  hv::BinVec out(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) out.set(i, true);
  }
  return out;
}

std::size_t ref_distance(const hv::BinVec& a, const hv::BinVec& b) {
  std::size_t d = 0;
  for (std::size_t w = 0; w < a.word_count(); ++w) {
    d += static_cast<std::size_t>(std::popcount(a.words()[w] ^ b.words()[w]));
  }
  return d;
}

constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

/// What one sample's scoring decides: whether to update and against which
/// rival.
struct RefDecision {
  bool update = false;
  int rival = -1;
  bool operator==(const RefDecision&) const = default;
};

/// The retraining decision for `sample` against `signs`: nearest and
/// runner-up by Hamming distance, the lowest class index winning a tie.
RefDecision ref_decide(const hv::BinVec& sample, int label,
                       const std::vector<hv::BinVec>& signs,
                       std::size_t min_margin) {
  int best = 0;
  int second = -1;
  std::size_t best_d = std::numeric_limits<std::size_t>::max();
  std::size_t second_d = best_d;
  for (std::size_t c = 0; c < signs.size(); ++c) {
    const std::size_t d = ref_distance(sample, signs[c]);
    if (d < best_d) {
      second_d = best_d;
      second = best;
      best_d = d;
      best = static_cast<int>(c);
    } else if (d < second_d) {
      second_d = d;
      second = static_cast<int>(c);
    }
  }
  const bool wrong = best != label;
  if (!wrong && second_d - best_d >= min_margin) return {};
  return {true, wrong ? best : second};
}

struct RefTrained {
  std::vector<RefCounts> counts;  ///< final counters, one row per class
  std::size_t updates = 0;        ///< retraining updates over all epochs
  /// Per class, the epoch of its first retraining update, or kNever.
  std::vector<std::size_t> first_update;
  /// Blocks of HdcModel::kRetrainBlock samples that train() scores in one
  /// pass: a training's first block, and each block after one whose
  /// updates changed fewer than half the classes.
  std::size_t batched_blocks = 0;
  /// Samples in batched blocks whose decision differs when read off the
  /// snapshots the block started with: there, train() must rescore the
  /// classes an earlier update in the block changed.
  std::size_t stale_decisions = 0;
};

/// HdcModel::train's algorithm on per-dimension counters: bundle, then
/// perceptron retraining against sign snapshots (margin updates included,
/// the lowest class index wins a distance tie), refreshing the two
/// touched snapshots after each update. Each sample is scored against the
/// current snapshots; the block schedule is only counted.
RefTrained ref_train(std::span<const hv::BinVec> encoded,
                     std::span<const int> labels, std::size_t classes,
                     const HdcConfig& config) {
  const std::size_t dim = encoded[0].dimension();
  RefTrained out;
  out.counts.assign(classes, RefCounts(dim, 0));
  out.first_update.assign(classes, kNever);
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    ref_add(out.counts[static_cast<std::size_t>(labels[i])], encoded[i], 1);
  }
  std::vector<hv::BinVec> signs;
  for (const auto& counts : out.counts) signs.push_back(ref_sign(counts));
  const auto min_margin = static_cast<std::size_t>(
      config.retrain_margin * static_cast<double>(dim));
  bool batch = true;
  for (std::size_t epoch = 0; epoch < config.retrain_epochs; ++epoch) {
    std::size_t updates = 0;
    for (std::size_t begin = 0; begin < encoded.size();
         begin += HdcModel::kRetrainBlock) {
      const std::size_t end =
          std::min(begin + HdcModel::kRetrainBlock, encoded.size());
      const auto block_start = signs;
      std::vector<bool> changed(classes, false);
      for (std::size_t i = begin; i < end; ++i) {
        const auto decision =
            ref_decide(encoded[i], labels[i], signs, min_margin);
        if (batch && decision != ref_decide(encoded[i], labels[i],
                                            block_start, min_margin)) {
          ++out.stale_decisions;
        }
        if (!decision.update) continue;
        const auto truth = static_cast<std::size_t>(labels[i]);
        ref_add(out.counts[truth], encoded[i], 1);
        signs[truth] = ref_sign(out.counts[truth]);
        out.first_update[truth] = std::min(out.first_update[truth], epoch);
        changed[truth] = true;
        if (decision.rival >= 0) {
          const auto r = static_cast<std::size_t>(decision.rival);
          ref_add(out.counts[r], encoded[i], -1);
          signs[r] = ref_sign(out.counts[r]);
          out.first_update[r] = std::min(out.first_update[r], epoch);
          changed[r] = true;
        }
        ++updates;
      }
      out.batched_blocks += batch;
      batch = 2 * static_cast<std::size_t>(std::ranges::count(changed, true)) <
              classes;
    }
    out.updates += updates;
    if (updates == 0) break;
  }
  return out;
}

/// Trains at 1 to 3 bits and checks every class plane against the
/// per-dimension reference's counters.
void expect_train_matches(const RefTrained& ref,
                          std::span<const hv::BinVec> encoded,
                          std::span<const int> labels, std::size_t classes,
                          const std::string& shape,
                          const HdcConfig& base = {}) {
  const std::size_t dim = encoded[0].dimension();
  for (const unsigned bits : {1u, 2u, 3u}) {
    HdcConfig config = base;
    config.precision_bits = bits;
    const auto model = HdcModel::train(encoded, labels, classes, config);
    hv::CounterStore one(1, dim);
    for (std::size_t c = 0; c < classes; ++c) {
      // 1 bit: the sign. More: the (unchanged) magnitude quantiser over
      // the reference's counters.
      std::vector<hv::BinVec> expected;
      if (bits == 1) {
        expected.push_back(ref_sign(ref.counts[c]));
      } else {
        for (std::size_t i = 0; i < dim; ++i) {
          one.row(0).count(i) = ref.counts[c][i];
        }
        expected = one.row(0).quantize_planes(bits);
      }
      for (std::size_t p = 0; p < bits; ++p) {
        ASSERT_TRUE(std::ranges::equal(model.plane_words(c, p),
                                       expected[p].words()))
            << shape << " bits=" << bits << " class=" << c << " plane=" << p;
      }
    }
  }
}

/// `proto` with each bit flipped with probability 2^-and_terms.
hv::BinVec noisy(const hv::BinVec& proto, int and_terms,
                 util::Xoshiro256& rng) {
  hv::BinVec v = proto;
  for (auto& w : v.mutable_words()) {
    std::uint64_t mask = rng.next();
    for (int t = 1; t < and_terms; ++t) mask &= rng.next();
    w ^= mask;
  }
  v.mask_tail();
  return v;
}

/// 128 classes at `dim` with four samples each, each flipping an eighth
/// of its class prototype's bits, as in score_bulk. With `mislabel`, every
/// eighth sample carries the next class's label, so retraining updates;
/// without, the classes are far apart and retraining updates nothing.
struct Labelled {
  std::vector<hv::BinVec> samples;
  std::vector<int> labels;
};

constexpr std::size_t kWideClasses = 128;

Labelled wide_set(std::size_t dim, bool mislabel,
                  std::size_t classes = kWideClasses,
                  std::size_t per_class = 4) {
  util::Xoshiro256 rng(dim);
  Labelled set;
  for (std::size_t c = 0; c < classes; ++c) {
    const auto proto = hv::BinVec::random(dim, rng);
    for (std::size_t i = 0; i < per_class; ++i) {
      set.samples.push_back(noisy(proto, 3, rng));
      const bool next = mislabel && (per_class * c + i) % 8 == 7;
      set.labels.push_back(static_cast<int>((c + next) % classes));
    }
  }
  return set;
}

/// Six classes at D = 1,000, 30 samples each. Classes 0 to 3 redraw 2%,
/// 2%, 3% and 6% of a shared base's bits and flip 30% of them per sample,
/// so they overlap and retraining updates them; classes 4 and 5 are drawn
/// afresh and flip 10%, so retraining leaves them alone.
Labelled overlapping_set(std::uint64_t seed) {
  constexpr std::size_t kDimSmall = 1000;
  constexpr std::size_t kClassesSmall = 6;
  constexpr std::array<double, kClassesSmall> kRedrawn = {0.02, 0.02, 0.03,
                                                          0.06, 1.0,  1.0};
  util::Xoshiro256 rng(seed);
  const auto base = hv::BinVec::random(kDimSmall, rng);
  std::vector<hv::BinVec> protos;
  for (std::size_t c = 0; c < kClassesSmall; ++c) {
    auto proto = base;
    for (std::size_t d = 0; d < kDimSmall; ++d) {
      if (rng.bernoulli(kRedrawn[c])) proto.set(d, rng.bernoulli(0.5));
    }
    protos.push_back(std::move(proto));
  }
  Labelled set;
  for (std::size_t c = 0; c < kClassesSmall; ++c) {
    for (std::size_t i = 0; i < 30; ++i) {
      auto v = protos[c];
      const double flip = c < 4 ? 0.3 : 0.1;
      for (std::size_t d = 0; d < kDimSmall; ++d) {
        if (rng.bernoulli(flip)) v.flip(d);
      }
      set.samples.push_back(std::move(v));
      set.labels.push_back(static_cast<int>(c));
    }
  }
  return set;
}

TEST(HdcModel, TrainMatchesPerDimensionReference) {
  // PAMAP-shaped data: 75 features and 5 correlated classes, hard enough
  // that retraining updates run at every dimension below.
  const auto split = data::make_synthetic(
      data::scaled(data::dataset_by_name("PAMAP"), 600, 1), 0x5eed);
  const std::size_t classes = split.train.num_classes;
  for (const std::size_t dim : {65, 4096, 10000}) {
    hv::EncoderConfig encoder_config;
    encoder_config.dimension = dim;
    const hv::RecordEncoder encoder(split.train.feature_count(),
                                    encoder_config);
    const auto encoded = encoder.encode_all(split.train);
    const auto ref = ref_train(encoded, split.train.labels, classes, {});
    ASSERT_GT(ref.updates, 0u) << "D=" << dim;
    expect_train_matches(ref, encoded, split.train.labels, classes,
                         "PAMAP D=" + std::to_string(dim));
  }

  // score_bulk's shape, 128 classes at D = 16,384, and one dimension past
  // it, with mislabelled samples so that retraining updates.
  for (const std::size_t dim : {16384, 16385}) {
    const auto set = wide_set(dim, /*mislabel=*/true);
    const auto ref = ref_train(set.samples, set.labels, kWideClasses, {});
    ASSERT_GT(ref.updates, 0u) << "D=" << dim;
    expect_train_matches(ref, set.samples, set.labels, kWideClasses,
                         "128 classes D=" + std::to_string(dim));
  }

  // The block path. Retraining scores HdcModel::kRetrainBlock samples in
  // one pass, then rescores for each sample the classes an earlier update
  // in the block changed. 128 classes at D = 65 crowd together, so updates
  // land mid-block and a later sample's decision in that block turns on a
  // class they changed (stale_decisions), at two full blocks, exactly one
  // block and one sample past it.
  const std::size_t block = HdcModel::kRetrainBlock;
  const auto crowded = wide_set(65, /*mislabel=*/true);
  ASSERT_EQ(crowded.samples.size(), 2 * block);
  for (const std::size_t n : {2 * block, block, block + 1}) {
    const auto samples = std::span(crowded.samples).first(n);
    const auto labels = std::span(crowded.labels).first(n);
    const auto ref = ref_train(samples, labels, kWideClasses, {});
    ASSERT_GT(ref.stale_decisions, 0u) << "n=" << n;
    expect_train_matches(ref, samples, labels, kWideClasses,
                         "128 classes D=65 n=" + std::to_string(n));
  }
  // k = 1: no sample can be wrong or have a runner-up, so nothing updates
  // and every block is batched.
  const auto single = wide_set(1000, /*mislabel=*/false, 1, block + 44);
  const auto alone = ref_train(single.samples, single.labels, 1, {});
  ASSERT_EQ(alone.updates, 0u);
  ASSERT_EQ(alone.batched_blocks, 2u);
  expect_train_matches(alone, single.samples, single.labels, 1, "k=1");
  // k = 2, two overlapping classes below one block: every update changes
  // both classes, and later samples in the first block see it.
  const auto overlapping = overlapping_set(324);
  const auto pair_samples = std::span(overlapping.samples).first(60);
  const auto pair_labels = std::span(overlapping.labels).first(60);
  const auto pair = ref_train(pair_samples, pair_labels, 2, {});
  ASSERT_GT(pair.stale_decisions, 0u);
  expect_train_matches(pair, pair_samples, pair_labels, 2, "k=2");

  // A class gets counters only when retraining first updates it, or when
  // a multi-bit model quantises them; until then its plane is the
  // majority of its samples. Five cases hold that to the reference.
  const auto late = ref_train(overlapping.samples, overlapping.labels, 6, {});
  // (1) Classes 4 and 5 are never updated: a 1-bit model deploys their
  // majorities, (2) class 3 is first updated in epoch 4, after the other
  // classes' updates moved it, and (4) at 2 and 3 bits the never-updated
  // classes' counters are built for the deploy.
  ASSERT_EQ(late.first_update[4], kNever);
  ASSERT_EQ(late.first_update[5], kNever);
  ASSERT_EQ(late.first_update[3], 4u);
  for (std::size_t c = 0; c < 3; ++c) ASSERT_EQ(late.first_update[c], 0u);
  // Its 180 samples fill less than one block.
  ASSERT_LT(overlapping.samples.size(), block);
  ASSERT_GT(late.stale_decisions, 0u);
  expect_train_matches(late, overlapping.samples, overlapping.labels, 6,
                       "late and never-updated classes");
  // (3) No retraining at all: every class deploys its majority, or has
  // its counters built for a multi-bit deploy.
  HdcConfig no_retraining;
  no_retraining.retrain_epochs = 0;
  const auto bundled = ref_train(overlapping.samples, overlapping.labels, 6,
                                 no_retraining);
  ASSERT_EQ(bundled.updates, 0u);
  expect_train_matches(bundled, overlapping.samples, overlapping.labels, 6,
                       "retrain_epochs=0", no_retraining);
  // (5) score_bulk's own shape: its classes are far apart, so retraining
  // scores one epoch, updates nothing, and builds no counters at 1 bit.
  const auto far = wide_set(16384, /*mislabel=*/false);
  const auto update_free =
      ref_train(far.samples, far.labels, kWideClasses, {});
  ASSERT_EQ(update_free.updates, 0u);
  expect_train_matches(update_free, far.samples, far.labels, kWideClasses,
                       "score_bulk update-free");
}

TEST(HdcModel, EmptyQuerySetScoresZero) {
  const auto toy = make_toy(2, 5, 0.1, 9);
  const auto model = HdcModel::train(toy.samples, toy.labels, 2, {});
  EXPECT_DOUBLE_EQ(model.evaluate({}, {}), 0.0);
}

class HdcPrecision : public ::testing::TestWithParam<unsigned> {};

TEST_P(HdcPrecision, HigherPrecisionStillClassifies) {
  const auto toy = make_toy(3, 15, 0.12, GetParam());
  HdcConfig config;
  config.precision_bits = GetParam();
  const auto model = HdcModel::train(toy.samples, toy.labels, 3, config);
  EXPECT_GE(model.evaluate(toy.samples, toy.labels), 0.95)
      << "precision " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Precisions, HdcPrecision,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace robusthd::model
