// Tests for the bundling accumulators (bit-sliced and signed) and the
// class-counter store whose rows the signed ones view.
#include "robusthd/hv/accumulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "robusthd/util/rng.hpp"

namespace robusthd::hv {
namespace {

TEST(BitSliceCounter, CountsMatchScalarReference) {
  const std::size_t dim = 300;
  util::Xoshiro256 rng(1);
  BitSliceCounter counter(dim);
  std::vector<std::uint32_t> reference(dim, 0);
  for (int i = 0; i < 37; ++i) {
    const auto v = BinVec::random(dim, rng);
    counter.add(v);
    for (std::size_t d = 0; d < dim; ++d) reference[d] += v.get(d);
  }
  EXPECT_EQ(counter.added(), 37u);
  for (std::size_t d = 0; d < dim; ++d) {
    ASSERT_EQ(counter.count(d), reference[d]) << "dim " << d;
  }
}

TEST(BitSliceCounter, MajorityThreshold) {
  const std::size_t dim = 64;
  BitSliceCounter counter(dim);
  BinVec ones(dim);
  for (std::size_t d = 0; d < dim; ++d) ones.set(d, true);
  BinVec zeros(dim);
  counter.add(ones);
  counter.add(ones);
  counter.add(zeros);
  const auto out = counter.threshold_majority();
  EXPECT_EQ(out.count_ones(), dim);  // 2 of 3 -> majority 1
}

TEST(BitSliceCounter, TieBreakUsed) {
  const std::size_t dim = 10;
  BitSliceCounter counter(dim);
  BinVec ones(dim);
  for (std::size_t d = 0; d < dim; ++d) ones.set(d, true);
  counter.add(ones);
  counter.add(BinVec(dim));  // exact tie everywhere
  BinVec tie(dim);
  tie.set(3, true);
  const auto out = counter.threshold_majority(&tie);
  EXPECT_EQ(out.count_ones(), 1u);
  EXPECT_TRUE(out.get(3));
}

TEST(BitSliceCounter, ArbitraryThreshold) {
  const std::size_t dim = 8;
  BitSliceCounter counter(dim);
  BinVec v(dim);
  v.set(0, true);
  counter.add(v);
  counter.add(v);
  v.set(1, true);
  counter.add(v);
  // counts: bit0=3, bit1=1, rest 0.
  EXPECT_EQ(counter.threshold(0).count_ones(), 2u);
  EXPECT_EQ(counter.threshold(1).count_ones(), 1u);
  EXPECT_EQ(counter.threshold(2).count_ones(), 1u);
  EXPECT_EQ(counter.threshold(3).count_ones(), 0u);
}

TEST(BitSliceCounter, ResetClears) {
  BitSliceCounter counter(16);
  util::Xoshiro256 rng(2);
  counter.add(BinVec::random(16, rng));
  counter.reset();
  EXPECT_EQ(counter.added(), 0u);
  EXPECT_EQ(counter.count(3), 0u);
}

TEST(BitSliceCounter, PlaneGrowthIsLogarithmic) {
  BitSliceCounter counter(64);
  BinVec ones(64);
  for (std::size_t d = 0; d < 64; ++d) ones.set(d, true);
  for (int i = 0; i < 1000; ++i) counter.add(ones);
  EXPECT_EQ(counter.count(0), 1000u);
  EXPECT_LE(counter.plane_count(), 11u);  // ceil(log2(1001))
}

TEST(SignedAccumulator, BipolarCounting) {
  CounterStore store(1, 4);
  const auto acc = store.row(0);
  BinVec v(4);
  v.set(0, true);
  v.set(1, true);
  acc.add(v);          // +1 +1 -1 -1
  acc.add(v, 2);       // +2 +2 -2 -2
  v.set(0, false);
  acc.add(v, -1);      // +1 -1 +1 +1
  EXPECT_EQ(acc.count(0), 4);
  EXPECT_EQ(acc.count(1), 2);
  EXPECT_EQ(acc.count(2), -2);
  EXPECT_EQ(acc.count(3), -2);
}

TEST(SignedAccumulator, SignThreshold) {
  CounterStore store(1, 3);
  const auto acc = store.row(0);
  acc.count(0) = 5;
  acc.count(1) = -5;
  acc.count(2) = 0;
  BinVec tie(3);
  tie.set(2, true);
  const auto out = acc.sign(&tie);
  EXPECT_TRUE(out.get(0));
  EXPECT_FALSE(out.get(1));
  EXPECT_TRUE(out.get(2));
  const auto out_no_tie = acc.sign();
  EXPECT_FALSE(out_no_tie.get(2));
}

TEST(SignedAccumulator, SignIntoMatchesSignAndKeepsTiesInPlace) {
  const std::size_t dim = 130;  // two full words and a 2-bit tail
  util::Xoshiro256 rng(3);
  CounterStore store(1, dim);
  const auto acc = store.row(0);
  acc.add(BinVec::random(dim, rng));
  acc.add(BinVec::random(dim, rng));  // two adds: a quarter of dims tie
  const auto tie = BinVec::random(dim, rng);

  BinVec out;  // wrong dimension: resized
  acc.sign_into(out);
  EXPECT_EQ(out, acc.sign());
  acc.sign_into(out, &tie);
  EXPECT_EQ(out, acc.sign(&tie));
  // Raw words (an arena row): ties to 0, the tail cleared.
  BinVec raw = BinVec::random(dim, rng);
  raw.mutable_words().back() = ~std::uint64_t{0};
  acc.sign_into(raw.mutable_words().data());
  EXPECT_EQ(raw, acc.sign());

  // In place: a tied dimension keeps the bit it had.
  auto kept = tie;
  acc.sign_into(kept, &kept);
  EXPECT_EQ(kept, acc.sign(&tie));
  std::size_t ties = 0;
  for (std::size_t d = 0; d < dim; ++d) {
    if (acc.count(d) == 0) {
      ++ties;
      EXPECT_EQ(kept.get(d), tie.get(d)) << "dim " << d;
    } else {
      EXPECT_EQ(kept.get(d), acc.count(d) > 0) << "dim " << d;
    }
  }
  EXPECT_GT(ties, 0u);
}

TEST(SignedAccumulator, OneBitQuantizationIsSign) {
  CounterStore store(1, 5);
  const auto acc = store.row(0);
  acc.count(0) = 10;
  acc.count(1) = -10;
  acc.count(2) = 1;
  acc.count(3) = -1;
  acc.count(4) = 0;
  const auto planes = acc.quantize_planes(1);
  ASSERT_EQ(planes.size(), 1u);
  EXPECT_EQ(planes[0], acc.sign());
}

TEST(SignedAccumulator, TwoBitQuantizationOrdersByMagnitude) {
  CounterStore store(1, 4);
  const auto acc = store.row(0);
  acc.count(0) = 100;   // strong 1 -> level 3
  acc.count(1) = 10;    // weak 1
  acc.count(2) = -10;   // weak 0
  acc.count(3) = -100;  // strong 0 -> level 0
  const auto planes = acc.quantize_planes(2);
  ASSERT_EQ(planes.size(), 2u);
  auto level = [&](std::size_t d) {
    return (planes[1].get(d) ? 2 : 0) + (planes[0].get(d) ? 1 : 0);
  };
  EXPECT_EQ(level(0), 3);
  EXPECT_EQ(level(3), 0);
  EXPECT_GE(level(1), 2);  // positive counts land in upper half
  EXPECT_LE(level(2), 1);  // negative counts land in lower half
  EXPECT_GT(level(0) - level(3), level(1) - level(2));
}

TEST(CounterStore, RowsAreZeroedAlignedAndDisjoint) {
  // Row strides from one cache line up to a 2.5 MiB block.
  for (const std::size_t dim : {1u, 16u, 17u, 130u, 16385u, 131072u}) {
    CounterStore store(5, dim);
    ASSERT_EQ(store.rows(), 5u);
    ASSERT_EQ(store.dimension(), dim);
    for (std::size_t r = 0; r < store.rows(); ++r) {
      const auto row = store.row(r);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&row.count(0)) % 64, 0u)
          << "dim " << dim << " row " << r;
      for (std::size_t d = 0; d < dim; ++d) ASSERT_EQ(row.count(d), 0);
    }
    // Filling one row leaves its neighbours untouched.
    BinVec ones(dim);
    ones.invert();
    store.row(2).add(ones, 7);
    for (std::size_t r = 0; r < store.rows(); ++r) {
      for (std::size_t d = 0; d < dim; ++d) {
        ASSERT_EQ(store.row(r).count(d), r == 2 ? 7 : 0)
            << "dim " << dim << " row " << r << " counter " << d;
      }
    }
  }
}

TEST(CounterStore, MoveLeavesNoRowsBehind) {
  static_assert(!std::is_copy_constructible_v<CounterStore>);
  CounterStore store(3, 100);
  store.row(1).count(5) = 42;
  CounterStore moved(std::move(store));
  EXPECT_EQ(store.rows(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(store.dimension(), 0u);
  ASSERT_EQ(moved.rows(), 3u);
  EXPECT_EQ(moved.row(1).count(5), 42);
  CounterStore assigned;
  assigned = std::move(moved);
  EXPECT_EQ(moved.rows(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(assigned.row(1).count(5), 42);
}

TEST(CounterStore, ConstStoreHandsOutReadOnlyRows) {
  static_assert(std::is_same_v<decltype(std::declval<const CounterStore&>()
                                            .row(0)),
                               ConstSignedAccumulator>);
  static_assert(std::is_same_v<decltype(std::declval<CounterStore&>().row(0)),
                               SignedAccumulator>);
  CounterStore store(2, 70);
  util::Xoshiro256 rng(9);
  const auto v = BinVec::random(70, rng);
  store.row(1).add(v, 3);
  const CounterStore& view = store;
  EXPECT_EQ(view.row(1).sign(), v);
  EXPECT_EQ(view.row(1).quantize_planes(2), store.row(1).quantize_planes(2));
}

class BitSliceSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitSliceSizes, AgreesWithSignedAccumulatorMajority) {
  // Property: majority via bit-sliced counting == sign of bipolar counts
  // for odd bundle sizes (no ties possible).
  const std::size_t dim = GetParam();
  util::Xoshiro256 rng(dim);
  BitSliceCounter bits(dim);
  CounterStore counters(1, dim);
  const auto sign = counters.row(0);
  for (int i = 0; i < 11; ++i) {
    const auto v = BinVec::random(dim, rng);
    bits.add(v);
    sign.add(v);
  }
  EXPECT_EQ(bits.threshold_majority(), sign.sign());
}

INSTANTIATE_TEST_SUITE_P(Dims, BitSliceSizes,
                         ::testing::Values(1, 63, 64, 65, 500, 1000));

}  // namespace
}  // namespace robusthd::hv
