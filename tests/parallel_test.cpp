// Tests for the deterministic parallel helper (parallel_for).
#include "robusthd/util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <vector>

#include "robusthd/data/synthetic.hpp"
#include "robusthd/hv/encoder.hpp"

namespace robusthd::util {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(n, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, ZeroAndSmallSizes) {
  parallel_for(0, [](std::size_t) { FAIL(); });
  int calls = 0;
  parallel_for(3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 3);
}

TEST(ParallelFor, ResultsIndependentOfThreadCount) {
  const std::size_t n = 5000;
  std::vector<double> serial(n), parallel1(n), parallel8(n);
  auto fill = [](std::vector<double>& out) {
    return [&out](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5 + 1.0;
    };
  };
  parallel_for(n, fill(serial), 1);
  parallel_for(n, fill(parallel1), 2);
  parallel_for(n, fill(parallel8), 8);
  EXPECT_EQ(serial, parallel1);
  EXPECT_EQ(serial, parallel8);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(1000,
                   [](std::size_t i) {
                     if (i == 777) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, HardwareThreadsAtLeastOne) {
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(ParallelFor, TemplatedOverloadAvoidsTypeErasure) {
  // A move-only callable can't form a std::function: compiling at all
  // proves the callable is invoked directly.
  auto counter = std::make_unique<std::atomic<int>>(0);
  parallel_for(100, [c = counter.get()](std::size_t) { ++*c; });
  EXPECT_EQ(counter->load(), 100);

  // A caller that holds a type-erased callable passes it the same way.
  std::function<void(std::size_t)> erased = [&](std::size_t) { ++*counter; };
  parallel_for(50, erased);
  EXPECT_EQ(counter->load(), 150);
}

TEST(ParallelEncodeAll, MatchesSerialEncode) {
  const auto spec = data::scaled(data::dataset_by_name("PAMAP"), 200, 50);
  const auto split = data::make_synthetic(spec);
  hv::EncoderConfig config;
  config.dimension = 2000;
  hv::RecordEncoder encoder(split.train.feature_count(), config);
  const auto batch = encoder.encode_all(split.train);
  ASSERT_EQ(batch.size(), split.train.size());
  for (std::size_t i = 0; i < split.train.size(); ++i) {
    ASSERT_EQ(batch[i], encoder.encode(split.train.sample(i))) << i;
  }
}

}  // namespace
}  // namespace robusthd::util
