// Tests for the metrics registry: registration, snapshots, phase deltas
// (after - before) and shard sums.
#include "robusthd/util/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "robusthd/util/rng.hpp"

namespace robusthd::util {
namespace {

TEST(MetricsRegistry, RegistersEachNameOnce) {
  MetricsRegistry metrics;
  Counter& a = metrics.counter("requests");
  Counter& b = metrics.counter("requests");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add();
  EXPECT_EQ(metrics.snapshot().counter("requests"), 4u);
  EXPECT_THROW(metrics.gauge("requests"), std::logic_error);
  // A name nothing registered reads as zero.
  EXPECT_EQ(metrics.snapshot().counter("missing"), 0u);
  EXPECT_EQ(metrics.snapshot()["missing"].buckets.size(), 0u);
}

TEST(MetricsSnapshot, PhaseHistogramMatchesOneThatSawOnlyThePhase) {
  MetricsRegistry metrics;
  LatencyHistogram& live = metrics.latency("latency_ns");
  Counter& served = metrics.counter("served");
  Xoshiro256 rng(7);
  // A slow first phase, then a fast one: subtracting must take the first
  // phase's samples out of every bucket, not just out of the count.
  for (int i = 0; i < 5000; ++i) {
    live.record(1'000'000 + rng.next() % 9'000'000);
    served.add();
  }
  const auto before = metrics.snapshot();
  LatencyHistogram phase_only;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t ns = 200 + rng.next() % 20'000;
    live.record(ns);
    phase_only.record(ns);
    served.add();
  }
  const auto phase = metrics.snapshot() - before;

  EXPECT_EQ(phase.counter("served"), 3000u);
  EXPECT_EQ(phase["latency_ns"].buckets, phase_only.snapshot().buckets);
  EXPECT_EQ(phase["latency_ns"].sum, phase_only.snapshot().sum);
  const auto got = LatencyHistogram::summarize(phase["latency_ns"]);
  const auto want = phase_only.summarize();
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.mean_ns, want.mean_ns);
  EXPECT_EQ(got.p50_ns, want.p50_ns);
  EXPECT_EQ(got.p99_ns, want.p99_ns);
  // The whole-run figures differ: the slow phase still counts there.
  EXPECT_GT(live.summarize().p50_ns, got.p50_ns);
}

TEST(MetricsSnapshot, BatchSizesSubtractToThePhaseMean) {
  MetricsRegistry metrics;
  BatchSizeDistribution& sizes = metrics.batch_sizes("batch");
  for (int i = 0; i < 10; ++i) sizes.record(32);
  const auto before = metrics.snapshot();
  for (int i = 0; i < 4; ++i) sizes.record(2);
  const auto phase = (metrics.snapshot() - before)["batch"];
  EXPECT_EQ(phase.count, 4u);  // batches
  EXPECT_EQ(phase.sum, 8u);    // items
  EXPECT_EQ(phase.buckets[1], 4u);
  EXPECT_EQ(phase.buckets[31], 0u);
}

TEST(MetricsSnapshot, GaugeKeepsItsLaterValue) {
  MetricsRegistry metrics;
  Gauge& level = metrics.gauge("quarantined");
  level.set(7);
  const auto before = metrics.snapshot();
  level.set(3);
  auto after = metrics.snapshot();
  after.set_gauge("read_now", 11);
  const auto phase = after - before;
  EXPECT_EQ(phase.gauge("quarantined"), 3.0);
  EXPECT_EQ(phase.gauge("read_now"), 11.0);
  EXPECT_TRUE(phase["quarantined"].gauge);
}

TEST(MetricsSnapshot, SummingShardsAddsTheirMetrics) {
  MetricsRegistry shard_a, shard_b;
  shard_a.counter("completed").add(5);
  shard_b.counter("completed").add(7);
  shard_b.counter("only_b").add(2);
  shard_a.gauge("quarantined").set(1);
  shard_b.gauge("quarantined").set(2);
  shard_a.latency("latency_ns").record(100);
  shard_b.latency("latency_ns").record(100);
  shard_b.latency("latency_ns").record(5000);

  MetricsSnapshot total;
  total += shard_a.snapshot();
  total += shard_b.snapshot();
  EXPECT_EQ(total.counter("completed"), 12u);
  EXPECT_EQ(total.counter("only_b"), 2u);
  EXPECT_EQ(total.gauge("quarantined"), 3.0);
  const auto latency = LatencyHistogram::summarize(total["latency_ns"]);
  EXPECT_EQ(latency.count, 3u);
  EXPECT_EQ(total["latency_ns"].sum, 5200u);
}

TEST(MetricsRegistry, FourWritersAndAReaderGiveExactTotals) {
  MetricsRegistry metrics;
  Counter& count = metrics.counter("count");
  LatencyHistogram& latency = metrics.latency("latency_ns");
  BatchSizeDistribution& sizes = metrics.batch_sizes("batch");
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;

  std::atomic<bool> done{false};
  std::uint64_t last_seen = 0;
  bool monotone = true;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto seen = metrics.snapshot().counter("count");
      monotone = monotone && seen >= last_seen;
      last_seen = seen;
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Registering while others record is safe: nodes never move.
      Counter& mine = metrics.counter("writer" + std::to_string(w));
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        count.add();
        mine.add();
        latency.record(i);
        sizes.record(1 + i % 8);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  const auto m = metrics.snapshot();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(m.counter("count"), kWriters * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(m.counter("writer" + std::to_string(w)), kPerWriter);
  }
  EXPECT_EQ(m["latency_ns"].count, kWriters * kPerWriter);
  EXPECT_EQ(m["latency_ns"].sum,
            kWriters * kPerWriter * (kPerWriter - 1) / 2);
  EXPECT_EQ(latency.count(), kWriters * kPerWriter);
  EXPECT_EQ(m["batch"].count, kWriters * kPerWriter);
  EXPECT_EQ(m["batch"].sum, kWriters * (kPerWriter / 8) * 36);
}

}  // namespace
}  // namespace robusthd::util
