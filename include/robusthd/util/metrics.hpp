#pragma once
// One metrics registry: counters, gauges and histograms registered once by
// name and recorded lock-free.
//
// A component registers each metric when it is built and keeps the
// returned reference, so recording is one relaxed atomic add with no
// lookup, lock or allocation; the registry owns the metric for its own
// lifetime, and registering a name again returns the same metric. A
// snapshot copies every metric out as a plain value. A phase is measured
// as `after - before`: counters and histogram buckets subtract, gauges
// keep the later value. Summing snapshots (`+=`) adds everything, which is
// how a fleet totals its shards.

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace robusthd::util {

/// One metric as a snapshot holds it. A counter is `count`; a gauge is
/// `level`; a histogram is its `buckets`, their total `count` and the
/// `sum` of the values it recorded.
struct MetricValue {
  bool gauge = false;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  double level = 0.0;
  std::vector<std::uint64_t> buckets;
};

/// A monotone count. The memory order is relaxed unless a caller pairs an
/// add with a read (Server::drain waits on its counters this way).
class Counter {
 public:
  void add(std::uint64_t n = 1,
           std::memory_order order = std::memory_order_relaxed) noexcept {
    value_.fetch_add(n, order);
  }
  std::uint64_t value(
      std::memory_order order = std::memory_order_relaxed) const noexcept {
    return value_.load(order);
  }
  MetricValue snapshot() const;

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A level its latest writer sets.
class Gauge {
 public:
  void set(double level) noexcept {
    level_.store(level, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return level_.load(std::memory_order_relaxed);
  }
  MetricValue snapshot() const;

 private:
  std::atomic<double> level_{0.0};
};

/// Lock-free latency histogram: value v lands in bucket floor(log2(v)),
/// covering 1ns .. ~2^47 ns (~1.6 days) — far wider than any sane service
/// time. Percentiles are bucket-resolution (a factor-of-2 band), which is
/// the standard monitoring trade-off.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  void record(std::uint64_t nanos) noexcept {
    const auto bucket = static_cast<std::size_t>(
        std::bit_width(nanos | 1) - 1);  // log2, 0 for 0/1ns
    buckets_[bucket < kBuckets ? bucket : kBuckets - 1].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(nanos, std::memory_order_relaxed);
  }

  struct Summary {
    std::uint64_t count = 0;
    double mean_ns = 0.0;
    double p50_ns = 0.0;
    double p99_ns = 0.0;
  };

  /// Running mean in nanoseconds — two relaxed loads, cheap enough for a
  /// per-request admission estimate (Server::estimated_wait_ns).
  double mean_ns() const noexcept {
    const auto c = count_.load(std::memory_order_relaxed);
    return c == 0 ? 0.0
                  : static_cast<double>(
                        sum_ns_.load(std::memory_order_relaxed)) /
                        static_cast<double>(c);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  MetricValue snapshot() const;

  /// Count, mean and the p50/p99 bucket midpoints of a snapshot (or of a
  /// phase: the difference of two).
  static Summary summarize(const MetricValue& v) noexcept;
  Summary summarize() const { return summarize(snapshot()); }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Exact small-value distribution for batch sizes (1..kMax, clamped); its
/// snapshot's sum is the number of items batched.
class BatchSizeDistribution {
 public:
  static constexpr std::size_t kMax = 64;

  void record(std::size_t batch) noexcept {
    const std::size_t slot = batch == 0 ? 0 : (batch <= kMax ? batch - 1
                                                             : kMax - 1);
    buckets_[slot].fetch_add(1, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    items_.fetch_add(batch, std::memory_order_relaxed);
  }

  double mean() const noexcept {
    const auto b = batches_.load(std::memory_order_relaxed);
    return b == 0 ? 0.0
                  : static_cast<double>(items_.load(std::memory_order_relaxed)) /
                        static_cast<double>(b);
  }

  MetricValue snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kMax> buckets_{};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> items_{0};
};

/// Every registered metric, copied out by name. A plain value: copy it,
/// subtract two for a phase, add several for a total.
class MetricsSnapshot {
 public:
  /// The named metric, or an all-zero value when nothing registered it.
  const MetricValue& operator[](std::string_view name) const;
  std::uint64_t counter(std::string_view name) const {
    return (*this)[name].count;
  }
  double gauge(std::string_view name) const { return (*this)[name].level; }

  /// Adds (or overwrites) a gauge read at snapshot time.
  void set_gauge(std::string_view name, double level);

  /// The phase between two snapshots of one registry: counters, histogram
  /// counts, sums and buckets subtract; gauges keep `after`'s level.
  friend MetricsSnapshot operator-(MetricsSnapshot after,
                                   const MetricsSnapshot& before);
  /// Adds another snapshot's metrics, gauges included (a fleet's shards).
  MetricsSnapshot& operator+=(const MetricsSnapshot& other);

 private:
  friend class MetricsRegistry;
  std::map<std::string, MetricValue, std::less<>> values_;
};

/// Owns the metrics of a component (and of the subsystems it shares the
/// registry with). Registration takes a lock and may allocate; recording
/// into a registered metric does neither.
class MetricsRegistry {
 public:
  /// The metric registered under `name`, made on first use. Throws
  /// std::logic_error when the name holds a metric of another kind.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& latency(std::string_view name);
  BatchSizeDistribution& batch_sizes(std::string_view name);

  MetricsSnapshot snapshot() const;

 private:
  using Metric =
      std::variant<Counter, Gauge, LatencyHistogram, BatchSizeDistribution>;
  template <class T>
  T& add(std::string_view name);

  mutable std::mutex mutex_;
  std::map<std::string, Metric, std::less<>> metrics_;  ///< nodes never move
};

}  // namespace robusthd::util
