#include "robusthd/util/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace robusthd::util {

namespace {

/// The buckets of `from` as a snapshot, with `sum` and their total count.
template <class Buckets>
MetricValue bucket_snapshot(const Buckets& from, std::uint64_t sum) {
  MetricValue v;
  v.sum = sum;
  for (const auto& b : from) {
    v.buckets.push_back(b.load(std::memory_order_relaxed));
    v.count += v.buckets.back();
  }
  return v;
}

/// The midpoint of the log2 bucket holding the value of rank
/// floor(p * (count - 1)) + 1, or 0 when empty. Unlike the mean, a few
/// outliers do not move it.
double percentile_ns(const MetricValue& v, double p) noexcept {
  if (v.count == 0) return 0.0;
  const auto rank =
      static_cast<std::uint64_t>(p * static_cast<double>(v.count - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < v.buckets.size(); ++b) {
    seen += v.buckets[b];
    // Geometric midpoint of the bucket's [2^b, 2^(b+1)) band.
    if (seen >= rank) return static_cast<double>(1ull << b) * 1.5;
  }
  return static_cast<double>(1ull << (LatencyHistogram::kBuckets - 1));
}

}  // namespace

MetricValue Counter::snapshot() const {
  MetricValue v;
  v.count = value();
  return v;
}

MetricValue Gauge::snapshot() const {
  MetricValue v;
  v.gauge = true;
  v.level = value();
  return v;
}

MetricValue LatencyHistogram::snapshot() const {
  return bucket_snapshot(buckets_, sum_ns_.load(std::memory_order_relaxed));
}

LatencyHistogram::Summary LatencyHistogram::summarize(
    const MetricValue& v) noexcept {
  Summary s;
  s.count = v.count;
  if (v.count == 0) return s;
  s.mean_ns = static_cast<double>(v.sum) / static_cast<double>(v.count);
  s.p50_ns = percentile_ns(v, 0.50);
  s.p99_ns = percentile_ns(v, 0.99);
  return s;
}

MetricValue BatchSizeDistribution::snapshot() const {
  return bucket_snapshot(buckets_, items_.load(std::memory_order_relaxed));
}

const MetricValue& MetricsSnapshot::operator[](std::string_view name) const {
  static const MetricValue kAbsent;
  const auto it = values_.find(name);
  return it == values_.end() ? kAbsent : it->second;
}

void MetricsSnapshot::set_gauge(std::string_view name, double level) {
  MetricValue v;
  v.gauge = true;
  v.level = level;
  values_.insert_or_assign(std::string(name), std::move(v));
}

MetricsSnapshot operator-(MetricsSnapshot after,
                          const MetricsSnapshot& before) {
  for (auto& [name, v] : after.values_) {
    const auto it = before.values_.find(name);
    if (v.gauge || it == before.values_.end()) continue;
    const MetricValue& b = it->second;
    v.count -= b.count;
    v.sum -= b.sum;
    for (std::size_t i = 0; i < std::min(v.buckets.size(), b.buckets.size());
         ++i) {
      v.buckets[i] -= b.buckets[i];
    }
  }
  return after;
}

MetricsSnapshot& MetricsSnapshot::operator+=(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.values_) {
    MetricValue& into = values_[name];
    into.gauge = v.gauge;
    into.count += v.count;
    into.sum += v.sum;
    into.level += v.level;
    into.buckets.resize(std::max(into.buckets.size(), v.buckets.size()));
    for (std::size_t i = 0; i < v.buckets.size(); ++i) {
      into.buckets[i] += v.buckets[i];
    }
  }
  return *this;
}

template <class T>
T& MetricsRegistry::add(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    it = metrics_.try_emplace(std::string(name), std::in_place_type<T>).first;
  }
  if (T* metric = std::get_if<T>(&it->second)) return *metric;
  throw std::logic_error("metric '" + std::string(name) +
                         "' is registered with another kind");
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return add<Counter>(name);
}
Gauge& MetricsRegistry::gauge(std::string_view name) {
  return add<Gauge>(name);
}
LatencyHistogram& MetricsRegistry::latency(std::string_view name) {
  return add<LatencyHistogram>(name);
}
BatchSizeDistribution& MetricsRegistry::batch_sizes(std::string_view name) {
  return add<BatchSizeDistribution>(name);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, metric] : metrics_) {
    out.values_.emplace(name, std::visit(
                                  [](const auto& m) { return m.snapshot(); },
                                  metric));
  }
  return out;
}

}  // namespace robusthd::util
