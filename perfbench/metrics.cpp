#include "metrics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "robusthd/kernels/kernels.hpp"

namespace perfbench {

namespace {

constexpr std::array kCatalogue{
    // End to end: what a caller of the system sees.
    MetricSpec{"setup_s", "s", true},
    MetricSpec{"throughput_qps", "1/s", true},
    MetricSpec{"latency_p50_us", "us", true},
    MetricSpec{"cpu_us_per_query", "us", true},
    MetricSpec{"answered_frac", "ratio", true},
    MetricSpec{"accuracy", "ratio", true},
    MetricSpec{"intact_bits_frac", "ratio", true},
    MetricSpec{"peak_rss_mb", "MiB", true},
    // Per layer, from the traced run.
    MetricSpec{"kernels.score_ns_per_query", "ns", false},
    MetricSpec{"kernels.wordops_per_query", "count", false},
    MetricSpec{"kernels.gbytes_per_s", "GB/s", false},
    MetricSpec{"mem.arena_bytes", "bytes", false},
    MetricSpec{"mem.arena_hugepage", "flag", false},
    MetricSpec{"model.predict_ns_per_query", "ns", false},
    MetricSpec{"model.observe_ns", "ns", false},
    MetricSpec{"hv.encode_ns_per_query", "ns", false},
    MetricSpec{"serve.submit_ns", "ns", false},
    MetricSpec{"serve.queue_wait_ns", "ns", false},
    MetricSpec{"serve.service_ns", "ns", false},
    MetricSpec{"serve.end_to_end_ns", "ns", false},
    MetricSpec{"serve.batches", "count", false},
    MetricSpec{"serve.mean_batch", "count", false},
    MetricSpec{"serve.trusted_frac", "ratio", false},
    MetricSpec{"serve.trust_drop_frac", "ratio", false},
    MetricSpec{"serve.scrub_processed_frac", "ratio", false},
    MetricSpec{"serve.gate_reject_frac", "ratio", false},
    MetricSpec{"serve.scrub_repairs", "count", false},
    MetricSpec{"serve.substituted_bits", "count", false},
    MetricSpec{"serve.snapshots_published", "count", false},
    MetricSpec{"serve.chaos_flips", "count", false},
    MetricSpec{"serve.residual_damage_frac", "ratio", false},
    MetricSpec{"serve.degraded_frac", "ratio", false},
    MetricSpec{"serve.quarantined_chunks", "count", false},
    MetricSpec{"serve.canary_runs", "count", false},
    MetricSpec{"serve.rejected", "count", false},
    MetricSpec{"serve.deadline_sheds", "count", false},
    MetricSpec{"serve.abstained", "count", false},
    MetricSpec{"fleet.client_rtt_ns", "ns", false},
    MetricSpec{"fleet.transport_ns", "ns", false},
    MetricSpec{"fleet.wire_ns_per_roundtrip", "ns", false},
    MetricSpec{"fleet.frames_in", "count", false},
    MetricSpec{"fleet.frames_out", "count", false},
    MetricSpec{"fleet.busy_rejections", "count", false},
    MetricSpec{"fleet.protocol_errors", "count", false},
    MetricSpec{"fleet.client_retries", "count", false},
    MetricSpec{"fleet.client_transport_errors", "count", false},
    MetricSpec{"fleet.client_reconnects", "count", false},
    MetricSpec{"trace.spans_per_request", "count", false},
    MetricSpec{"trace.record_ns_per_span", "ns", false},
    MetricSpec{"trace.overhead_ns_per_request", "ns", false},
    MetricSpec{"trace.throughput_qps", "1/s", false},
    MetricSpec{"trace.latency_p50_us", "us", false},
    MetricSpec{"trace.latency_p90_us", "us", false},
    MetricSpec{"trace.latency_p99_us", "us", false},
};

/// Shortest decimal text that reads back as the same double ("%.17g"
/// keeps every digit a measurement has).
std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::span<const MetricSpec> metric_catalogue() { return kCatalogue; }

std::string result_json(const Result& result, bool trace) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& spec : kCatalogue) {
    if (spec.end_to_end == trace) continue;
    const auto it = result.values.find(spec.name);
    const double value = it == result.values.end() ? 0.0 : it->second;
    out << (first ? "" : ", ") << '"' << spec.name << "\": {\"value\": "
        << number(value) << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double exact_percentile(std::span<std::uint32_t> samples, double p) {
  if (samples.empty()) return 0.0;
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth);
}

double best_decile(std::vector<double> values, bool higher_is_better) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double p = higher_is_better ? 0.90 : 0.10;
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double window_mean_ns(const robusthd::serve::LatencyHistogram::Summary& before,
                      const robusthd::serve::LatencyHistogram::Summary& after) {
  if (after.count <= before.count) return 0.0;
  // Summary::mean_ns is sum/count, so mean*count gives back the exact sum.
  const double sum = after.mean_ns * static_cast<double>(after.count) -
                     before.mean_ns * static_cast<double>(before.count);
  return sum / static_cast<double>(after.count - before.count);
}

std::uint64_t differing_bits(const robusthd::model::HdcModel& served,
                             const robusthd::model::HdcModel& clean) {
  std::uint64_t bits = 0;
  for (std::size_t c = 0; c < clean.num_classes(); ++c) {
    const auto& a = served.class_vector(c).planes;
    const auto& b = clean.class_vector(c).planes;
    for (std::size_t p = 0; p < b.size(); ++p) {
      bits += robusthd::kernels::hamming(a[p].words().data(),
                                         b[p].words().data(),
                                         b[p].word_count());
    }
  }
  return bits;
}

double residual_damage_frac(const robusthd::model::HdcModel& served,
                            const robusthd::model::HdcModel& clean) {
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < clean.num_classes(); ++c) {
    total += clean.class_vector(c).planes.size() * clean.dimension();
  }
  return ratio(static_cast<double>(differing_bits(served, clean)),
               static_cast<double>(total));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
