#pragma once
// Metric arithmetic of the benchmark harness: exact percentiles, ratios,
// window deltas of the serving stats, residual model damage, and the
// result record every workload fills and main() prints.
//
// Everything here is pure (no clocks, no threads) so perfbench_test can
// pin it on hand-built inputs.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "robusthd/model/hdc_model.hpp"
#include "robusthd/serve/stats.hpp"

namespace perfbench {

/// One metric the benchmark reports. `end_to_end` metrics come from
/// untraced runs; the others (per-layer) from the traced run.
struct MetricSpec {
  const char* name;
  const char* unit;
  bool end_to_end;
};

/// Every metric, in output order. BENCHMARK.json lists the same names and
/// units; perfbench_test checks the two agree.
std::span<const MetricSpec> metric_catalogue();

/// What one run of one workload produced.
struct Result {
  bool correct = true;          ///< every answer check passed
  std::uint64_t attempted = 0;  ///< requests whose outcome the window saw
  std::uint64_t failed = 0;     ///< attempted requests without an OK answer
  /// Metric values by name. A catalogued metric a workload does not
  /// measure (a layer it bypasses) is printed as 0.
  std::map<std::string, double> values;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> report;
};

/// The run's last stdout line: {"correct", "attempted", "failed",
/// "metrics"}, with the end-to-end metrics (trace == false) or the
/// per-layer metrics (trace == true) of the catalogue.
std::string result_json(const Result& result, bool trace);

/// Exact nearest-rank percentile: the smallest sample such that at least
/// p of all samples are <= it (p in (0, 1]). Reorders `samples`. Returns 0
/// for an empty sample.
double exact_percentile(std::span<std::uint32_t> samples, double p);

/// The best decile of per-slice values: the 90th percentile (nearest rank)
/// when higher is better, the 10th when lower is. 0 when empty.
double best_decile(std::vector<double> values, bool higher_is_better);

/// num / den, or 0 when den is 0 (a layer that saw no work).
double ratio(double num, double den);

/// Mean of a latency histogram over the window between two snapshots,
/// from the exact count and sum they carry (never the log2 buckets).
/// 0 when no sample landed in the window.
double window_mean_ns(const robusthd::serve::LatencyHistogram::Summary& before,
                      const robusthd::serve::LatencyHistogram::Summary& after);

/// Stored plane bits of `served` that differ from `clean`. The models
/// must have the same shape (classes, planes, dimension).
std::uint64_t differing_bits(const robusthd::model::HdcModel& served,
                             const robusthd::model::HdcModel& clean);

/// differing_bits / all stored plane bits.
double residual_damage_frac(const robusthd::model::HdcModel& served,
                            const robusthd::model::HdcModel& clean);

/// Median of a small sample (copied; the mean of the two middle values
/// when the size is even). 0 for an empty sample.
double median(std::vector<double> values);

}  // namespace perfbench
