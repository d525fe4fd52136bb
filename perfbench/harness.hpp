#pragma once
// Shared machinery of the three workloads: options, the measured window
// (wall clock, process CPU, host steal), request spans for the traced
// run, the isolated per-layer ladder, and the metric fill-ins every
// workload shares.
//
// The harness drives the system only through its public entry points and
// times each layer from outside, around its own calls into it.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "robusthd/data/dataset.hpp"
#include "robusthd/hv/binvec.hpp"
#include "robusthd/hv/encoder.hpp"
#include "robusthd/model/hdc_model.hpp"
#include "robusthd/model/recovery.hpp"
#include "robusthd/serve/stats.hpp"
#include "robusthd/util/matrix.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its spans into.
  std::string trace_dir = ".";
};

Result run_score_bulk(const Options& options);
Result run_fleet_tiny(const Options& options);
Result run_heal_features(const Options& options);

/// How many times each workload builds its system; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

/// PAMAP-shaped samples (75 features, 5 classes) drawn from one fixed
/// synthetic world: `seed` picks which samples train the model and which
/// are served, in what order.
robusthd::data::Split pamap_split(std::uint64_t seed, std::size_t train,
                                  std::size_t test);

// ---- Host and process readings -------------------------------------------

/// Aggregate jiffies of the "cpu" line of /proc/stat.
struct CpuJiffies {
  std::uint64_t busy = 0;
  std::uint64_t idle = 0;  ///< idle + iowait
  std::uint64_t steal = 0;
  std::uint64_t total() const noexcept { return busy + idle + steal; }
};
CpuJiffies read_cpu_jiffies();
/// The three load averages of /proc/loadavg, as printed there.
std::string load_average();
/// User + system CPU seconds of this process, all threads.
double process_cpu_seconds();
/// ru_maxrss of this process in MiB.
double peak_rss_mib();
unsigned hardware_threads();

/// Length of one window slice. Throughput, CPU per query and the latency
/// percentiles are taken per slice, and a run reports the best decile over
/// its slices (the 90th percentile of throughput, the 10th of times and
/// CPU). Host interference only ever slows a slice, and on a shared host it
/// comes and goes within seconds: the best decile tracks the program as
/// long as a tenth of the window ran undisturbed, where the whole-window
/// figure moves with every burst of steal.
inline constexpr double kSliceSeconds = 0.25;

/// Wall clock, process CPU and host jiffies over one measured window, with
/// a mark (time and process CPU) at every slice boundary.
class Window {
 public:
  void open();
  /// Records a slice boundary now.
  void mark();
  void close();
  /// Fixed by open(); safe to read from other threads once they were
  /// started (or released) after it.
  Clock::time_point start() const noexcept { return start_; }
  Clock::time_point end() const noexcept { return marks_.back(); }
  /// Nominal time of slice boundary k (k = 1 ends the first slice); reads
  /// only start().
  Clock::time_point boundary(std::size_t k) const noexcept;
  double seconds() const noexcept;
  double cpu_seconds() const noexcept { return cpu_.back() - cpu_.front(); }
  /// Marks from open() to close(): slice i runs from mark i to mark i+1.
  const std::vector<Clock::time_point>& marks() const noexcept {
    return marks_;
  }
  const std::vector<double>& cpu_marks() const noexcept { return cpu_; }
  /// ru_maxrss when the window closed, before any work after it.
  double peak_rss_mib() const noexcept { return peak_rss_mib_; }
  /// Shares of all host CPU time in the window that went to steal and to
  /// idle, from /proc/stat.
  double steal_share() const noexcept;
  double idle_share() const noexcept;

 private:
  Clock::time_point start_{};
  std::vector<Clock::time_point> marks_;
  std::vector<double> cpu_;
  CpuJiffies host_start_{};
  CpuJiffies host_end_{};
  double peak_rss_mib_ = 0.0;
};

/// The per-run host diagnostics line: steal and idle over the window,
/// load average, kernel ISA, arena hugepage backing and the workload's
/// thread budget. Printed with every run and never used to drop one.
std::string host_line(const Window& window, bool arena_hugepage,
                      const std::string& thread_budget);

// ---- Spans ---------------------------------------------------------------

/// One timed harness call into a layer. Spans of one request share
/// `request`; `parent` is the id of the enclosing span (0 for a root).
struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
};

/// Spans of one harness thread. Every span recorded after open_window()
/// counts into its name's exact mean; the first kKept spans of the run are
/// also kept in memory and written out at the end, which bounds the traced
/// run's memory however long it runs. A disabled log records nothing;
/// new_id() then returns 0.
class SpanLog {
 public:
  static constexpr std::size_t kKept = 1u << 19;

  SpanLog(bool enabled, std::uint64_t thread_tag);
  bool enabled() const noexcept { return enabled_; }
  std::uint64_t new_id() noexcept { return enabled_ ? next_id_++ : 0; }
  /// Spans that start from `start` on count into the means.
  void open_window(Clock::time_point start) noexcept { window_start_ = start; }
  void record(const Span& span);
  const std::vector<Span>& kept() const noexcept { return kept_; }

  struct Total {
    const char* name;
    std::uint64_t count;
    double sum_ns;
  };
  const std::vector<Total>& totals() const noexcept { return totals_; }

 private:
  bool enabled_;
  std::uint64_t next_id_;
  Clock::time_point window_start_ = Clock::time_point::max();
  std::vector<Span> kept_;
  std::vector<Total> totals_;
};

/// Mean duration in ns of the window's spans called `name`, over every
/// log. 0 when there are none.
double mean_span_ns(std::span<const SpanLog* const> logs, const char* name);

/// Writes the kept spans as CSV (name,start_ns,end_ns,id,parent,request,
/// times relative to `epoch`) to `<dir>/spans-<workload>.csv`. Returns the
/// number of spans written.
std::size_t write_spans(const Options& options,
                        std::span<const SpanLog* const> logs,
                        Clock::time_point epoch);

/// Measured cost of recording one span the way the generators do (two
/// clock reads and an append), and the per-request overhead it implies.
void tracing_overhead(double spans_per_request, Result& result);

// ---- Metric fill-ins -----------------------------------------------------

/// What one generator thread saw inside the window.
struct WindowTally {
  /// Latency in ns of each answered request, in completion order. The
  /// buffer is sized and touched before the window (prepare()), so how
  /// many requests a run answers does not move the process's peak RSS.
  std::vector<std::uint32_t> latencies_ns;
  std::size_t samples = 0;
  /// `samples` at each slice boundary the thread has passed.
  std::vector<std::size_t> cuts;
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;  ///< OK answers
  std::uint64_t correct = 0;   ///< answers equal to the label

  void prepare(std::size_t capacity) { latencies_ns.assign(capacity, 0); }

  void record(std::chrono::nanoseconds latency) {
    const auto ns = static_cast<std::uint32_t>(std::min<std::int64_t>(
        latency.count(), std::numeric_limits<std::uint32_t>::max()));
    if (samples < latencies_ns.size()) {
      latencies_ns[samples] = ns;
    } else {
      latencies_ns.push_back(ns);
    }
    ++samples;
  }

  /// Call with each completion time before recording the completion;
  /// returns how many slice boundaries it passed.
  std::size_t cross(Clock::time_point now, const Window& window) {
    std::size_t passed = 0;
    while (now >= window.boundary(cuts.size() + 1)) {
      cuts.push_back(samples);
      ++passed;
    }
    return passed;
  }
};

/// Throughput, latency percentiles, CPU per query, answered fraction,
/// accuracy and peak RSS over the tallies of every generator thread. Adds
/// the sample-count line, with the whole-window figures, to the report.
void fill_end_to_end(std::span<const WindowTally> tallies,
                     const Window& window, Result& result);

/// serve.* per-layer metrics from two ServerStats snapshots bracketing
/// the window.
void fill_serve_layer(const robusthd::serve::ServerStats& before,
                      const robusthd::serve::ServerStats& after,
                      Result& result);

/// The isolated ladder, timed single-threaded after the window on the
/// workload's own served model and inputs: kernels, mem, model, hv (when
/// an encoder and raw features are given) and fleet wire.
struct LadderInputs {
  const robusthd::model::HdcModel* model = nullptr;
  std::span<const robusthd::hv::BinVec> queries;
  robusthd::model::RecoveryConfig recovery{};
  const robusthd::hv::RecordEncoder* encoder = nullptr;
  const robusthd::util::Matrix* features = nullptr;
};
void run_ladder(const LadderInputs& inputs, Result& result);

/// Text of a double for report lines.
std::string fmt(double value, int precision = 3);

}  // namespace perfbench
