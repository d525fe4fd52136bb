#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "harness.hpp"
#include "robusthd/kernels/kernels.hpp"

namespace perfbench {

namespace rhd = robusthd;

CpuJiffies read_cpu_jiffies() {
  CpuJiffies j;
  std::ifstream in("/proc/stat");
  std::string label;
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                irq = 0, softirq = 0, steal = 0;
  if (in >> label >> user >> nice >> system >> idle >> iowait >> irq >>
          softirq >> steal &&
      label == "cpu") {
    j.busy = user + nice + system + irq + softirq;
    j.idle = idle + iowait;
    j.steal = steal;
  }
  return j;
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  if (!(in >> a >> b >> c)) return "unknown";
  return a + " " + b + " " + c;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void Window::open() {
  host_start_ = read_cpu_jiffies();
  marks_.clear();
  cpu_.clear();
  mark();
  start_ = marks_.front();
}

void Window::mark() {
  cpu_.push_back(process_cpu_seconds());
  marks_.push_back(Clock::now());
}

void Window::close() {
  mark();
  host_end_ = read_cpu_jiffies();
  peak_rss_mib_ = perfbench::peak_rss_mib();
}

Clock::time_point Window::boundary(std::size_t k) const noexcept {
  return start() + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(kSliceSeconds *
                                                     static_cast<double>(k)));
}

double Window::seconds() const noexcept {
  return std::chrono::duration<double>(end() - start()).count();
}

double Window::steal_share() const noexcept {
  return ratio(static_cast<double>(host_end_.steal - host_start_.steal),
               static_cast<double>(host_end_.total() - host_start_.total()));
}

double Window::idle_share() const noexcept {
  return ratio(static_cast<double>(host_end_.idle - host_start_.idle),
               static_cast<double>(host_end_.total() - host_start_.total()));
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string host_line(const Window& window, bool arena_hugepage,
                      const std::string& thread_budget) {
  std::ostringstream out;
  out << "host: steal=" << fmt(window.steal_share(), 4)
      << " idle=" << fmt(window.idle_share(), 4) << " loadavg="
      << load_average() << " isa="
      << robusthd::kernels::isa_name(robusthd::kernels::active_isa())
      << " arena_hugepage=" << (arena_hugepage ? 1 : 0)
      << " threads=" << thread_budget << " nproc=" << hardware_threads();
  return out.str();
}

SpanLog::SpanLog(bool enabled, std::uint64_t thread_tag)
    : enabled_(enabled), next_id_((thread_tag << 48) + 1) {
  if (enabled_) kept_.reserve(kKept);
}

void SpanLog::record(const Span& span) {
  if (!enabled_) return;
  if (kept_.size() < kKept) kept_.push_back(span);
  if (span.start < window_start_) return;
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(span.end -
                                                           span.start)
          .count());
  for (auto& t : totals_) {
    if (t.name == span.name || std::strcmp(t.name, span.name) == 0) {
      ++t.count;
      t.sum_ns += ns;
      return;
    }
  }
  totals_.push_back({span.name, 1, ns});
}

double mean_span_ns(std::span<const SpanLog* const> logs,
                    const char* name) {
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const SpanLog* log : logs) {
    for (const auto& t : log->totals()) {
      if (std::strcmp(t.name, name) != 0) continue;
      sum += t.sum_ns;
      count += t.count;
    }
  }
  return ratio(sum, static_cast<double>(count));
}

std::size_t write_spans(const Options& options,
                        std::span<const SpanLog* const> logs,
                        Clock::time_point epoch) {
  std::filesystem::create_directories(options.trace_dir);
  const auto path = std::filesystem::path(options.trace_dir) /
                    ("spans-" + options.workload + ".csv");
  std::ofstream out(path);
  out << "name,start_ns,end_ns,id,parent,request\n";
  const auto ns = [epoch](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
        .count();
  };
  std::size_t written = 0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->kept()) {
      out << s.name << ',' << ns(s.start) << ',' << ns(s.end) << ',' << s.id
          << ',' << s.parent << ',' << s.request << '\n';
      ++written;
    }
  }
  return written;
}

void tracing_overhead(double spans_per_request, Result& result) {
  constexpr std::size_t kSpans = 200000;
  SpanLog log(true, 0);
  log.open_window(Clock::now());
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kSpans; ++i) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    log.record({"probe", a, b, log.new_id(), 0, i});
  }
  const double ns =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count()) /
      static_cast<double>(kSpans);
  result.values["trace.spans_per_request"] = spans_per_request;
  result.values["trace.record_ns_per_span"] = ns;
  result.values["trace.overhead_ns_per_request"] = ns * spans_per_request;
}

void fill_end_to_end(std::span<const WindowTally> tallies,
                     const Window& window, Result& result) {
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;
  std::uint64_t correct = 0;
  for (const auto& t : tallies) {
    attempted += t.attempted;
    answered += t.answered;
    correct += t.correct;
  }

  // Per slice: the answers of every thread that completed in it.
  const auto& marks = window.marks();
  const auto& cpu = window.cpu_marks();
  const std::size_t slices = marks.size() - 1;
  std::vector<double> slice_qps, slice_cpu_us, slice_p50, slice_p90, slice_p99;
  std::vector<std::uint32_t> in_slice;
  std::vector<std::uint32_t> all;
  for (std::size_t k = 0; k < slices; ++k) {
    in_slice.clear();
    for (const auto& t : tallies) {
      const auto cut = [&](std::size_t i) {
        if (i == 0) return std::size_t{0};
        return i < slices && i <= t.cuts.size() ? t.cuts[i - 1] : t.samples;
      };
      in_slice.insert(in_slice.end(), t.latencies_ns.begin() + cut(k),
                      t.latencies_ns.begin() + cut(k + 1));
    }
    all.insert(all.end(), in_slice.begin(), in_slice.end());
    const double seconds =
        std::chrono::duration<double>(marks[k + 1] - marks[k]).count();
    const auto n = static_cast<double>(in_slice.size());
    slice_qps.push_back(ratio(n, seconds));
    if (in_slice.empty()) continue;
    slice_cpu_us.push_back((cpu[k + 1] - cpu[k]) * 1e6 / n);
    slice_p50.push_back(exact_percentile(in_slice, 0.50));
    slice_p90.push_back(exact_percentile(in_slice, 0.90));
    slice_p99.push_back(exact_percentile(in_slice, 0.99));
  }

  auto& v = result.values;
  v["throughput_qps"] = best_decile(slice_qps, true);
  v["latency_p50_us"] = best_decile(slice_p50, false) / 1e3;
  // Reported, not bounded: the tail moves with how fast the host wakes an
  // idle vCPU, which drifts from run to run on a shared host (p90), and
  // one short stall in a slice moves its p99.
  v["latency_p90_us"] = best_decile(slice_p90, false) / 1e3;
  v["latency_p99_us"] = best_decile(slice_p99, false) / 1e3;
  v["cpu_us_per_query"] = best_decile(slice_cpu_us, false);
  v["answered_frac"] = ratio(static_cast<double>(answered),
                             static_cast<double>(attempted));
  v["accuracy"] =
      ratio(static_cast<double>(correct), static_cast<double>(attempted));
  v["peak_rss_mb"] = window.peak_rss_mib();
  result.attempted = attempted;
  result.failed = attempted - answered;

  std::ostringstream line;
  line << "latency: samples=" << all.size() << " slices=" << slices
       << " of " << kSliceSeconds << " s; best decile: p90_us="
       << fmt(v["latency_p90_us"]) << " p99_us="
       << fmt(v["latency_p99_us"]) << "; whole window: p50_us="
       << fmt(exact_percentile(all, 0.50) / 1e3)
       << " p99_us=" << fmt(exact_percentile(all, 0.99) / 1e3)
       << " qps="
       << fmt(ratio(static_cast<double>(answered), window.seconds()), 1)
       << " cpu_us_per_query="
       << fmt(ratio(window.cpu_seconds() * 1e6, static_cast<double>(answered)));
  result.report.push_back(line.str());
}

void fill_serve_layer(const rhd::serve::ServerStats& before,
                      const rhd::serve::ServerStats& after, Result& result) {
  auto& v = result.values;
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double completed = delta(after.completed, before.completed);
  const double trusted = delta(after.trusted, before.trusted);
  const double batches = delta(after.batches, before.batches);
  v["serve.queue_wait_ns"] =
      window_mean_ns(before.queue_wait, after.queue_wait);
  v["serve.service_ns"] = window_mean_ns(before.service, after.service);
  v["serve.end_to_end_ns"] =
      window_mean_ns(before.end_to_end, after.end_to_end);
  v["serve.batches"] = batches;
  v["serve.mean_batch"] =
      ratio(after.mean_batch * static_cast<double>(after.batches) -
                before.mean_batch * static_cast<double>(before.batches),
            batches);
  v["serve.trusted_frac"] = ratio(trusted, completed);
  v["serve.trust_drop_frac"] =
      ratio(delta(after.trust_drops, before.trust_drops), trusted);
  v["serve.scrub_processed_frac"] =
      ratio(delta(after.scrub_processed, before.scrub_processed), trusted);
  v["serve.gate_reject_frac"] =
      ratio(delta(after.gate_rejects, before.gate_rejects), trusted);
  v["serve.scrub_repairs"] = delta(after.scrub_repairs, before.scrub_repairs);
  v["serve.substituted_bits"] =
      delta(after.scrub_substituted_bits, before.scrub_substituted_bits);
  v["serve.snapshots_published"] =
      delta(after.snapshots_published, before.snapshots_published);
  v["serve.chaos_flips"] = delta(after.chaos_flips, before.chaos_flips);
  v["serve.degraded_frac"] =
      ratio(delta(after.degraded_responses, before.degraded_responses),
            completed);
  v["serve.quarantined_chunks"] = static_cast<double>(after.quarantined_chunks);
  v["serve.canary_runs"] = delta(after.canary_runs, before.canary_runs);
  v["serve.rejected"] = delta(after.rejected, before.rejected);
  v["serve.deadline_sheds"] =
      delta(after.deadline_sheds, before.deadline_sheds);
  v["serve.abstained"] =
      delta(after.abstained_responses, before.abstained_responses);
}

}  // namespace perfbench
