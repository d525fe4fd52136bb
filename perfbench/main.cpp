// perfbench — the repository's benchmark harness.
//
//   perfbench --workload <score_bulk|fleet_tiny|heal_features>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints report lines (answer check, latency sample count, host
// diagnostics, ...) and, as the last line, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit code 0 once a result is printed (a failed answer check reads
// "correct": false); 2 on bad arguments; 1 when the run itself fails.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "<score_bulk|fleet_tiny|heal_features> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 600.0) {
        return usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Result (*run)(const perfbench::Options&) = nullptr;
  if (options.workload == "score_bulk") {
    run = perfbench::run_score_bulk;
  } else if (options.workload == "fleet_tiny") {
    run = perfbench::run_fleet_tiny;
  } else if (options.workload == "heal_features") {
    run = perfbench::run_heal_features;
  } else {
    return usage("unknown or missing --workload");
  }

  try {
    perfbench::Result result = run(options);
    if (options.trace) {
      // The traced run's own end-to-end numbers: against the untraced
      // runs they show what tracing costs.
      result.values["trace.throughput_qps"] = result.values["throughput_qps"];
      result.values["trace.latency_p50_us"] = result.values["latency_p50_us"];
      result.values["trace.latency_p90_us"] = result.values["latency_p90_us"];
      result.values["trace.latency_p99_us"] = result.values["latency_p99_us"];
    }
    std::cout << "workload: " << options.workload << " seed=" << options.seed
              << " seconds=" << options.seconds
              << " trace=" << (options.trace ? 1 : 0) << "\n";
    for (const auto& line : result.report) std::cout << line << "\n";
    std::cout << "end-to-end:";
    for (const auto& spec : perfbench::metric_catalogue()) {
      if (!spec.end_to_end) continue;
      std::cout << " " << spec.name << "=" << result.values[spec.name] << " "
                << spec.unit << ";";
    }
    std::cout << "\n" << perfbench::result_json(result, options.trace)
              << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  return 0;
}
