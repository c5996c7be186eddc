// perf_bench: one workload of the end-to-end benchmark per process.
//
//   perf_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-dir <dir>]
//
// Prints the environment, a host reference time at start and end, the
// workload's progress and checks, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, measured with tracing off; with --trace 1 the
// per-layer ones that the workload exercises (perf/run.py adds the rest as
// 0). perf/run.py builds this binary and runs it.
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perf_bench: " << why
            << "\nusage: perf_bench --workload zk-gandef-digits|"
               "pgd-adv-digits|serve-open-loop --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perf::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--trace-dir") {
      o.trace_dir = value;
    } else {
      return usage("unknown option " + key);
    }
  }
  if (argc % 2 != 1) return usage("options come in pairs");
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");
  const bool zk = o.workload == "zk-gandef-digits";
  const bool pgd = o.workload == "pgd-adv-digits";
  const bool serve = o.workload == "serve-open-loop";
  if (!zk && !pgd && !serve) return usage("unknown workload '" + o.workload + "'");

  perf::now_s();  // process start-up is part of the first set-up
  perf::print_environment(o);
  std::cout << "host reference loop at start: " << perf::reference_loop_ms(o.seed)
            << " ms\n";

  perf::Report report;
  try {
    if (serve) {
      perf::run_serve_workload(o, report);
    } else {
      perf::run_training_workload(o, zk, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "perf_bench: workload failed: " << e.what() << "\n";
    return 1;
  }
  if (!o.trace) report.metric("peak_rss_mb", perf::peak_rss_mb(), "MB");

  std::cout << "host reference loop at end: " << perf::reference_loop_ms(o.seed)
            << " ms\nops: attempted " << report.attempted_count()
            << ", failed " << report.failed_count() << "\n"
            << report.json() << std::endl;
  return 0;
}
