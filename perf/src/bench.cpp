#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/parallel.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "stats.hpp"
#include "tensor/backend/backend.hpp"

namespace perf {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point origin() {
  static const Clock::time_point t = Clock::now();
  return t;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - origin()).count();
}

void sleep_until_s(double t) {
  std::this_thread::sleep_until(
      origin() + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(t)));
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

std::string Report::json() const {
  std::ostringstream out;
  out.precision(12);
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    // JSON has no infinity; a latency that never resolved is already
    // counted in `failed`, so print it as an unmistakably huge number.
    const double value = std::isfinite(v.value) ? v.value : 1e12;
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::map<std::string, SpanTotal> library_span_totals() {
  const std::vector<zkg::obs::SpanRecord> spans =
      zkg::obs::Telemetry::global().spans();
  std::map<std::uint64_t, double> child_s;
  for (const zkg::obs::SpanRecord& s : spans) {
    if (s.parent >= 0) child_s[static_cast<std::uint64_t>(s.parent)] += s.dur_s;
  }
  std::map<std::string, SpanTotal> totals;
  for (const zkg::obs::SpanRecord& s : spans) {
    SpanTotal& t = totals[s.name];
    ++t.count;
    t.total_s += s.dur_s;
    const auto it = child_s.find(s.seq);
    t.self_s += s.dur_s - (it == child_s.end() ? 0.0 : it->second);
  }
  return totals;
}

void write_trace(const std::string& path, zkg::obs::Telemetry& telemetry) {
  std::ofstream out(path, std::ios::trunc);
  zkg::obs::write_jsonl(out, telemetry);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string vector_flags() {
  std::istringstream flags(cpuinfo_field("flags"));
  std::string flag;
  std::string kept;
  for (const char* want : {"sse4_2", "avx", "avx2", "fma", "avx512f"}) {
    flags.clear();
    flags.seekg(0);
    while (flags >> flag) {
      if (flag == want) {
        kept += (kept.empty() ? "" : " ") + flag;
        break;
      }
    }
  }
  return kept.empty() ? "none" : kept;
}

}  // namespace

void print_environment(const Options& options) {
  const char* sha = std::getenv("ZKG_PERF_GIT_SHA");
  const char* threads = std::getenv("ZKG_THREADS");
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
  std::cout << "env: git_sha=" << (sha != nullptr ? sha : "unknown")
            << "\nenv: cpu=" << cpuinfo_field("model name")
            << "\nenv: cpu_flags=" << vector_flags()
            << "\nenv: kernel_backend=" << zkg::backend::active_name()
            << " parallel_backend=" << zkg::parallel_backend_name()
            << " parallel_threads=" << zkg::parallel_threads()
            << " ZKG_THREADS=" << (threads != nullptr ? threads : "unset")
            << "\nenv: loadavg=" << load[0] << " " << load[1] << " "
            << load[2] << "\nenv: workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << "\n";
}

double reference_loop_ms(std::uint64_t seed) {
  // A serial dependency chain through an integer LCG and a floating-point
  // sum: no vectorisation, no reassociation, no memory traffic.
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const double start = now_s();
    std::uint64_t x = seed | 1u;
    double acc = 0.0;
    for (int i = 0; i < 4'000'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      acc += static_cast<double>(x >> 40) * 1e-9;
    }
    volatile double sink = acc;
    static_cast<void>(sink);
    reps.push_back((now_s() - start) * 1e3);
  }
  return percentile(reps, 50.0);
}

}  // namespace perf
