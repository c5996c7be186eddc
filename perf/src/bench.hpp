// Shared plumbing of the perf benchmark: command-line options, the result
// report printed as the last line, and the benchmark's own spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/telemetry.hpp"

namespace perf {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its span files
};

/// Seconds on the steady clock since the first call in the process.
double now_s();
/// Sleeps until now_s() reaches `t`.
void sleep_until_s(double t);

/// Metrics plus operation accounting; prints the final JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  /// Records an operation outcome; failures are never dropped silently.
  void attempted(std::int64_t n = 1) { attempted_ += n; }
  void failed(std::int64_t n = 1) { failed_ += n; }

  /// A failed correctness check: reported on stderr, `correct` = false.
  void check(bool ok, const std::string& what);

  std::int64_t attempted_count() const { return attempted_; }
  std::int64_t failed_count() const { return failed_; }

  /// One JSON object: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
};

/// Runs `fn` and records a span named `name` around it into `spans`, a
/// standalone registry of the benchmark's own spans; returns seconds.
template <typename Fn>
double timed(zkg::obs::Telemetry& spans, const char* name, Fn&& fn) {
  const double start = now_s();
  fn();
  const double dur = now_s() - start;
  zkg::obs::SpanRecord record;
  record.name = name;
  record.seq = spans.span_count();
  record.start_s = start;
  record.dur_s = dur;
  spans.record_span(record);
  return dur;
}

/// Totals of the library's own ZKG_SPAN records (tracing must be on).
/// Self time is a span's duration minus that of its direct children.
struct SpanTotal {
  std::int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotal> library_span_totals();

/// Writes the spans and counters of `telemetry` as JSON Lines to `path`.
void write_trace(const std::string& path, zkg::obs::Telemetry& telemetry);

/// Peak resident set size of this process in MB.
double peak_rss_mb();

/// Host and build facts printed at the start of every run.
void print_environment(const Options& options);

/// Wall time in ms of a fixed scalar loop compiled into the benchmark. The
/// same code at the start and end of a run measures the host, not the
/// program: when it drifts, the host drifted.
double reference_loop_ms(std::uint64_t seed);

/// Workload entry points; each fills `report`.
void run_training_workload(const Options& options, bool zk_gandef,
                           Report& report);
void run_serve_workload(const Options& options, Report& report);

}  // namespace perf
