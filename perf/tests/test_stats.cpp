// Unit tests for perf/src/stats.hpp. Runs without any workload:
//   python3 perf/run.py --selftest
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                               \
  do {                                                            \
    if (!(cond)) {                                                \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                               \
    }                                                             \
  } while (0)

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentile_nearest_rank() {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  CHECK(perf::percentile(v, 50.0) == 3.0);
  CHECK(perf::percentile(v, 0.0) == 1.0);
  CHECK(perf::percentile(v, 100.0) == 5.0);
  CHECK(perf::percentile(ramp(100), 99.0) == 99.0);
  CHECK(std::isnan(perf::percentile({}, 50.0)));
}

void test_tail_needs_ten_samples_beyond() {
  // Fewer than forty samples: median only.
  CHECK(perf::tail_percentile(0) == 0.0);
  CHECK(perf::tail_percentile(39) == 0.0);
  // 40 samples: p75 leaves exactly 10 beyond, p80 only 8.
  CHECK(perf::tail_percentile(40) == 75.0);
  // 100 samples: p90 leaves 10 beyond; p95 only 5.
  CHECK(perf::tail_percentile(100) == 90.0);
  CHECK(perf::tail_percentile(999) == 98.0);
  CHECK(perf::tail_percentile(1000) == 99.0);
  CHECK(perf::tail_percentile(10000) == 99.9);
  // Whatever is chosen, at least ten samples lie strictly beyond it.
  for (std::size_t n = 40; n < 3000; n += 7) {
    const std::vector<double> v = ramp(n);
    const double q = perf::tail_percentile(n);
    const double at = perf::percentile(v, q);
    std::size_t beyond = 0;
    for (double x : v) beyond += x > at ? 1 : 0;
    CHECK(beyond >= 10);
  }
  const perf::Summary small = perf::summarize(ramp(20));
  CHECK(small.tail_q == 0.0 && small.tail == small.median);
  const perf::Summary big = perf::summarize(ramp(1000));
  CHECK(big.tail_q == 99.0 && big.tail == 990.0 && big.median == 500.0);
}

void test_open_loop_lateness() {
  // 100 requests/s from t = 10 s: request i is due at 10 + i/100.
  perf::OpenLoopLedger ledger(10.0, 100.0, 4);
  CHECK(std::fabs(ledger.due_s(3) - 10.03) < 1e-12);
  // Sent on time, one late by 5 ms; one never answered.
  ledger.sent(0, 10.000);
  ledger.sent(1, 10.015);
  ledger.sent(2, 10.020);
  ledger.sent(3, 9.0);  // early sends never count as negative lateness
  ledger.answered(0, 10.002);
  ledger.answered(1, 10.017);  // latency counts from due (10.01), not send
  ledger.answered(3, 10.031);
  CHECK(std::fabs(ledger.late_s()[1] - 0.005) < 1e-9);
  CHECK(ledger.late_s()[3] == 0.0);
  CHECK(std::fabs(ledger.latency_s()[0] - 0.002) < 1e-9);
  CHECK(std::fabs(ledger.latency_s()[1] - 0.007) < 1e-9);
  CHECK(std::isinf(ledger.latency_s()[2]));
  // The unanswered request misses every limit: it is the whole tail.
  CHECK(std::isinf(perf::percentile(ledger.latency_s(), 100.0)));
  CHECK(perf::percentile(ledger.latency_s(), 75.0) < 0.01);
}

void test_linf_ball() {
  const std::vector<float> clean = {0.0f, 0.5f, -1.0f, 1.0f};
  const std::vector<float> inside = {0.3f, 0.2f, -0.7f, 1.0f};
  perf::BallCheck c = perf::check_linf_ball(inside.data(), clean.data(), 4,
                                            0.3f, -1.0f, 1.0f);
  CHECK(c.ok());
  CHECK(std::fabs(c.max_deviation - 0.3f) < 1e-6f);

  const std::vector<float> too_far = {0.31f, 0.5f, -1.0f, 1.0f};
  c = perf::check_linf_ball(too_far.data(), clean.data(), 4, 0.3f, -1.0f,
                            1.0f);
  CHECK(!c.ok() && c.outside_ball == 1 && c.outside_range == 0);

  const std::vector<float> out_of_range = {0.0f, 0.5f, -1.2f, 1.0f};
  c = perf::check_linf_ball(out_of_range.data(), clean.data(), 4, 0.3f,
                            -1.0f, 1.0f);
  CHECK(!c.ok() && c.outside_range == 1 && c.outside_ball == 0);

  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> broken = {nan, 0.5f, -1.0f, 1.0f};
  c = perf::check_linf_ball(broken.data(), clean.data(), 4, 0.3f, -1.0f,
                            1.0f);
  CHECK(!c.ok() && c.non_finite == 1);

  // eps = 0 admits only the clean image itself.
  c = perf::check_linf_ball(clean.data(), clean.data(), 4, 0.0f, -1.0f, 1.0f);
  CHECK(c.ok() && c.max_deviation == 0.0f);
}

}  // namespace

int main() {
  test_percentile_nearest_rank();
  test_tail_needs_ten_samples_beyond();
  test_open_loop_lateness();
  test_linf_ball();
  if (g_failures != 0) {
    std::printf("%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perf selftest: all checks passed\n");
  return 0;
}
