// The benchmark's own statistics: percentile selection, open-loop
// lateness accounting and the L-infinity ball check. Header-only and free
// of library types so tests/test_stats.cpp exercises it without running a
// workload.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace perf {

/// Nearest-rank percentile (q in [0, 100]) of `values`; NaN when empty.
/// +inf entries (requests that never got an answer) sort last, so a tail
/// that reaches them reads +inf.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::int64_t>(std::ceil(q * n / 100.0 - 1e-9));
  rank = std::clamp<std::int64_t>(rank, 1,
                                  static_cast<std::int64_t>(values.size()));
  return values[static_cast<std::size_t>(rank - 1)];
}

/// The highest percentile of a fixed ladder that has at least ten samples
/// beyond it, or 0 when there are fewer than forty samples (no percentile
/// above the median is then a tail worth reporting).
inline double tail_percentile(std::size_t samples) {
  static constexpr double kLadder[] = {99.9, 99.5, 99.0, 98.0, 97.5, 95.0,
                                       90.0, 80.0, 75.0};
  if (samples < 40) return 0.0;
  const double n = static_cast<double>(samples);
  for (const double q : kLadder) {
    // Samples strictly beyond the nearest-rank position of q.
    const double beyond = n - std::ceil(q * n / 100.0 - 1e-9);
    if (beyond >= 10.0) return q;
  }
  return 0.0;
}

/// Median and tail of one sample set, with the tail percentile chosen by
/// tail_percentile(); `tail` equals `median` when no tail is supported.
struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  double tail_q = 0.0;
  double tail = 0.0;
};

inline Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.median = percentile(values, 50.0);
  s.tail_q = tail_percentile(values.size());
  s.tail = s.tail_q > 0.0 ? percentile(values, s.tail_q) : s.median;
  return s;
}

/// Open-loop schedule: request i is due at start + i / rate, whatever
/// happened to earlier requests. Latency is measured from the due time,
/// so a generator or server stall is charged to every request it delays.
class OpenLoopLedger {
 public:
  OpenLoopLedger(double start_s, double rate_per_s, std::size_t requests)
      : start_s_(start_s),
        period_s_(1.0 / rate_per_s),
        late_s_(requests, 0.0),
        latency_s_(requests, std::numeric_limits<double>::infinity()) {}

  std::size_t size() const { return late_s_.size(); }
  double due_s(std::size_t i) const {
    return start_s_ + static_cast<double>(i) * period_s_;
  }

  /// The generator sent request i at `sent_s`.
  void sent(std::size_t i, double sent_s) {
    late_s_[i] = std::max(0.0, sent_s - due_s(i));
  }
  /// Request i was answered at `done_s`. Requests never answered (refused,
  /// expired, failed) keep an infinite latency: they miss every limit.
  void answered(std::size_t i, double done_s) {
    latency_s_[i] = done_s - due_s(i);
  }

  const std::vector<double>& latency_s() const { return latency_s_; }
  const std::vector<double>& late_s() const { return late_s_; }

 private:
  double start_s_;
  double period_s_;
  std::vector<double> late_s_;
  std::vector<double> latency_s_;
};

/// Result of checking perturbed images against their clean originals.
struct BallCheck {
  std::int64_t outside_ball = 0;   // |adv - clean| > eps + tol
  std::int64_t outside_range = 0;  // adv outside [lo - tol, hi + tol]
  std::int64_t non_finite = 0;
  float max_deviation = 0.0f;      // max |adv - clean| seen
  bool ok() const {
    return outside_ball == 0 && outside_range == 0 && non_finite == 0;
  }
};

/// Every element of `adv` must lie within `eps` of `clean` in L-infinity
/// and inside the pixel range [lo, hi]; `tol` absorbs float rounding.
inline BallCheck check_linf_ball(const float* adv, const float* clean,
                                 std::int64_t n, float eps, float lo,
                                 float hi, float tol = 1e-5f) {
  BallCheck check;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(adv[i])) {
      ++check.non_finite;
      continue;
    }
    const float dev = std::fabs(adv[i] - clean[i]);
    check.max_deviation = std::max(check.max_deviation, dev);
    if (dev > eps + tol) ++check.outside_ball;
    if (adv[i] < lo - tol || adv[i] > hi + tol) ++check.outside_range;
  }
  return check;
}

}  // namespace perf
