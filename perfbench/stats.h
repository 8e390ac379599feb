// Statistics the benchmark reports, kept free of library dependencies so
// stats_test.cc can pin them without building the sizing library.
//
//  - median / tail: every timing is reported as its median and its tail,
//    where the tail is the highest percentile that still has at least
//    kTailBeyond samples above it (sample k of n in ascending order has
//    n - k samples beyond it, so the tail is sample n - kTailBeyond and
//    exists only when n > kTailBeyond).
//  - OpenLoop: the open-loop generator's due-time accounting. Every op has
//    a due time fixed by the schedule; the op is issued at max(due, the
//    moment the generator is free again), and its latency is charged from
//    its due time, so an op stalled behind a slow one pays for the stall.
//    The generator's lag (issue time minus due time) is recorded per op;
//    a run may give up once the lag passes a bound (the generator cannot
//    keep up, so the offered rate is not being served).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kTailBeyond = 10;

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Tail {
  bool valid = false;     ///< false when n <= kTailBeyond
  double value = 0.0;     ///< the tail sample
  double percentile = 0;  ///< 100 * (n - kTailBeyond) / n
  std::size_t samples = 0;
};

inline Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.size() <= kTailBeyond) return t;
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() - kTailBeyond;  // 1-based rank
  t.valid = true;
  t.value = v[k - 1];
  t.percentile = 100.0 * static_cast<double>(k) / static_cast<double>(v.size());
  return t;
}

/// Geometric mean of positive values (0 for an empty input).
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

/// Open-loop generator over a fixed schedule. `now` reads the run clock in
/// seconds, `sleep_until` blocks until the given clock time, and `issue`
/// sends op i (it may block, e.g. a request handled synchronously).
/// Ops are issued in schedule order.
class OpenLoop {
 public:
  OpenLoop(std::function<double()> now,
           std::function<void(double)> sleep_until)
      : now_(std::move(now)), sleep_until_(std::move(sleep_until)) {}

  /// Runs the schedule; afterwards issued()[i] - due[i] is op i's lag.
  /// Stops before an op whose lag would exceed `give_up_lag` (a
  /// saturated generator) and returns how many ops were sent.
  std::size_t run(const std::vector<double>& due,
                  const std::function<void(std::size_t)>& issue,
                  double give_up_lag = std::numeric_limits<double>::infinity()) {
    issued_.clear();
    for (std::size_t i = 0; i < due.size(); ++i) {
      if (now_() < due[i]) sleep_until_(due[i]);
      const double t = now_();
      if (t - due[i] > give_up_lag) break;
      issued_.push_back(t);
      issue(i);
    }
    return issued_.size();
  }

  const std::vector<double>& issued() const { return issued_; }

  /// Generator lag of every op sent: how late it was sent.
  std::vector<double> lags(const std::vector<double>& due) const {
    std::vector<double> out(issued_.size());
    for (std::size_t i = 0; i < issued_.size(); ++i)
      out[i] = std::max(0.0, issued_[i] - due[i]);
    return out;
  }

 private:
  std::function<double()> now_;
  std::function<void(double)> sleep_until_;
  std::vector<double> issued_;
};

/// Latency of an op charged from its due time (not from when it was sent).
inline double latency_from_due(double due, double done) { return done - due; }

}  // namespace perfbench
