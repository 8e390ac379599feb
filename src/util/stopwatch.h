// Wall-clock stopwatch used by the benchmark harnesses to report CPU-time
// columns (Table 1) and scaling curves.
#pragma once

#include <chrono>

namespace mft {

/// Monotonic wall-clock stopwatch. Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restart the stopwatch from zero.
  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mft
