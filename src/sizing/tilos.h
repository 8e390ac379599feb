// TILOS-style sensitivity-based greedy sizer (paper refs [1],[15]).
//
// This is both the baseline MINFLOTRANSIT is compared against in Table 1 /
// Fig. 7 and the producer of MINFLOTRANSIT's initial guess solution (§2.4
// step 1). Starting from a minimum-sized circuit, each pass walks the
// critical path, computes for every on-path element the change in path
// delay per unit of added area if that element were bumped by ×bumpsize,
// bumps the most beneficial element, and repeats until the delay target is
// met or no bump helps.
#pragma once

#include <cstdint>

#include "timing/sta.h"

namespace mft {

struct TilosOptions {
  double bumpsize = 1.1;  ///< paper §3 uses 1.1
  /// Safety cap on bump passes; 0 picks a generous default.
  std::int64_t max_bumps = 0;
  /// Optional ECO size pins (id-indexed, entry > 0 = hold that vertex at
  /// that size): pinned vertices start at the pinned size and are never
  /// bump candidates. Not owned; may be nullptr.
  const std::vector<double>* pins = nullptr;
};

struct TilosResult {
  std::vector<double> sizes;
  bool met_target = false;
  double achieved_delay = 0.0;  ///< CP at the returned sizes
  double area = 0.0;
  std::int64_t bumps = 0;
};

class AbortToken;

/// Critical-path delay of the minimum-sized circuit (the paper's Dmin).
double min_sized_delay(const SizingNetwork& net);

/// Each bump runs only the arrival step of the incremental STA
/// (run_arrival), with the bumped vertex as the changed hint: the delay
/// recompute is O(loaders of that vertex) and the AT sweep starts at the
/// lowest position whose delay changed. RT is never computed; the critical
/// path is walked in sweep-position space (critical_positions).
///
/// `abort` (optional) is checked once per bump; when it trips the loop
/// stops with the best-so-far sizes and met_target reflecting the last STA.
TilosResult run_tilos(const SizingNetwork& net, double target_delay,
                      const TilosOptions& opt = {},
                      AbortToken* abort = nullptr);

}  // namespace mft
