// Outside-in layer trace. A traced run replays engine jobs on a fresh
// SizingContext through a Pipeline assembled the way
// make_minflotransit_pipeline assembles it, with every pass wrapped in a
// benchmark-owned decorator that times it, plus one extra step after each
// D-phase call: the flow instance that call just solved
// (ctx.dphase().flow.problem) is solved again with solve_network_simplex
// on a benchmark-owned McfWorkspace, which times the flow layer and
// counts its pivots exactly. Nothing inside the library is instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "sizing/minflotransit.h"

namespace perfbench {

/// Per-layer totals over a set of replayed jobs.
struct LayerSplit {
  double replay_s = 0.0;   ///< replay wall, re-solves included
  double tilos_s = 0.0;    ///< TilosPass spans
  double wphase_s = 0.0;   ///< WPhasePass spans
  double dphase_s = 0.0;   ///< DPhasePass spans (flow re-solves excluded)
  double flow_s = 0.0;     ///< flow re-solves
  std::int64_t flow_solves = 0;
  std::int64_t pivots = 0;
  std::int64_t dphase_calls = 0;
  std::int64_t dphase_accepted = 0;
  std::int64_t bumps = 0;
  std::int64_t sta_full = 0;
  std::int64_t sta_incremental = 0;
  std::int64_t sta_delays = 0;
  std::int64_t wphase_sweeps = 0;
  /// Re-solves whose pivot count differed from the D-phase's own solve.
  std::int64_t pivot_mismatches = 0;

  /// Emits the pipeline-layer metrics (mcf.*, dphase.*, tilos.*, sta.*,
  /// wphase.*, trace.overhead_frac). `engine_wall_s` is the
  /// untraced engine wall time of the same jobs; the overhead compares the
  /// replay with it, while the shares divide by the replay's own time.
  void report(Report& rep, double engine_wall_s) const;
};

/// Replays one job (target and seed as the engine resolved them) and
/// returns its sizes; accumulates the split into `acc`. The caller
/// compares the sizes with the engine's bit for bit.
std::vector<double> replay_job(const mft::SizingNetwork& net, double target,
                               const mft::MinflotransitOptions& options,
                               std::uint64_t seed, LayerSplit& acc);

/// Compares a replay with the engine result it reproduces: sizes bit for
/// bit, TILOS bumps, STA counters and W-phase sweeps exactly. Returns ""
/// or the mismatch.
std::string compare_replay(const mft::JobResult& engine,
                           const std::vector<double>& replay_sizes,
                           const LayerSplit& before, const LayerSplit& after);

}  // namespace perfbench
