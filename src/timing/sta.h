// Static timing analysis over a SizingNetwork — the attributes of paper
// eq. (8): arrival time AT, required time RT, slack, edge slack, and the
// critical path CP(G).
//
// Entry points:
//  - run_sta(net, sizes): full recompute, allocates a fresh report.
//  - run_sta(net, sizes, scratch): incremental. The scratch remembers the
//    sizes of the previous call and only recomputes the delay for
//    vertices whose delay can actually have changed (the resized vertices
//    plus everything loaded by them, via the reverse-load CSR), found by an
//    O(n) scan against the remembered sizes.
//  - run_sta(net, sizes, scratch, changed): same, but the caller names the
//    resized vertices up front and the O(n) scan is skipped — the right
//    form for callers that know their own update (TILOS bumps one vertex
//    per iteration; the D-phase times the last accepted W-phase move).
//    `changed` must be a superset of the truly-resized vertices (extra or
//    duplicate entries cost nothing); an incomplete hint is corruption and
//    is caught by a full cross-check in debug builds.
// All paths produce bit-identical reports; the tier-1 suite asserts the
// equivalences on randomized size updates.
//
// Layout: the kernels never walk SizingVertex records. All hot state lives
// in sweep-position order (SizingNetwork::plan()): the delay recompute and
// the AT/RT sweeps stream the plan's SoA/CSR arrays level-contiguously,
// and one final pass exports the id-indexed TimingReport. Values are
// bit-identical to the historical id-order walks (term order per vertex is
// preserved; max/min folds are exact under reordering).
//
// Parallelism: when scratch.arena points at a multi-thread ThreadArena,
// the delay recompute runs partitioned over the dirty set and the AT/RT
// sweeps run level-parallel over the same position arrays — still
// bit-identical to the sequential sweeps (per-vertex arithmetic is
// unchanged; the cp argmax is merged max-end-first, lowest-topological-
// position-on-ties, exactly the sequential rule).
#pragma once

#include <cstdint>
#include <vector>

#include "timing/sizing_network.h"

namespace mft {

class ThreadArena;

struct TimingReport {
  std::vector<double> delay;   ///< per-vertex delay under the given sizes
  std::vector<double> at;      ///< arrival time at the vertex *input*
  std::vector<double> rt;      ///< required time
  std::vector<double> slack;   ///< rt - at
  double critical_path = 0.0;  ///< CP(G) = max_v (at + delay)
  /// Endpoint realizing CP(G), tracked during the forward sweep (first
  /// vertex in topological order attaining the max — deterministic).
  NodeId cp_vertex = kInvalidNode;

  /// Edge slack esl(e_ij) = RT(j) − AT(i) − delay(i)  (eq. (8)).
  double edge_slack(const SizingNetwork& net, ArcId a) const;

  /// Vertices on the critical path, source→sink order. Deterministic: ends
  /// at cp_vertex and walks back through the max-(AT+delay) fanin at every
  /// step (ties broken by lowest vertex id).
  std::vector<NodeId> critical_vertices(const SizingNetwork& net) const;

  /// "Safe" per the paper: all vertex slacks and edge slacks >= -tol.
  bool safe(const SizingNetwork& net, double tol = 1e-9) const;
};

/// Reusable state for incremental STA. Owned by callers that re-run timing
/// many times on one network (W-phase/backoff loop, D-phase workspace).
struct TimingScratch {
  TimingReport report;             ///< result storage, reused across calls
  std::vector<double> last_sizes;  ///< sizes of the previous run (by id)
  /// Persistent sweep-position-order working set (see SizingNetwork::plan):
  /// the kernels read and write only these; `report` is exported from them
  /// at the end of each run.
  std::vector<double> sizes_pos;
  std::vector<double> delay_pos;
  std::vector<double> at_pos;
  std::vector<double> rt_pos;
  std::vector<int> dirty;          ///< scratch: positions to re-delay
  std::vector<char> is_dirty;      ///< scratch: dedup mask for `dirty`
  bool valid = false;              ///< false until the first (full) run
  std::uint64_t net_serial = 0;    ///< SizingNetwork::serial() of the run
  /// Inner-loop parallelism: when set (and multi-thread), the delay
  /// recompute and the AT/RT sweeps run on the arena. Not owned; the owner
  /// (engine worker, bench) must keep it alive across runs. Results are
  /// bit-identical at any thread count.
  ThreadArena* arena = nullptr;

  // Instrumentation for tests and benches.
  std::int64_t full_runs = 0;
  std::int64_t incremental_runs = 0;
  /// Subset of incremental_runs that used a caller-provided changed hint
  /// (no O(n) size scan).
  std::int64_t hinted_runs = 0;
  std::int64_t delays_recomputed = 0;

  /// Zero the instrumentation counters without touching the cached timing
  /// state (the next run stays incremental). SizingContext calls this at
  /// creation and between batch jobs so per-job stats start from zero.
  void reset_instrumentation() {
    full_runs = 0;
    incremental_runs = 0;
    hinted_runs = 0;
    delays_recomputed = 0;
  }
};

/// Full forward/backward sweep. `sizes` indexed by vertex id. This is the
/// reference every other path is compared against.
TimingReport run_sta(const SizingNetwork& net, const std::vector<double>& sizes);

/// Incremental sweep: recomputes only the delays invalidated since the
/// previous call on this scratch (full recompute on the first call). The
/// invalidated set is found by scanning `sizes` against the previous run.
/// Returns scratch.report; the reference stays valid until the next call.
const TimingReport& run_sta(const SizingNetwork& net,
                            const std::vector<double>& sizes,
                            TimingScratch& scratch);

/// Incremental sweep with a caller-provided change hint: `changed` must
/// contain every vertex whose size differs from the previous call on this
/// scratch (supersets and duplicates are fine — entries whose size is
/// unchanged are skipped). Skips the O(n) size-diff scan entirely.
const TimingReport& run_sta(const SizingNetwork& net,
                            const std::vector<double>& sizes,
                            TimingScratch& scratch,
                            const std::vector<NodeId>& changed);

}  // namespace mft
