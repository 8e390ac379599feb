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
//    form for callers that know their own update (the D-phase times the
//    last accepted W-phase move).
//    `changed` must be a superset of the truly-resized vertices (extra or
//    duplicate entries cost nothing); an incomplete hint is corruption and
//    is caught by a full cross-check in debug builds.
//  - run_arrival(net, sizes, scratch, changed): the arrival step alone,
//    for callers that read only AT, delay and CP in sweep-position space
//    (TILOS: one bump per call, no RT, no report).
// All paths produce bit-identical results; the tier-1 suite asserts the
// equivalences on randomized size updates.
//
// Arrival/required split: every scratch run is an arrival step (recompute
// the dirty delays, sweep AT forward, track CP and its position) followed,
// in run_sta, by a required step (the RT sweep, then the export of the
// id-indexed TimingReport). The arrival step starts its forward sweep at
// the lowest position whose delay changed: positions before it keep their
// AT, and a per-position prefix record of the CP winner restores the CP
// fold there exactly; every position from there on is recomputed. A full
// run is the same sweep started at position 0. RT has no such bound: CP(G)
// seeds every sink's RT and moves on nearly every TILOS bump.
//
// Layout: the kernels never walk SizingVertex records. All hot state lives
// in sweep-position order (SizingNetwork::plan()): the delay recompute and
// the AT/RT sweeps stream the plan's SoA/CSR arrays level-contiguously,
// and one final pass exports the id-indexed TimingReport. Values are
// bit-identical to the historical id-order walks (term order per vertex is
// preserved; max/min folds are exact under reordering).
#pragma once

#include <cstdint>
#include <vector>

#include "timing/sizing_network.h"

namespace mft {

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
/// many times on one network (W-phase/backoff loop, D-phase workspace,
/// TILOS).
struct TimingScratch {
  TimingReport report;             ///< result storage, reused across calls
  std::vector<double> last_sizes;  ///< sizes of the previous run (by id)
  /// Persistent sweep-position-order working set (see SizingNetwork::plan):
  /// the kernels read and write only these; `report` is exported from them
  /// by the required step.
  std::vector<double> sizes_pos;
  std::vector<double> delay_pos;
  std::vector<double> at_pos;
  std::vector<double> rt_pos;
  /// CP(G) and the sweep position realizing it, as of the last arrival
  /// step (-1 on an empty network).
  double critical_path = 0.0;
  int cp_pos = -1;
  /// cp_prefix[p]: position of the CP winner among positions 0..p, so the
  /// next arrival step can resume the CP fold at its start position.
  std::vector<int> cp_prefix;
  std::vector<int> dirty;          ///< scratch: positions to re-delay
  std::vector<char> is_dirty;      ///< scratch: dedup mask for `dirty`
  bool valid = false;              ///< false until the first (full) run
  std::uint64_t net_serial = 0;    ///< SizingNetwork::serial() of the run

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

/// Full forward/backward sweep on a fresh scratch: every delay, and AT
/// from position 0. `sizes` indexed by vertex id. This is the reference
/// every incremental run is compared against.
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

/// Arrival step of the incremental sweep alone: delays, AT and CP(G) into
/// the scratch's position-space arrays (delay_pos, at_pos, critical_path,
/// cp_pos). RT and `report` are left as they were. `changed` follows the
/// run_sta hint contract; it is ignored when the scratch needs a full run.
/// Every run_sta leaves the same arrival state behind.
void run_arrival(const SizingNetwork& net, const std::vector<double>& sizes,
                 TimingScratch& scratch, const std::vector<NodeId>& changed);

/// The critical path of the scratch's last arrival step as sweep
/// positions, source→sink, written into `path` (cleared first). The same
/// walk as TimingReport::critical_vertices: from cp_pos back through the
/// max-(AT+delay) fanin, lowest vertex id on ties, stopping where AT came
/// from the source floor.
void critical_positions(const SweepPlan& pl, const TimingScratch& scratch,
                        std::vector<int>& path);

}  // namespace mft
