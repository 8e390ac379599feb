// Inner-loop benchmark: the three hot kernels (STA full, incremental STA
// sweeps, W-phase Gauss–Seidel) on the largest generated instance.
//
// Three axes:
//  - inner-thread scaling of the W-phase (sequential vs N level-parallel
//    inner threads, plus the bit-exactness cross-check: thread count must
//    never change results). The STA kernels are sequential only: their
//    level-parallel arms measured no better than one thread on a 4-vCPU
//    machine and were removed,
//  - layout ablation: the pre-SweepPlan array-of-structs walks (per-vertex
//    heap load vectors, id-indexed values, Digraph adjacency) re-timed
//    under the same seeds against the level-contiguous SoA kernels the
//    library now runs, with a bit-identity gate between the two — the
//    layout win is attributable, not just a before/after wall number,
//  - per-kernel throughput: vertices/second and effective GB/s (documented
//    byte model below) so regressions show up as bandwidth, not just time.
//
// Emits BENCH_inner.json with min/median wall times per phase (RepeatTiming
// — robust to CI noise), the W-phase speedup, the determinism bit and
// hw_concurrency. The thread speedup is hardware-bound — interpret it
// against hw_concurrency: a 1-core container reads well BELOW 1x because
// four workers time-slice one core. The 1-thread numbers double as the
// no-regression baseline; bench/BASELINE_inner_pr6.json snapshots the
// pre-SweepPlan numbers on the same instance. Override the W-phase thread
// count with --inner-threads or MFT_BENCH_INNER_THREADS.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "bench_common.h"
#include "gen/tiled.h"
#include "sizing/wphase.h"
#include "timing/sta.h"
#include "util/parallel.h"
#include "util/str.h"

using namespace mft;
using namespace mft::bench;

namespace {

bool reports_identical(const TimingReport& a, const TimingReport& b) {
  return a.delay == b.delay && a.at == b.at && a.rt == b.rt &&
         a.slack == b.slack && a.critical_path == b.critical_path &&
         a.cp_vertex == b.cp_vertex;
}

// ---------------------------------------------------------------------------
// Legacy array-of-structs reference kernels (layout ablation arm)
// ---------------------------------------------------------------------------
// The exact pre-SweepPlan walks, kept here (not in the library): per-vertex
// delay chases verts_[v].loads, the sweeps walk topological_order() with
// id-indexed value arrays, W-phase relaxes in reverse topological order.
// The determinism gate below asserts they still produce bit-identical
// results to the streaming kernels — the ablation times the layout, not a
// different algorithm.

double aos_delay(const SizingNetwork& net, NodeId v,
                 const std::vector<double>& sizes) {
  const SizingVertex& sv = net.vertex(v);
  if (sv.kind == VertexKind::kSource) return 0.0;
  double load = sv.b;
  for (const LoadTerm& t : sv.loads)
    load += t.coeff * sizes[static_cast<std::size_t>(t.vertex)];
  return sv.a_self + load / sizes[static_cast<std::size_t>(v)];
}

void aos_sweeps(const SizingNetwork& net, TimingReport& r) {
  const double inf = std::numeric_limits<double>::infinity();
  const Digraph& g = net.dag();
  r.critical_path = 0.0;
  r.cp_vertex = kInvalidNode;
  for (NodeId v : net.topological_order()) {
    double at = 0.0;
    for (ArcId a : g.in_arcs(v)) {
      const NodeId j = g.tail(a);
      at = std::max(at, r.at[static_cast<std::size_t>(j)] +
                            r.delay[static_cast<std::size_t>(j)]);
    }
    r.at[static_cast<std::size_t>(v)] = at;
    const double end = at + r.delay[static_cast<std::size_t>(v)];
    if (r.cp_vertex == kInvalidNode || end > r.critical_path) {
      r.critical_path = end;
      r.cp_vertex = v;
    }
  }
  const auto& topo = net.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    double rt = inf;
    if (net.vertex(v).is_po || g.out_degree(v) == 0)
      rt = r.critical_path - r.delay[static_cast<std::size_t>(v)];
    for (ArcId a : g.out_arcs(v)) {
      const NodeId j = g.head(a);
      rt = std::min(rt, r.rt[static_cast<std::size_t>(j)] -
                            r.delay[static_cast<std::size_t>(v)]);
    }
    r.rt[static_cast<std::size_t>(v)] = rt;
    r.slack[static_cast<std::size_t>(v)] =
        rt - r.at[static_cast<std::size_t>(v)];
  }
}

TimingReport aos_run_sta(const SizingNetwork& net,
                         const std::vector<double>& sizes) {
  const std::size_t n = static_cast<std::size_t>(net.num_vertices());
  TimingReport r;
  r.delay.resize(n);
  r.at.assign(n, 0.0);
  r.rt.assign(n, std::numeric_limits<double>::infinity());
  r.slack.resize(n);
  for (NodeId v = 0; v < net.num_vertices(); ++v)
    r.delay[static_cast<std::size_t>(v)] = aos_delay(net, v, sizes);
  aos_sweeps(net, r);
  return r;
}

WPhaseResult aos_wphase(const SizingNetwork& net,
                        const std::vector<double>& budget) {
  const Tech& tech = net.tech();
  WPhaseResult res;
  res.sizes = net.min_sizes();
  const auto start = res.sizes;
  const auto& topo = net.topological_order();
  const int max_sweeps = std::max(4, net.num_vertices());
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    ++res.sweeps;
    double max_rel_change = 0.0;
    char infeasible = 0;
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const NodeId v = *it;
      const SizingVertex& sv = net.vertex(v);
      if (sv.kind == VertexKind::kSource) continue;
      const double d = budget[static_cast<std::size_t>(v)];
      if (d <= sv.a_self) {
        infeasible = 1;
        res.sizes[static_cast<std::size_t>(v)] = tech.max_size;
        continue;
      }
      double load = sv.b;
      for (const LoadTerm& t : sv.loads)
        load += t.coeff * res.sizes[static_cast<std::size_t>(t.vertex)];
      double x = load / (d - sv.a_self);
      if (x > tech.max_size) {
        infeasible = 1;
        x = tech.max_size;
      }
      x = std::max(x, tech.min_size);
      const double old = res.sizes[static_cast<std::size_t>(v)];
      max_rel_change = std::max(max_rel_change, std::abs(x - old) / old);
      res.sizes[static_cast<std::size_t>(v)] = x;
    }
    if (infeasible) res.feasible = false;
    if (max_rel_change < 1e-12) break;
  }
  for (NodeId v = 0; v < net.num_vertices(); ++v)
    if (res.sizes[static_cast<std::size_t>(v)] !=
        start[static_cast<std::size_t>(v)])
      res.changed.push_back(v);
  return res;
}

// ---------------------------------------------------------------------------
// Effective-bandwidth model
// ---------------------------------------------------------------------------
// Bytes each kernel must move per run, counting every array element the
// streaming kernels touch exactly once (8 bytes per double, 4 per int,
// 1 per byte mask; gathers counted once — no cache modeling). A crude
// lower bound on real traffic, but stable across machines, so
// GB/s = bytes / median_seconds tracks layout efficiency over PRs.

double sweeps_bytes(int n, int arcs) {
  const double nd = n, ed = arcs;
  // Forward: fanin offsets + targets, AT+delay gathered per arc, delay +
  // topo_pos per vertex, AT written.           Backward: mirrored with RT.
  const double fwd = 4 * (nd + 1) + 4 * ed + 16 * ed + 8 * nd + 4 * nd + 8 * nd;
  const double bwd = 4 * (nd + 1) + 4 * ed + 8 * ed + 8 * nd + 1 * nd + 8 * nd;
  // Export: pos_of + three reads + four writes per vertex.
  const double exp = 4 * nd + 24 * nd + 32 * nd;
  return fwd + bwd + exp;
}

double full_sta_bytes(int n, int arcs, int load_terms) {
  // Delay init: load offsets + (coeff, target, gathered size) per term +
  // a_self/b/size/source per vertex + delay written; then the sweeps.
  const double nd = n, ld = load_terms;
  const double init = 4 * (nd + 1) + 20 * ld + 25 * nd + 8 * nd;
  return init + sweeps_bytes(n, arcs);
}

double wphase_bytes(int n, int load_terms, int sweeps) {
  const double nd = n, ld = load_terms;
  // Per sweep: load CSR + gathered sizes per term, budget/a_self/b/source
  // per vertex, size read+written.
  const double per_sweep = 4 * (nd + 1) + 20 * ld + 25 * nd + 16 * nd;
  // Gather budgets+start, scatter result.
  const double permute = 3 * (4 * nd + 16 * nd);
  return per_sweep * std::max(1, sweeps) + permute;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned hw = std::thread::hardware_concurrency();
  int par_threads = bench_inner_threads(argc, argv);
  if (par_threads <= 0) par_threads = std::max(4u, hw ? hw : 1u);
  const int repeats = 40;

  // The largest generated instance: 256 independent 24-bit ripple-carry
  // chains in one netlist. Width scales with the lanes, depth with the
  // bits: the single-large-circuit case the level-parallel inner loop
  // exists for.
  const Netlist nl = make_tiled_datapath({/*lanes=*/256, /*stages=*/1,
                                          /*bits=*/24});
  const LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const SizingNetwork& net = lc.net;
  const int n = net.num_vertices();
  const int arcs = net.dag().num_arcs();
  const int load_terms = net.plan().load_off[static_cast<std::size_t>(n)];

  const int levels = net.num_levels();
  int max_width = 0;
  for (int l = 0; l < levels; ++l)
    max_width = std::max(max_width, net.level_offsets()[l + 1] -
                                        net.level_offsets()[l]);
  std::printf(
      "inner-loop bench: %s, %d vertices, %d arcs, %d load terms, %d levels "
      "(avg width %.0f, max %d), hw concurrency %u\n\n",
      nl.name().c_str(), n, arcs, load_terms, levels,
      levels > 0 ? static_cast<double>(n) / levels : 0.0, max_width, hw);

  // Workload inputs: a sized interior point for budgets, and a trail of
  // single-vertex updates for the incremental-sweep phase.
  std::vector<double> sized = net.min_sizes();
  for (NodeId v = 0; v < n; ++v)
    if (!net.is_source(v)) sized[static_cast<std::size_t>(v)] *= 2.0;
  std::vector<double> budget(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v)
    budget[static_cast<std::size_t>(v)] = net.delay(v, sized);
  NodeId bump = 0;
  while (net.is_source(bump)) ++bump;

  BenchJson json;
  auto add_phase = [&](const char* phase, int threads, const RepeatTiming& t,
                       double bytes, double verts) {
    json.add(strf("inner/%s_t%d", phase, threads), t.total(),
             {{"min_seconds", t.min()},
              {"median_seconds", t.median()},
              {"vertices_per_second", verts / t.median()},
              {"effective_gb_per_second", bytes / t.median() / 1e9},
              {"repeats", static_cast<double>(repeats)},
              {"threads", static_cast<double>(threads)}});
  };

  // Full STA: delay init + both sweeps, from a cold scratch every time.
  TimingScratch scratch;
  const RepeatTiming full = time_repeats(repeats, [&] {
    scratch.valid = false;
    run_sta(net, sized, scratch);
  });

  // Sweep phase: one hinted single-vertex update per run — the delay
  // recompute is O(loaders of one vertex), so this times the AT sweep from
  // the bumped position, the RT sweep and the export (the D-phase steady
  // state).
  std::vector<double> x = sized;
  const std::vector<NodeId> hint = {bump};
  const RepeatTiming sweeps = time_repeats(repeats, [&] {
    const std::size_t b = static_cast<std::size_t>(bump);
    x[b] = x[b] == sized[b] ? sized[b] * 1.1 : sized[b];
    run_sta(net, x, scratch, hint);
  });
  const TimingReport report = scratch.report;  // for the ablation gate
  std::printf("STA (sequential): sta_full min %.3fms  sweeps min %.3fms\n",
              full.min() * 1e3, sweeps.min() * 1e3);
  add_phase("sta_full", 1, full, full_sta_bytes(n, arcs, load_terms), n);
  add_phase("sta_sweeps", 1, sweeps, sweeps_bytes(n, arcs), n);

  // W-phase: cold Gauss–Seidel to the least fixpoint of the budgets, at 1
  // and at N inner threads.
  const int thread_counts[2] = {1, par_threads};
  RepeatTiming wphase[2];
  WPhaseResult wres[2];
  for (int i = 0; i < 2; ++i) {
    const int threads = thread_counts[i];
    ThreadArena arena(threads);
    ThreadArena* use = threads > 1 ? &arena : nullptr;  // 1 = sequential
    wphase[i] = time_repeats(repeats, [&] {
      wres[i] = solve_wphase(net, budget, use);
    });
    std::printf("%d inner thread%s: wphase min %.3fms (%d sweeps)\n", threads,
                threads == 1 ? " " : "s", wphase[i].min() * 1e3,
                wres[i].sweeps);
    add_phase("wphase", threads, wphase[i],
              wphase_bytes(n, load_terms, wres[i].sweeps),
              static_cast<double>(n) * std::max(1, wres[i].sweeps));
  }

  // -------------------------------------------------------------------------
  // Layout ablation arm (sequential): legacy AoS walks, same seeds.
  // -------------------------------------------------------------------------
  RepeatTiming aos_full_t, aos_sweeps_t, aos_wphase_t;
  TimingReport aos_report;
  {
    TimingReport r;
    aos_full_t = time_repeats(repeats, [&] { r = aos_run_sta(net, sized); });
    const bool full_match = reports_identical(r, run_sta(net, sized));

    // Hinted single-vertex toggles, mirroring the sweeps phase above: the
    // delay refresh walks reverse_loads, the sweeps walk topo order.
    std::vector<double> x = sized;
    const auto& rev = net.reverse_loads()[static_cast<std::size_t>(bump)];
    aos_sweeps_t = time_repeats(repeats, [&] {
      const std::size_t b = static_cast<std::size_t>(bump);
      x[b] = x[b] == sized[b] ? sized[b] * 1.1 : sized[b];
      r.delay[b] = aos_delay(net, bump, x);
      for (const LoadTerm& t : rev)
        r.delay[static_cast<std::size_t>(t.vertex)] =
            aos_delay(net, t.vertex, x);
      aos_sweeps(net, r);
    });
    aos_report = r;

    WPhaseResult w;
    aos_wphase_t = time_repeats(repeats, [&] { w = aos_wphase(net, budget); });
    const bool wphase_match = w.sizes == wres[0].sizes &&
                              w.sweeps == wres[0].sweeps &&
                              w.feasible == wres[0].feasible;
    if (!full_match || !wphase_match)
      std::printf("layout ablation: AOS/SoA MISMATCH (full %d, wphase %d)\n",
                  full_match, wphase_match);
    // Fold the ablation equivalence into the determinism exit gate below.
    if (!full_match || !wphase_match) aos_report.critical_path = -1.0;
  }
  auto speedup = [](const RepeatTiming& a, const RepeatTiming& b) {
    return b.min() > 0.0 ? a.min() / b.min() : 0.0;
  };
  std::printf(
      "layout ablation (1 thread, AoS -> SoA): sta_full %.2fx "
      "(%.3f -> %.3fms), sweeps %.2fx (%.3f -> %.3fms), wphase %.2fx "
      "(%.3f -> %.3fms)\n",
      speedup(aos_full_t, full), aos_full_t.min() * 1e3, full.min() * 1e3,
      speedup(aos_sweeps_t, sweeps), aos_sweeps_t.min() * 1e3,
      sweeps.min() * 1e3, speedup(aos_wphase_t, wphase[0]),
      aos_wphase_t.min() * 1e3, wphase[0].min() * 1e3);
  {
    int pi = 0;
    for (const char* phase : {"sta_full", "sta_sweeps", "wphase"}) {
      const RepeatTiming& t = pi == 0   ? aos_full_t
                              : pi == 1 ? aos_sweeps_t
                                        : aos_wphase_t;
      const RepeatTiming& soa = pi == 0 ? full : pi == 1 ? sweeps
                                                         : wphase[0];
      json.add(strf("inner/ablation_aos_%s_t1", phase), t.total(),
               {{"min_seconds", t.min()},
                {"median_seconds", t.median()},
                {"layout_speedup_min", speedup(t, soa)},
                {"layout_speedup_median",
                 soa.median() > 0.0 ? t.median() / soa.median() : 0.0},
                {"repeats", static_cast<double>(repeats)},
                {"threads", 1.0}});
      ++pi;
    }
  }

  const bool deterministic =
      reports_identical(report, aos_report) && wres[0].sizes == wres[1].sizes &&
      wres[0].sweeps == wres[1].sweeps && wres[0].feasible == wres[1].feasible;
  const double wphase_speedup = speedup(wphase[0], wphase[1]);
  std::printf("\nW-phase speedup 1 -> %d inner threads: %.2fx (hw concurrency "
              "%u)\n",
              par_threads, wphase_speedup, hw);
  std::printf("determinism across thread counts and layouts: %s\n",
              deterministic ? "bit-identical" : "MISMATCH");

  json.add("inner/summary", full.total() + sweeps.total(),
           {{"wphase_speedup", wphase_speedup},
            {"layout_sta_full_speedup", speedup(aos_full_t, full)},
            {"layout_sweep_speedup", speedup(aos_sweeps_t, sweeps)},
            {"layout_wphase_speedup", speedup(aos_wphase_t, wphase[0])},
            // Cross-PR trend lines (compare bench/BASELINE_inner_pr6.json).
            {"sta_full_t1_median", full.median()},
            {"sta_sweeps_t1_median", sweeps.median()},
            {"wphase_t1_median", wphase[0].median()},
            {"inner_threads", static_cast<double>(par_threads)},
            {"hw_concurrency", static_cast<double>(hw)},
            {"deterministic", deterministic ? 1.0 : 0.0},
            {"vertices", static_cast<double>(n)},
            {"arcs", static_cast<double>(arcs)},
            {"load_terms", static_cast<double>(load_terms)},
            {"levels", static_cast<double>(levels)},
            {"max_level_width", static_cast<double>(max_width)}});
  if (!json.write("BENCH_inner.json"))
    std::fprintf(stderr, "warning: could not write BENCH_inner.json\n");
  return deterministic ? 0 : 1;
}
