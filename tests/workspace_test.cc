// Tests for the reusable solver workspaces: solver results must be
// identical with and without a workspace, repeated D-phase calls on one
// topology must not reconstruct the flow problem (the acceptance counter),
// and the incremental STA must agree bit-for-bit with the full recompute.
#include <gtest/gtest.h>

#include "gen/blocks.h"
#include "gen/iscas_analog.h"
#include "mcf/network_simplex.h"
#include "mcf/ssp.h"
#include "sizing/dphase.h"
#include "sizing/tilos.h"
#include "timing/lowering.h"
#include "util/rng.h"

namespace mft {
namespace {

McfProblem random_problem(std::uint64_t seed) {
  Rng rng(seed);
  const int n = rng.uniform_int(2, 30);
  McfProblem p(n);
  const int m = rng.uniform_int(n, 4 * n);
  for (int i = 0; i < m; ++i) {
    const NodeId t = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    NodeId h = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    if (h == t) h = (h + 1) % n;
    const Flow cap = rng.flip(0.3) ? kInfFlow : rng.uniform_int(0, 40);
    const Cost cost = rng.uniform_int(cap == kInfFlow ? 0 : -20, 60);
    p.add_arc(t, h, cap, cost);
  }
  // Feasible by construction: supplies are the imbalance of a random
  // sub-capacity flow.
  for (ArcId a = 0; a < p.num_arcs(); ++a) {
    const McfArc& arc = p.arc(a);
    if (arc.capacity == 0) continue;
    const Flow f = arc.capacity == kInfFlow
                       ? rng.uniform_int(0, 15)
                       : rng.uniform_int(0, static_cast<int>(arc.capacity));
    p.add_supply(arc.tail, f);
    p.add_supply(arc.head, -f);
  }
  return p;
}

TEST(McfWorkspace, ReusedWorkspaceMatchesFreshSolves) {
  McfWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const McfProblem p = random_problem(seed);
    const McfSolution fresh = solve_network_simplex(p);
    const McfSolution reused = solve_network_simplex(p, {}, &ws);
    ASSERT_EQ(fresh.status, reused.status) << "seed " << seed;
    if (fresh.status != McfStatus::kOptimal) continue;
    EXPECT_EQ(fresh.total_cost, reused.total_cost) << "seed " << seed;
    std::string why;
    EXPECT_TRUE(check_flow_optimal(p, reused, &why)) << "seed " << seed
                                                     << ": " << why;
    EXPECT_GT(ws.ns_pivots, 0) << "seed " << seed;
  }
}

TEST(McfWorkspace, SspWorkspaceMatchesFreshSolves) {
  McfWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const McfProblem p = random_problem(seed ^ 0xBEEF);
    const McfSolution fresh = solve_ssp(p);
    const McfSolution reused = solve_ssp(p, ws);
    ASSERT_EQ(fresh.status, reused.status) << "seed " << seed;
    if (fresh.status != McfStatus::kOptimal) continue;
    EXPECT_EQ(fresh.total_cost, reused.total_cost) << "seed " << seed;
    std::string why;
    EXPECT_TRUE(check_flow_optimal(p, reused, &why)) << "seed " << seed
                                                     << ": " << why;
  }
}

TEST(McfWorkspace, PivotStatsReported) {
  McfWorkspace ws;
  McfProblem p(2);
  p.add_arc(0, 1, 10, 3);
  p.set_supply(0, 7);
  p.set_supply(1, -7);
  ASSERT_EQ(solve_network_simplex(p, {}, &ws).status, McfStatus::kOptimal);
  EXPECT_GT(ws.ns_pivots, 0);
  ASSERT_EQ(solve_ssp(p, ws).status, McfStatus::kOptimal);
  EXPECT_EQ(ws.ssp_augmentations, 1);
}

// --- Bit-identity pin of the network simplex ------------------------------
//
// The pivot sequence is a pure function of the instance: entering arcs come
// from the pricing rule, leaving arcs from the strongly-feasible tie-break,
// and the basis (parent/pred/depth/pi) is a function of the tree alone, not
// of how the tree is stored. A change to the solver's internals that keeps
// the pivot rule must therefore reproduce these counts and hashes exactly.

/// FNV-1a over the flow vector, then the potential vector.
std::uint64_t fnv_solution(const McfSolution& s) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::int64_t x) {
    const auto bits = static_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const Flow f : s.flow) mix(f);
  for (const Cost c : s.potential) mix(c);
  return h;
}

struct PinnedSolve {
  std::int64_t pivots;
  std::uint64_t hash;
};

// The D-phase flow instance of an ISCAS analog at TILOS sizes. The delay
// targets are the ratio-to-Dmin values bench_flow_solvers calibrates
// (TILOS area ~1.6x minimum), so the pivot counts match the ones recorded
// in bench/results/BENCH_flow_solvers.json.
PinnedSolve solve_iscas_dphase(const char* name, double target_ratio) {
  const LoweredCircuit lc =
      lower_gate_level(make_iscas_analog(name), Tech{});
  const TilosResult t =
      run_tilos(lc.net, target_ratio * min_sized_delay(lc.net));
  DPhaseWorkspace dw;
  EXPECT_TRUE(run_dphase(lc.net, t.sizes, {}, &dw).solved) << name;
  McfWorkspace ws;
  const McfSolution s = solve_network_simplex(dw.flow.problem, {}, &ws);
  EXPECT_EQ(s.status, McfStatus::kOptimal) << name;
  EXPECT_EQ(ws.ns_pivots, dw.flow.mcf.ns_pivots) << name;
  return {ws.ns_pivots, fnv_solution(s)};
}

// Deep layered network shaped like a D-phase dual, with capacitated and
// negative-cost shortcuts so both leaving-arc sides and saturating pivots
// are exercised.
McfProblem layered_problem(std::uint64_t seed, int layers, int width) {
  Rng rng(seed);
  McfProblem p(layers * width);
  auto node = [width](int l, int i) {
    return static_cast<NodeId>(l * width + i);
  };
  for (int l = 0; l + 1 < layers; ++l) {
    for (int i = 0; i < width; ++i) {
      p.add_arc(node(l, i), node(l + 1, i), kInfFlow,
                rng.uniform_int(0, 1000));
      for (int e = 0; e < 2; ++e) {
        const int j = rng.uniform_int(0, width - 1);
        const int skip = std::min(layers - 1 - l, rng.uniform_int(1, 3));
        if (rng.flip(0.2))
          p.add_arc(node(l, i), node(l + skip, j), rng.uniform_int(1, 50),
                    rng.uniform_int(-200, 1000));
        else
          p.add_arc(node(l, i), node(l + skip, j), kInfFlow,
                    rng.uniform_int(0, 1000));
      }
    }
  }
  Flow total = 0;
  for (int i = 0; i < width; ++i) {
    const Flow s = rng.uniform_int(1, 20);
    p.add_supply(node(0, i), s);
    total += s;
  }
  for (int i = 0; i < width; ++i)
    p.add_supply(node(layers - 1, i),
                 -(i + 1 < width ? total / width
                                 : total - (width - 1) * (total / width)));
  return p;
}

TEST(NetworkSimplexPin, IscasDPhaseInstancesAreBitIdentical) {
  const PinnedSolve c432 = solve_iscas_dphase("c432", 0.48789062500000002);
  EXPECT_EQ(c432.pivots, 405);
  EXPECT_EQ(c432.hash, 6622450698948327635ull);
  const PinnedSolve c880 = solve_iscas_dphase("c880", 0.42851562500000001);
  EXPECT_EQ(c880.pivots, 1081);
  EXPECT_EQ(c880.hash, 5243602913145738471ull);
  const PinnedSolve c2670 = solve_iscas_dphase("c2670", 0.45820312500000004);
  EXPECT_EQ(c2670.pivots, 4032);
  EXPECT_EQ(c2670.hash, 11587692254671241561ull);
}

TEST(NetworkSimplexPin, GeneratedLayeredInstanceIsBitIdentical) {
  const McfProblem p = layered_problem(/*seed=*/2027, /*layers=*/300,
                                       /*width=*/20);
  McfWorkspace ws;
  const McfSolution s = solve_network_simplex(p, {}, &ws);
  ASSERT_EQ(s.status, McfStatus::kOptimal);
  std::string why;
  EXPECT_TRUE(check_flow_optimal(p, s, &why)) << why;
  EXPECT_EQ(ws.ns_pivots, 10505);
  EXPECT_EQ(fnv_solution(s), 1380594044273051824ull);
  EXPECT_EQ(s.total_cost, 4967136);
}

// Returns "" if the workspace's basis arrays describe one spanning tree
// over nodes 0..n rooted at the virtual node n, with a consistent preorder
// thread, subtree sizes, last successors and tight tree arcs; otherwise
// the first defect found.
std::string tree_defect(const McfWorkspace& ws, int n) {
  const auto at = [](int i) { return static_cast<std::size_t>(i); };
  const int root = n;
  if (ws.parent[at(root)] != kInvalidNode) return "root has a parent";
  for (NodeId v = 0; v < n; ++v) {
    const NodeId p = ws.parent[at(v)];
    const ArcId a = ws.pred[at(v)];
    if (p < 0 || p > n) return "bad parent of " + std::to_string(v);
    const NodeId t = ws.tail[at(a)], h = ws.head[at(a)];
    if (!((t == v && h == p) || (t == p && h == v)))
      return "pred arc of " + std::to_string(v) + " misses its parent";
    if (ws.pred_dir[at(v)] != (t == p ? 0 : 1))
      return "pred_dir of " + std::to_string(v);
    if (ws.state[at(a)] != 0) return "pred arc not in the tree";
    if (ws.cost[at(a)] - ws.pi[at(t)] + ws.pi[at(h)] != 0)
      return "tree arc of " + std::to_string(v) + " is not tight";
  }
  // The thread visits every node once, starting and ending at the root.
  std::vector<int> pos(at(n + 1), -1);
  std::vector<NodeId> order;
  NodeId v = root;
  for (int i = 0; i <= n; ++i) {
    if (pos[at(v)] != -1) return "thread revisits " + std::to_string(v);
    pos[at(v)] = i;
    order.push_back(v);
    if (ws.rev_thread[at(ws.thread[at(v)])] != v)
      return "rev_thread disagrees at " + std::to_string(v);
    v = ws.thread[at(v)];
  }
  if (v != root) return "thread is not one cycle";
  // Each subtree is the thread segment of succ_num nodes from its root,
  // ending at last_succ.
  std::vector<int> size(at(n + 1), 0);
  for (NodeId u = 0; u <= n; ++u)
    for (NodeId w = u; w != kInvalidNode; w = ws.parent[at(w)]) {
      ++size[at(w)];
      if (pos[at(w)] > pos[at(u)]) return "thread is not a preorder";
      if (pos[at(u)] >= pos[at(w)] + ws.succ_num[at(w)])
        return "descendant outside the segment of " + std::to_string(w);
    }
  for (NodeId u = 0; u <= n; ++u) {
    if (ws.succ_num[at(u)] != size[at(u)])
      return "succ_num of " + std::to_string(u);
    if (ws.last_succ[at(u)] !=
        order[at(pos[at(u)] + ws.succ_num[at(u)] - 1)])
      return "last_succ of " + std::to_string(u);
  }
  return "";
}

TEST(NetworkSimplexTree, BasisArraysStayConsistentAfterEveryPivot) {
  // Stopping the solver with the pivot cap leaves the basis of an
  // intermediate pivot in the workspace; check it after each one, before
  // the next pivot can trip over a broken thread.
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const McfProblem p = random_problem(seed);
    McfWorkspace ws;
    for (std::int64_t k = 1;; ++k) {
      ASSERT_LT(k, 10000) << "seed " << seed;
      NetworkSimplexOptions opt;
      opt.max_pivots = k;
      bool finished = true;
      try {
        solve_network_simplex(p, opt, &ws);
      } catch (const CheckError&) {
        finished = false;  // stopped before pivot k + 1
      }
      const std::string defect = tree_defect(ws, p.num_nodes());
      ASSERT_EQ(defect, "") << "seed " << seed << " after pivot " << k;
      ++checked;
      if (finished) break;
    }
  }
  EXPECT_GT(checked, 500);
}

class DPhaseWorkspaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RandomLogicParams prm;
    prm.num_inputs = 10;
    prm.num_gates = 120;
    prm.seed = 7;
    lc_ = lower_gate_level(make_random_logic(prm), Tech{});
    const double dmin = min_sized_delay(lc_.net);
    tilos_ = run_tilos(lc_.net, 0.75 * dmin);
    ASSERT_TRUE(tilos_.met_target);
  }
  LoweredCircuit lc_{Tech{}};
  TilosResult tilos_;
};

TEST_F(DPhaseWorkspaceTest, RepeatedCallsBuildTheProblemOnce) {
  DPhaseWorkspace ws;
  Rng rng(99);
  std::vector<double> sizes = tilos_.sizes;
  for (int iter = 0; iter < 8; ++iter) {
    const DPhaseResult with_ws = run_dphase(lc_.net, sizes, {}, &ws);
    const DPhaseResult fresh = run_dphase(lc_.net, sizes);
    ASSERT_TRUE(with_ws.solved);
    ASSERT_TRUE(fresh.solved);
    EXPECT_EQ(with_ws.num_constraints, fresh.num_constraints);
    EXPECT_NEAR(with_ws.objective, fresh.objective, 1e-9);
    ASSERT_EQ(with_ws.budget.size(), fresh.budget.size());
    for (std::size_t v = 0; v < fresh.budget.size(); ++v)
      EXPECT_NEAR(with_ws.budget[v], fresh.budget[v], 1e-12) << "vertex " << v;
    // Perturb some sizes so the next iteration solves a different LP on
    // the same structure.
    for (int k = 0; k < 10; ++k) {
      const NodeId v = static_cast<NodeId>(
          rng.index(static_cast<std::size_t>(lc_.net.num_vertices())));
      if (!lc_.net.is_source(v))
        sizes[static_cast<std::size_t>(v)] *= rng.uniform(1.0, 1.2);
    }
  }
  // The acceptance counter: one construction, then pure reuse.
  EXPECT_EQ(ws.problem_builds(), 1);
  EXPECT_EQ(ws.timing.full_runs, 1);
  EXPECT_EQ(ws.timing.incremental_runs, 7);
}

TEST_F(DPhaseWorkspaceTest, TopologyChangeTriggersRebuild) {
  DPhaseWorkspace ws;
  ASSERT_TRUE(run_dphase(lc_.net, tilos_.sizes, {}, &ws).solved);
  EXPECT_EQ(ws.problem_builds(), 1);

  RandomLogicParams prm;
  prm.num_inputs = 8;
  prm.num_gates = 60;
  prm.seed = 8;
  LoweredCircuit other = lower_gate_level(make_random_logic(prm), Tech{});
  const TilosResult t2 = run_tilos(other.net, 0.8 * min_sized_delay(other.net));
  ASSERT_TRUE(t2.met_target);
  ASSERT_TRUE(run_dphase(other.net, t2.sizes, {}, &ws).solved);
  EXPECT_EQ(ws.problem_builds(), 1);  // reset + one rebuild for the new net
}

TEST(IncrementalSta, MatchesFullRecomputeUnderRandomUpdates) {
  RandomLogicParams prm;
  prm.num_inputs = 12;
  prm.num_gates = 150;
  prm.seed = 21;
  LoweredCircuit lc = lower_gate_level(make_random_logic(prm), Tech{});
  Rng rng(5);
  std::vector<double> sizes = lc.net.min_sizes();

  TimingScratch scratch;
  for (int iter = 0; iter < 20; ++iter) {
    const TimingReport& inc = run_sta(lc.net, sizes, scratch);
    const TimingReport full = run_sta(lc.net, sizes);
    ASSERT_EQ(inc.cp_vertex, full.cp_vertex) << "iter " << iter;
    EXPECT_EQ(inc.critical_path, full.critical_path) << "iter " << iter;
    for (NodeId v = 0; v < lc.net.num_vertices(); ++v) {
      const std::size_t i = static_cast<std::size_t>(v);
      EXPECT_EQ(inc.delay[i], full.delay[i]) << "iter " << iter << " v " << v;
      EXPECT_EQ(inc.at[i], full.at[i]) << "iter " << iter << " v " << v;
      EXPECT_EQ(inc.rt[i], full.rt[i]) << "iter " << iter << " v " << v;
    }
    EXPECT_EQ(inc.critical_vertices(lc.net), full.critical_vertices(lc.net));
    // Random sparse update for the next round (sometimes none at all).
    const int moves = rng.uniform_int(0, 6);
    for (int k = 0; k < moves; ++k) {
      const NodeId v = static_cast<NodeId>(
          rng.index(static_cast<std::size_t>(lc.net.num_vertices())));
      if (!lc.net.is_source(v))
        sizes[static_cast<std::size_t>(v)] *= rng.uniform(1.0, 1.5);
    }
  }
  EXPECT_EQ(scratch.full_runs, 1);
  EXPECT_EQ(scratch.incremental_runs, 19);
  // The dirty-set path must actually be sparse: far fewer delay recomputes
  // than 20 full sweeps would need.
  EXPECT_LT(scratch.delays_recomputed,
            20 * static_cast<std::int64_t>(lc.net.num_vertices()));
}

TEST(IncrementalSta, ScratchReusedAcrossNetworksFallsBackToFullRecompute) {
  // Two different networks (regardless of matching vertex counts) must not
  // mix delays: the scratch keys on SizingNetwork::serial().
  RandomLogicParams prm;
  prm.num_inputs = 10;
  prm.num_gates = 80;
  prm.seed = 41;
  LoweredCircuit a = lower_gate_level(make_random_logic(prm), Tech{});
  prm.seed = 42;
  LoweredCircuit b = lower_gate_level(make_random_logic(prm), Tech{});

  TimingScratch scratch;
  run_sta(a.net, a.net.min_sizes(), scratch);
  const TimingReport& inc = run_sta(b.net, b.net.min_sizes(), scratch);
  const TimingReport full = run_sta(b.net, b.net.min_sizes());
  EXPECT_EQ(scratch.full_runs, 2);
  EXPECT_EQ(scratch.incremental_runs, 0);
  ASSERT_EQ(inc.delay.size(), full.delay.size());
  for (std::size_t v = 0; v < full.delay.size(); ++v)
    EXPECT_EQ(inc.delay[v], full.delay[v]) << "vertex " << v;
  EXPECT_EQ(inc.critical_path, full.critical_path);
}

TEST(IncrementalSta, CriticalPathWalkIsDeterministicAndExact) {
  RandomLogicParams prm;
  prm.num_inputs = 9;
  prm.num_gates = 90;
  prm.seed = 31;
  LoweredCircuit lc = lower_gate_level(make_random_logic(prm), Tech{});
  const TimingReport t = run_sta(lc.net, lc.net.min_sizes());
  ASSERT_NE(t.cp_vertex, kInvalidNode);
  const std::vector<NodeId> path = t.critical_vertices(lc.net);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.back(), t.cp_vertex);
  double sum = 0.0;
  for (NodeId v : path) sum += t.delay[static_cast<std::size_t>(v)];
  EXPECT_NEAR(sum, t.critical_path, 1e-12);
  // Walking twice gives the identical path.
  EXPECT_EQ(path, t.critical_vertices(lc.net));
}

}  // namespace
}  // namespace mft
