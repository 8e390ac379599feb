// Tests for the timing layer: the sizing IR, STA (eq. (8)), delay
// balancing (Fig. 3/4), gate lowering, and the area/delay linearization
// weights validated by finite differences through the W-phase.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "gen/blocks.h"
#include "sizing/wphase.h"
#include "timing/delay_balance.h"
#include "timing/lowering.h"
#include "timing/sta.h"
#include "util/rng.h"

namespace mft {
namespace {

// A network of fixed-delay vertices (x = 1, delay = b): lets us hand-check
// STA against a worked example.
struct FixedDelayNet {
  SizingNetwork net{Tech{}};
  std::vector<NodeId> v;

  NodeId source(const std::string& name) {
    SizingVertex s;
    s.kind = VertexKind::kSource;
    v.push_back(net.add_vertex(std::move(s), name));
    return v.back();
  }
  NodeId vertex(const std::string& name, double delay, bool po = false) {
    SizingVertex s;
    s.kind = VertexKind::kGate;
    s.b = delay;
    s.is_po = po;
    v.push_back(net.add_vertex(std::move(s), name));
    return v.back();
  }
  std::vector<double> unit_sizes() const {
    std::vector<double> x(static_cast<std::size_t>(net.num_vertices()), 1.0);
    return x;
  }
};

TEST(Sta, DiamondHandExample) {
  // PI -> A(2) -> {B(3), C(1)} -> D(2, PO).
  FixedDelayNet f;
  const NodeId pi = f.source("pi");
  const NodeId a = f.vertex("A", 2);
  const NodeId b = f.vertex("B", 3);
  const NodeId c = f.vertex("C", 1);
  const NodeId d = f.vertex("D", 2, /*po=*/true);
  f.net.add_arc(pi, a);
  f.net.add_arc(a, b);
  f.net.add_arc(a, c);
  f.net.add_arc(b, d);
  f.net.add_arc(c, d);
  f.net.freeze();

  const TimingReport t = run_sta(f.net, f.unit_sizes());
  EXPECT_DOUBLE_EQ(t.critical_path, 7.0);
  EXPECT_DOUBLE_EQ(t.at[static_cast<std::size_t>(a)], 0.0);
  EXPECT_DOUBLE_EQ(t.at[static_cast<std::size_t>(b)], 2.0);
  EXPECT_DOUBLE_EQ(t.at[static_cast<std::size_t>(c)], 2.0);
  EXPECT_DOUBLE_EQ(t.at[static_cast<std::size_t>(d)], 5.0);
  EXPECT_DOUBLE_EQ(t.rt[static_cast<std::size_t>(d)], 5.0);
  EXPECT_DOUBLE_EQ(t.rt[static_cast<std::size_t>(b)], 2.0);
  EXPECT_DOUBLE_EQ(t.rt[static_cast<std::size_t>(c)], 4.0);
  EXPECT_DOUBLE_EQ(t.slack[static_cast<std::size_t>(c)], 2.0);
  EXPECT_DOUBLE_EQ(t.slack[static_cast<std::size_t>(a)], 0.0);
  EXPECT_TRUE(t.safe(f.net));

  // Edge slack on C->D (arc index 4): RT(D) - AT(C) - delay(C) = 2.
  EXPECT_DOUBLE_EQ(t.edge_slack(f.net, 4), 2.0);

  // The critical path is PI, A, B, D.
  const auto path = t.critical_vertices(f.net);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path[1], a);
  EXPECT_EQ(path[2], b);
  EXPECT_EQ(path[3], d);
}

TEST(DelayBalance, AsapAndAlapAreBalancedAndDisplaced) {
  FixedDelayNet f;
  const NodeId pi = f.source("pi");
  const NodeId a = f.vertex("A", 2);
  const NodeId b = f.vertex("B", 3);
  const NodeId c = f.vertex("C", 1);
  const NodeId d = f.vertex("D", 2, true);
  f.net.add_arc(pi, a);
  f.net.add_arc(a, b);
  const ArcId arc_ac = f.net.dag().num_arcs();
  f.net.add_arc(a, c);
  f.net.add_arc(b, d);
  const ArcId arc_cd = f.net.dag().num_arcs();
  f.net.add_arc(c, d);
  f.net.freeze();
  const auto x = f.unit_sizes();
  const TimingReport t = run_sta(f.net, x);

  const DelayBalance asap = compute_delay_balance(f.net, t, BalanceMode::kAsap);
  const DelayBalance alap = compute_delay_balance(f.net, t, BalanceMode::kAlap);
  std::string why;
  EXPECT_TRUE(check_balanced(f.net, t, asap, &why)) << why;
  EXPECT_TRUE(check_balanced(f.net, t, alap, &why)) << why;

  // ASAP pushes C's 2 units of slack onto the C->D edge; ALAP onto A->C.
  EXPECT_DOUBLE_EQ(asap.arc_fsdu[static_cast<std::size_t>(arc_cd)], 2.0);
  EXPECT_DOUBLE_EQ(asap.arc_fsdu[static_cast<std::size_t>(arc_ac)], 0.0);
  EXPECT_DOUBLE_EQ(alap.arc_fsdu[static_cast<std::size_t>(arc_ac)], 2.0);
  EXPECT_DOUBLE_EQ(alap.arc_fsdu[static_cast<std::size_t>(arc_cd)], 0.0);

  // Theorem 1: the two configurations are FSDU-displaced versions of each
  // other, i.e. FSDU'(i→j) − FSDU(i→j) = r(j) − r(i) with r = t' − t.
  for (ArcId arc = 0; arc < f.net.dag().num_arcs(); ++arc) {
    const NodeId i = f.net.dag().tail(arc);
    const NodeId j = f.net.dag().head(arc);
    const double r_i = alap.schedule[static_cast<std::size_t>(i)] -
                       asap.schedule[static_cast<std::size_t>(i)];
    const double r_j = alap.schedule[static_cast<std::size_t>(j)] -
                       asap.schedule[static_cast<std::size_t>(j)];
    EXPECT_NEAR(alap.arc_fsdu[static_cast<std::size_t>(arc)] -
                    asap.arc_fsdu[static_cast<std::size_t>(arc)],
                r_j - r_i, 1e-12);
  }
}

TEST(DelayBalance, PathSumsEqualCriticalPath) {
  // Property: in a balanced configuration every maximal path's delays plus
  // FSDUs (plus the PO FSDU) add up to exactly CP.
  Netlist nl = make_ripple_adder(6);
  LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const auto x = lc.net.min_sizes();
  const TimingReport t = run_sta(lc.net, x);
  for (BalanceMode mode : {BalanceMode::kAsap, BalanceMode::kAlap}) {
    const DelayBalance bal = compute_delay_balance(lc.net, t, mode);
    std::string why;
    ASSERT_TRUE(check_balanced(lc.net, t, bal, &why)) << why;
    // Random greedy walks source -> sink.
    Rng rng(3);
    const Digraph& g = lc.net.dag();
    for (int walk = 0; walk < 20; ++walk) {
      const auto sources = g.sources();
      NodeId v = sources[rng.index(sources.size())];
      double sum = bal.schedule[static_cast<std::size_t>(v)];
      while (g.out_degree(v) > 0) {
        const ArcId a = g.out_arcs(v)[rng.index(
            static_cast<std::size_t>(g.out_degree(v)))];
        sum += t.delay[static_cast<std::size_t>(v)] +
               bal.arc_fsdu[static_cast<std::size_t>(a)];
        v = g.head(a);
      }
      sum += t.delay[static_cast<std::size_t>(v)] +
             bal.po_fsdu[static_cast<std::size_t>(v)];
      EXPECT_NEAR(sum, bal.critical_path, 1e-9) << "walk " << walk;
    }
  }
}

TEST(GateLowering, InverterChainElmoreByHand) {
  // PI -> inv1 -> inv2(PO). Unit sizes, defaults:
  // delay(inv1) = a_self + (c_in·g(inv2)·x2 + c_wire)/x1
  //             = r·1·c_par·1 + (1·1·1·1 + 0.6)/1 = 0.35 + 1.6 = 1.95
  // delay(inv2) = 0.35 + c_po_load/1 = 4.35.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId i1 = nl.add_gate(GateKind::kNot, "i1", {a});
  const GateId i2 = nl.add_gate(GateKind::kNot, "i2", {i1});
  nl.mark_output(i2);
  Tech tech;
  tech.c_par = 0.35;  // the hand numbers below assume this value
  LoweredCircuit lc = lower_gate_level(nl, tech);
  auto x = lc.net.min_sizes();
  const NodeId v1 = lc.gate_vertices[static_cast<std::size_t>(i1)][0];
  const NodeId v2 = lc.gate_vertices[static_cast<std::size_t>(i2)][0];
  EXPECT_NEAR(lc.net.delay(v1, x), 1.95, 1e-12);
  EXPECT_NEAR(lc.net.delay(v2, x), 4.35, 1e-12);

  // Upsizing the load gate makes the driver slower, itself faster.
  x[static_cast<std::size_t>(v2)] = 4.0;
  EXPECT_NEAR(lc.net.delay(v1, x), 0.35 + (4.0 + 0.6) / 1.0, 1e-12);
  EXPECT_NEAR(lc.net.delay(v2, x), 0.35 + 4.0 / 4.0, 1e-12);
}

TEST(GateLowering, MultiInputGatesAreSlowerAtEqualSize) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c = nl.add_input("c");
  const GateId n2 = nl.add_gate(GateKind::kNand, "n2", {a, b});
  const GateId n3 = nl.add_gate(GateKind::kNand, "n3", {a, b, c});
  nl.mark_output(n2);
  nl.mark_output(n3);
  LoweredCircuit lc = lower_gate_level(nl, Tech{});
  const auto x = lc.net.min_sizes();
  EXPECT_GT(lc.net.delay(lc.gate_vertices[static_cast<std::size_t>(n3)][0], x),
            lc.net.delay(lc.gate_vertices[static_cast<std::size_t>(n2)][0], x));
}

TEST(GateLowering, PinMultiplicityCountsTwice) {
  // A gate feeding both pins of a NAND2 contributes twice the pin load.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId inv = nl.add_gate(GateKind::kNot, "inv", {a});
  const GateId both = nl.add_gate(GateKind::kNand, "both", {inv, inv});
  nl.mark_output(both);
  Netlist nl1;
  const GateId a1 = nl1.add_input("a");
  const GateId b1 = nl1.add_input("b");
  const GateId inv1 = nl1.add_gate(GateKind::kNot, "inv", {a1});
  const GateId one = nl1.add_gate(GateKind::kNand, "one", {inv1, b1});
  nl1.mark_output(one);
  LoweredCircuit lc2 = lower_gate_level(nl, Tech{});
  LoweredCircuit lc1 = lower_gate_level(nl1, Tech{});
  const double d2 = lc2.net.delay(
      lc2.gate_vertices[static_cast<std::size_t>(inv)][0], lc2.net.min_sizes());
  const double d1 = lc1.net.delay(
      lc1.gate_vertices[static_cast<std::size_t>(inv1)][0], lc1.net.min_sizes());
  EXPECT_GT(d2, d1);
}

TEST(GateLowering, WireVerticesExtendTheDag) {
  Netlist nl = make_ripple_adder(4);
  GateLoweringOptions opt;
  opt.size_wires = true;
  LoweredCircuit plain = lower_gate_level(nl, Tech{});
  LoweredCircuit wired = lower_gate_level(nl, Tech{}, opt);
  EXPECT_GT(wired.net.num_vertices(), plain.net.num_vertices());
  // Wire vertices exist exactly for driven nets.
  int wires = 0;
  for (GateId g = 0; g < nl.num_gates(); ++g)
    if (wired.wire_vertices[static_cast<std::size_t>(g)] != kInvalidNode)
      ++wires;
  int driven = 0;
  for (GateId g = 0; g < nl.num_gates(); ++g)
    if (!nl.fanouts(g).empty()) ++driven;
  EXPECT_EQ(wires, driven);
  // STA still runs and yields a finite critical path.
  const TimingReport t = run_sta(wired.net, wired.net.min_sizes());
  EXPECT_GT(t.critical_path, 0.0);
  EXPECT_TRUE(t.safe(wired.net));
}

TEST(Weights, MatchFiniteDifferenceThroughWPhase) {
  // The D-phase linearization claims Δ(Σx) ≈ −C_i·δd_i. Verify through the
  // actual W-phase: perturb one vertex's budget and compare the area change
  // against the analytic weight.
  Netlist nl = make_c17();
  Tech tech;
  tech.min_size = 0.01;  // keep the least fixpoint unclamped
  LoweredCircuit lc = lower_gate_level(nl, tech);

  // A generous interior operating point.
  std::vector<double> x0(static_cast<std::size_t>(lc.net.num_vertices()), 5.0);
  for (NodeId v = 0; v < lc.net.num_vertices(); ++v)
    if (lc.net.is_source(v)) x0[static_cast<std::size_t>(v)] = 0.0;
  std::vector<double> budget(static_cast<std::size_t>(lc.net.num_vertices()));
  for (NodeId v = 0; v < lc.net.num_vertices(); ++v)
    budget[static_cast<std::size_t>(v)] = lc.net.delay(v, x0);
  const WPhaseResult base = solve_wphase(lc.net, budget);
  ASSERT_TRUE(base.feasible);
  const double base_area = lc.net.area(base.sizes);
  const std::vector<double> weights = lc.net.area_delay_weights(base.sizes);

  for (NodeId v = 0; v < lc.net.num_vertices(); ++v) {
    if (lc.net.is_source(v)) continue;
    const double eps = 1e-5 * budget[static_cast<std::size_t>(v)];
    auto perturbed = budget;
    perturbed[static_cast<std::size_t>(v)] += eps;
    const WPhaseResult r = solve_wphase(lc.net, perturbed);
    ASSERT_TRUE(r.feasible);
    const double darea = lc.net.area(r.sizes) - base_area;
    EXPECT_NEAR(darea, -weights[static_cast<std::size_t>(v)] * eps,
                std::abs(weights[static_cast<std::size_t>(v)] * eps) * 0.02 +
                    1e-12)
        << "vertex " << v;
  }
}

TEST(SizingNetwork, InvariantsEnforced) {
  SizingNetwork net{Tech{}};
  SizingVertex src;
  src.kind = VertexKind::kSource;
  const NodeId s = net.add_vertex(src, "s");
  SizingVertex g;
  g.kind = VertexKind::kGate;
  g.b = 1.0;
  const NodeId v = net.add_vertex(g, "g");
  EXPECT_THROW(net.add_load(v, s, 1.0), CheckError);   // loads on sources
  EXPECT_THROW(net.add_load(v, v, 1.0), CheckError);   // self-load
  net.add_arc(s, v);
  net.freeze();
  EXPECT_THROW(net.add_b(v, 1.0), CheckError);  // frozen
  // Degenerate vertex (no loads, b = 0) is rejected at freeze.
  SizingNetwork bad{Tech{}};
  SizingVertex z;
  z.kind = VertexKind::kGate;
  bad.add_vertex(z, "z");
  EXPECT_THROW(bad.freeze(), CheckError);
}

TEST(SizingNetwork, CycleRejectedAtFreeze) {
  SizingNetwork net{Tech{}};
  SizingVertex a;
  a.kind = VertexKind::kGate;
  a.b = 1.0;
  SizingVertex b = a;
  const NodeId va = net.add_vertex(a, "a");
  const NodeId vb = net.add_vertex(b, "b");
  net.add_arc(va, vb);
  net.add_arc(vb, va);
  EXPECT_THROW(net.freeze(), CheckError);
}

// ---------------------------------------------------------------------------
// Arrival step (run_arrival) against the full reference
// ---------------------------------------------------------------------------

/// First difference between the scratch's arrival state — delay, AT, CP,
/// cp vertex and the position-space critical path — and a fresh full
/// run_sta plus critical_vertices; empty when they agree bit for bit.
std::string arrival_mismatch(const SizingNetwork& net,
                             const std::vector<double>& sizes,
                             const TimingScratch& s) {
  const SweepPlan& pl = net.plan();
  const TimingReport ref = run_sta(net, sizes);
  for (NodeId v = 0; v < net.num_vertices(); ++v) {
    const std::size_t p =
        static_cast<std::size_t>(pl.pos_of[static_cast<std::size_t>(v)]);
    if (s.delay_pos[p] != ref.delay[static_cast<std::size_t>(v)])
      return "delay of " + std::to_string(v);
    if (s.at_pos[p] != ref.at[static_cast<std::size_t>(v)])
      return "at of " + std::to_string(v);
  }
  if (s.critical_path != ref.critical_path) return "critical_path";
  if (s.cp_pos < 0 || pl.vid[static_cast<std::size_t>(s.cp_pos)] != ref.cp_vertex)
    return "cp_vertex";
  std::vector<int> path;
  critical_positions(pl, s, path);
  std::vector<NodeId> ids;
  for (const int p : path) ids.push_back(pl.vid[static_cast<std::size_t>(p)]);
  if (ids != ref.critical_vertices(net)) return "critical path";
  return {};
}

bool reports_identical(const TimingReport& a, const TimingReport& b) {
  return a.delay == b.delay && a.at == b.at && a.rt == b.rt &&
         a.slack == b.slack && a.critical_path == b.critical_path &&
         a.cp_vertex == b.cp_vertex;
}

TEST(Arrival, MatchesFullStaAfterEveryChange) {
  struct Case {
    std::string name;
    LoweredCircuit lc;
  };
  std::vector<Case> cases;
  cases.push_back({"c17", lower_gate_level(make_c17(), Tech{})});
  cases.push_back({"alu8", lower_gate_level(make_alu(8), Tech{})});
  RandomLogicParams prm;
  prm.num_inputs = 32;
  prm.num_gates = 600;
  prm.seed = 5;
  cases.push_back(
      {"rnd600", lower_gate_level(make_random_logic(prm), Tech{})});
  GateLoweringOptions wires;
  wires.size_wires = true;
  cases.push_back(
      {"adder8+wires", lower_gate_level(make_ripple_adder(8), Tech{}, wires)});
  cases.push_back(
      {"adder4-trans", lower_transistor_level(make_ripple_adder(4), Tech{})});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const SizingNetwork& net = c.lc.net;
    const Tech& tech = net.tech();
    Rng rng(0x5eedu);
    std::vector<double> x = net.min_sizes();
    // `hinted` runs the arrival step alone; `scanned` takes the scanning
    // path through run_sta, which leaves the same arrival state behind.
    TimingScratch hinted, scanned;
    run_arrival(net, x, hinted, {});
    run_sta(net, x, scanned);
    ASSERT_EQ(arrival_mismatch(net, x, hinted), "");
    ASSERT_EQ(arrival_mismatch(net, x, scanned), "");
    for (int step = 0; step < 60; ++step) {
      SCOPED_TRACE(step);
      // Single-vertex changes (the TILOS bump) and multi-vertex ones, up
      // and down, with an occasional exact undo so old values and ties
      // come back through the incremental path.
      const int moves = step % 3 == 0 ? 1 : 1 + static_cast<int>(rng.index(5));
      std::vector<NodeId> changed;
      for (int m = 0; m < moves; ++m) {
        const NodeId v = static_cast<NodeId>(
            rng.index(static_cast<std::size_t>(net.num_vertices())));
        if (net.is_source(v)) continue;
        double& xv = x[static_cast<std::size_t>(v)];
        xv = step % 7 == 6 ? tech.min_size
                           : std::clamp(xv * rng.uniform(0.7, 1.6),
                                        tech.min_size, tech.max_size);
        changed.push_back(v);
      }
      run_arrival(net, x, hinted, changed);
      run_sta(net, x, scanned);
      ASSERT_EQ(arrival_mismatch(net, x, hinted), "");
      ASSERT_EQ(arrival_mismatch(net, x, scanned), "");
      // The required step after a run of arrival-only steps: the whole
      // report matches the reference.
      if (step % 5 == 4) {
        ASSERT_TRUE(reports_identical(run_sta(net, x, hinted, changed),
                                      run_sta(net, x)));
      }
    }
    EXPECT_EQ(hinted.full_runs, 1);
    EXPECT_EQ(scanned.full_runs, 1);
  }
}

TEST(Arrival, ExactTiesFollowTheReferenceRules) {
  // Two hand-built networks of fixed delays (delay = (b + Σ loads)/x):
  //  - CP tie: sinks Y and Z end at exactly 4. Load terms lift Z to level 3
  //    while Y sits at level 2, so Z comes after Y in sweep order but
  //    before it in topological order: the CP rule (lowest topological
  //    position on ties) must pick Z.
  //  - Path tie: D's fanins A (level 1) and C (level 2) end at exactly 2;
  //    C has the lower id, so the walk must step to C although A has the
  //    lower sweep position.
  FixedDelayNet f1;
  const NodeId s1 = f1.source("s");
  const NodeId x1 = f1.vertex("X1", 1);
  const NodeId x2 = f1.vertex("X2", 1);
  const NodeId z = f1.vertex("Z", 3, /*po=*/true);
  const NodeId y = f1.vertex("Y", 3, /*po=*/true);
  f1.net.add_arc(s1, x1);
  f1.net.add_arc(s1, x2);
  f1.net.add_arc(s1, z);
  f1.net.add_arc(x1, y);
  f1.net.add_load(x2, x1, 1.0);
  f1.net.add_load(z, x2, 1.0);
  f1.net.freeze();
  const SweepPlan& p1 = f1.net.plan();
  ASSERT_LT(p1.pos_of[static_cast<std::size_t>(y)],
            p1.pos_of[static_cast<std::size_t>(z)]);
  ASSERT_LT(p1.topo_pos[static_cast<std::size_t>(
                p1.pos_of[static_cast<std::size_t>(z)])],
            p1.topo_pos[static_cast<std::size_t>(
                p1.pos_of[static_cast<std::size_t>(y)])]);

  FixedDelayNet f2;
  const NodeId s2 = f2.source("s");
  const NodeId c = f2.vertex("C", 1);
  const NodeId a = f2.vertex("A", 2);
  const NodeId b = f2.vertex("B", 1);
  const NodeId d = f2.vertex("D", 1, /*po=*/true);
  f2.net.add_arc(s2, a);
  f2.net.add_arc(s2, b);
  f2.net.add_arc(b, c);
  f2.net.add_arc(a, d);
  f2.net.add_arc(c, d);
  f2.net.freeze();
  const SweepPlan& p2 = f2.net.plan();
  ASSERT_LT(p2.pos_of[static_cast<std::size_t>(a)],
            p2.pos_of[static_cast<std::size_t>(c)]);

  struct Net {
    const FixedDelayNet* f;
    NodeId cp;                 ///< expected CP vertex at unit sizes
    std::vector<NodeId> path;  ///< expected critical path at unit sizes
  };
  for (const Net& t : {Net{&f1, z, {s1, z}}, Net{&f2, d, {s2, b, c, d}}}) {
    const SizingNetwork& net = t.f->net;
    const SweepPlan& pl = net.plan();
    std::vector<double> x = t.f->unit_sizes();
    const TimingReport ref = run_sta(net, x);
    EXPECT_EQ(ref.cp_vertex, t.cp);
    EXPECT_EQ(ref.critical_vertices(net), t.path);

    // Break each tie by resizing one vertex, then restore it exactly, on
    // both the hinted and the scanning path.
    TimingScratch hinted, scanned;
    run_arrival(net, x, hinted, {});
    run_sta(net, x, scanned);
    for (NodeId v = 0; v < net.num_vertices(); ++v) {
      if (net.is_source(v)) continue;
      SCOPED_TRACE(net.name(v));
      for (const double size : {2.0, 1.0, 0.5, 1.0}) {
        x[static_cast<std::size_t>(v)] = size;
        run_arrival(net, x, hinted, {v});
        run_sta(net, x, scanned);
        EXPECT_EQ(arrival_mismatch(net, x, hinted), "");
        EXPECT_EQ(arrival_mismatch(net, x, scanned), "");
      }
      EXPECT_EQ(pl.vid[static_cast<std::size_t>(hinted.cp_pos)], t.cp);
      std::vector<int> path;
      critical_positions(pl, hinted, path);
      std::vector<NodeId> ids;
      for (const int p : path)
        ids.push_back(pl.vid[static_cast<std::size_t>(p)]);
      EXPECT_EQ(ids, t.path);
    }
  }
}

}  // namespace
}  // namespace mft
