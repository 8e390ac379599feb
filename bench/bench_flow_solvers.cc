// Ablation A1: which min-cost-flow solver should back the D-phase?
//
// Two sections:
//  1. Real D-phase instances — the LP of eq. (10) built from TILOS-sized
//     ISCAS analogs. dphase/<c>/network_simplex times one whole run_dphase
//     (STA, LP, network simplex); dphase/<c>/network_simplex_ws the same
//     with a persistent workspace; dphase/<c>/ssp times solve_ssp alone on
//     the flow problem that workspace cached, cross-checked against the
//     network simplex's optimal cost.
//  2. Generated layered min-cost-flow instances of growing size (deep,
//     chain-heavy networks shaped like circuit DAG duals), solved directly
//     with the network simplex. This is the hot-path scaling curve.
//
// Results go to stdout and to BENCH_flow_solvers.json (see BenchJson).
// Every row records its best-of count; the last row records
// hw_concurrency. Wall times are comparable only on the same machine:
// bench/BASELINE_flow_solvers.json was recorded on different hardware, so
// compare against it only through a same-machine run of the older code.
#include <cstdio>
#include <functional>
#include <map>
#include <thread>

#include "bench_common.h"
#include "mcf/network_simplex.h"
#include "mcf/ssp.h"
#include "sizing/dphase.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace mft;
using namespace mft::bench;

namespace {

struct Prepared {
  LoweredCircuit lc;
  std::vector<double> sizes;
};

const Prepared& prepared(const std::string& name) {
  static std::map<std::string, Prepared> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    Netlist nl = load_circuit(name);
    Prepared p{lower_gate_level(nl, Tech{}), {}};
    const CalibratedTarget cal = calibrate_target(p.lc.net);
    p.sizes = run_tilos(p.lc.net, cal.target).sizes;
    it = cache.emplace(name, std::move(p)).first;
  }
  return it->second;
}

// Deterministic layered flow network mimicking a D-phase dual: `layers`
// ranks of `width` nodes, a guaranteed spine i->i between consecutive
// ranks (so every supply can route), plus random in-rank-to-next-rank and
// skip arcs. Mostly uncapacitated arcs with nonnegative integerized costs;
// a fraction carry finite capacity and possibly negative cost.
McfProblem make_layered(std::uint64_t seed, int layers, int width,
                        int extra_per_node) {
  Rng rng(seed);
  const int n = layers * width;
  McfProblem p(n);
  auto node = [width](int layer, int i) { return layer * width + i; };
  for (int l = 0; l + 1 < layers; ++l) {
    for (int i = 0; i < width; ++i) {
      p.add_arc(node(l, i), node(l + 1, i), kInfFlow,
                rng.uniform_int(0, 1000));
      for (int e = 0; e < extra_per_node; ++e) {
        const int j = rng.uniform_int(0, width - 1);
        const int skip = std::min(layers - 1 - l, rng.uniform_int(1, 3));
        if (rng.flip(0.2)) {
          // Capacitated (possibly negative-cost) shortcut.
          p.add_arc(node(l, i), node(l + skip, j),
                    rng.uniform_int(1, 50), rng.uniform_int(-200, 1000));
        } else {
          p.add_arc(node(l, i), node(l + skip, j), kInfFlow,
                    rng.uniform_int(0, 1000));
        }
      }
    }
  }
  // Balanced supplies: sources on rank 0, sinks on the last rank.
  Flow total = 0;
  for (int i = 0; i < width; ++i) {
    const Flow s = rng.uniform_int(1, 20);
    p.add_supply(node(0, i), s);
    total += s;
  }
  for (int i = 0; i < width; ++i) {
    const Flow s = i + 1 < width ? total / width : total - (width - 1) * (total / width);
    p.add_supply(node(layers - 1, i), -s);
  }
  return p;
}

constexpr int kDphaseBestOf = 3;

double time_best_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.seconds());
  }
  return best;
}

}  // namespace

int main() {
  BenchJson json;

  // --- Section 1: D-phase instances -------------------------------------
  const std::vector<std::string> circuits = {"c432", "c880", "c1355", "c2670"};
  std::printf("%-34s %12s %14s %12s\n", "benchmark", "wall (ms)",
              "constraints", "objective");
  for (const std::string& name : circuits) {
    const Prepared& p = prepared(name);
    {
      DPhaseResult r;
      const double secs = time_best_of(kDphaseBestOf, [&] {
        r = run_dphase(p.lc.net, p.sizes, {});
      });
      const std::string bname = "dphase/" + name + "/network_simplex";
      std::printf("%-34s %12.3f %14d %12.4f\n", bname.c_str(), secs * 1e3,
                  r.num_constraints, r.objective);
      std::fflush(stdout);
      json.add(bname, secs,
               {{"constraints", static_cast<double>(r.num_constraints)},
                {"objective", r.objective},
                {"best_of", kDphaseBestOf}});
    }
    // Steady-state with a persistent workspace: the LP + flow problem are
    // built on the first call, later calls only rewrite costs/supplies.
    DPhaseWorkspace ws;
    DPhaseResult r = run_dphase(p.lc.net, p.sizes, {}, &ws);  // warm up
    const double secs = time_best_of(kDphaseBestOf, [&] {
      r = run_dphase(p.lc.net, p.sizes, {}, &ws);
    });
    const std::string bname = "dphase/" + name + "/network_simplex_ws";
    std::printf("%-34s %12.3f %14d %12.4f\n", bname.c_str(), secs * 1e3,
                r.num_constraints, r.objective);
    std::fflush(stdout);
    json.add(bname, secs,
             {{"constraints", static_cast<double>(r.num_constraints)},
              {"objective", r.objective},
              {"pivots", static_cast<double>(ws.flow.mcf.ns_pivots)},
              {"problem_builds", static_cast<double>(ws.problem_builds())},
              {"best_of", kDphaseBestOf}});
    // SSP on the cached flow instance (too slow on c2670 to be useful).
    if (name == "c2670") continue;
    const McfProblem& flow = ws.flow.problem;
    const Cost ns_cost = solve_network_simplex(flow).total_cost;
    McfWorkspace ssp_ws;
    McfSolution sol;
    const double ssp_secs = time_best_of(kDphaseBestOf, [&] {
      sol = solve_ssp(flow, ssp_ws);
    });
    MFT_CHECK(sol.status == McfStatus::kOptimal && sol.total_cost == ns_cost);
    const std::string sname = "dphase/" + name + "/ssp";
    std::printf("%-34s %12.3f %14d %12s\n", sname.c_str(), ssp_secs * 1e3,
                r.num_constraints, "(flow only)");
    std::fflush(stdout);
    json.add(sname, ssp_secs,
             {{"constraints", static_cast<double>(r.num_constraints)},
              {"flow_cost", static_cast<double>(sol.total_cost)},
              {"best_of", kDphaseBestOf}});
  }

  // --- Section 2: network simplex on generated layered instances ---------
  struct Shape {
    const char* name;
    int layers, width, extra;
  };
  const std::vector<Shape> shapes = {
      {"layered_2k", 100, 20, 2},
      {"layered_12k", 600, 20, 2},
      {"layered_50k", 2500, 20, 2},
  };
  std::printf("\n%-34s %12s %10s %10s %16s\n", "benchmark", "wall (ms)",
              "nodes", "arcs", "cost");
  McfWorkspace ws;
  for (const Shape& s : shapes) {
    const McfProblem p = make_layered(/*seed=*/42, s.layers, s.width, s.extra);
    McfSolution sol;
    const int reps = p.num_nodes() <= 20000 ? 3 : 2;
    const double secs = time_best_of(reps, [&] {
      sol = solve_network_simplex(p, {}, &ws);
    });
    MFT_CHECK(sol.status == McfStatus::kOptimal);
    const std::string bname = std::string("ns/") + s.name;
    std::printf("%-34s %12.3f %10d %10d %16lld\n", bname.c_str(), secs * 1e3,
                p.num_nodes(), p.num_arcs(),
                static_cast<long long>(sol.total_cost));
    std::fflush(stdout);
    json.add(bname, secs,
             {{"nodes", static_cast<double>(p.num_nodes())},
              {"arcs", static_cast<double>(p.num_arcs())},
              {"pivots", static_cast<double>(ws.ns_pivots)},
              {"cost", static_cast<double>(sol.total_cost)},
              {"best_of", static_cast<double>(reps)}});
    // Cross-check the small instance against SSP.
    if (p.num_nodes() <= 5000) {
      const McfSolution ref = solve_ssp(p);
      MFT_CHECK(ref.status == McfStatus::kOptimal &&
                ref.total_cost == sol.total_cost);
    }
  }

  json.add("flow_solvers/summary", 0.0,
           {{"hw_concurrency",
             static_cast<double>(std::thread::hardware_concurrency())}});
  if (!json.write("BENCH_flow_solvers.json"))
    std::fprintf(stderr, "warning: could not write BENCH_flow_solvers.json\n");
  return 0;
}
