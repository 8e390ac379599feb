#include "sizing/tilos.h"

#include <algorithm>
#include <cmath>

#include "util/abort.h"

namespace mft {

double min_sized_delay(const SizingNetwork& net) {
  return run_sta(net, net.min_sizes()).critical_path;
}

TilosResult run_tilos(const SizingNetwork& net, double target_delay,
                      const TilosOptions& opt, AbortToken* abort) {
  MFT_CHECK(opt.bumpsize > 1.0);
  const Tech& tech = net.tech();
  const SweepPlan& pl = net.plan();
  TilosResult res;
  res.sizes = net.min_sizes();
  if (opt.pins != nullptr) {
    MFT_CHECK(static_cast<int>(opt.pins->size()) == net.num_vertices());
    for (NodeId v = 0; v < net.num_vertices(); ++v) {
      const double x = (*opt.pins)[static_cast<std::size_t>(v)];
      if (x > 0.0 && !net.is_source(v))
        res.sizes[static_cast<std::size_t>(v)] = x;
    }
  }
  const std::int64_t max_bumps =
      opt.max_bumps > 0 ? opt.max_bumps
                        : 4000 * static_cast<std::int64_t>(
                                     std::max(1, net.num_sizeable()));

  // One vertex is bumped per iteration. Each iteration runs only the
  // arrival step, with the bumped vertex as the changed hint: the delay
  // recompute is O(its loaders) with no size scan, and AT is re-swept from
  // the lowest position whose delay changed. All per-bump state is read in
  // sweep-position order from the scratch (sizes_pos mirrors res.sizes,
  // delay_pos/at_pos/cp_pos the timing), so the candidate evaluation
  // streams the plan's flat reverse-load CSR; on_path marks positions.
  TimingScratch sta;
  const std::vector<double>& sizes_pos = sta.sizes_pos;
  std::vector<char> on_path(static_cast<std::size_t>(net.num_vertices()), 0);
  std::vector<int> path;
  std::vector<NodeId> bumped;
  while (true) {
    run_arrival(net, res.sizes, sta, bumped);
    res.achieved_delay = sta.critical_path;
    if (sta.critical_path <= target_delay) {
      res.met_target = true;
      break;
    }
    if (res.bumps >= max_bumps) break;
    if (abort != nullptr && abort->step()) break;

    for (const int p : path) on_path[static_cast<std::size_t>(p)] = 0;
    critical_positions(pl, sta, path);
    for (const int p : path) on_path[static_cast<std::size_t>(p)] = 1;

    // Pick the on-path element with the best (most negative) change in path
    // delay per unit of added area. Walked in path order (source→sink),
    // strict-improvement tie-break — same winner as the historical
    // id-space walk.
    int best = -1;
    double best_sens = 0.0;
    for (const int bp : path) {
      const std::size_t p = static_cast<std::size_t>(bp);
      if (pl.source[p]) continue;
      if (opt.pins != nullptr &&
          (*opt.pins)[static_cast<std::size_t>(pl.vid[p])] > 0.0)
        continue;  // pinned: never a bump candidate
      const double x = sizes_pos[p];
      const double nx = x * opt.bumpsize;
      if (nx > tech.max_size) continue;

      // Own-stage speedup: delay(v) = a_self + L/x with L independent of x.
      const double load = (sta.delay_pos[p] - pl.a_self[p]) * x;
      double dpath = load * (1.0 / nx - 1.0 / x);
      // Upstream penalty: every on-path vertex u with a load term a_uv sees
      // Δdelay(u) = a_uv·(nx − x)/x_u.
      for (int k = pl.rload_off[p]; k < pl.rload_off[p + 1]; ++k) {
        const std::size_t u =
            static_cast<std::size_t>(pl.rload_pos[static_cast<std::size_t>(k)]);
        if (!on_path[u]) continue;
        dpath += pl.rload_coeff[static_cast<std::size_t>(k)] * (nx - x) /
                 sizes_pos[u];
      }
      const double sens = dpath / (nx - x);
      if (sens < best_sens) {
        best_sens = sens;
        best = bp;
      }
    }
    if (best < 0) break;  // nothing improves: infeasible target
    const NodeId v = pl.vid[static_cast<std::size_t>(best)];
    res.sizes[static_cast<std::size_t>(v)] *= opt.bumpsize;
    bumped.assign(1, v);
    ++res.bumps;
  }
  res.area = net.area(res.sizes);
  return res;
}

}  // namespace mft
