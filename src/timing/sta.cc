#include "timing/sta.h"

#include <algorithm>
#include <climits>
#include <limits>
#include <utility>

namespace mft {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Forward sweep of the arrival step over positions [from, n), a valid
// topological order (SweepPlan): AT(v) = max over fanin j of AT(j) +
// delay(j), 0 at sources, folded into the CP, which is resumed from the
// prefix record at from − 1. Positions before `from` keep their AT: no
// delay before `from` changed, so none of their AT can have.
//
// Every position from `from` on is recomputed, not only those downstream
// of a changed delay: on the Table-1 circuits a TILOS bump changes the AT
// of ~45 % of the positions it sweeps, and skipping the rest through
// per-position marks cost more in marking and mispredicted branches than
// it saved (TILOS on six Table-1 circuits: 0.37 s with marks, 0.26 s
// without).
//
// Bit-identity to the historical full id-space walk: every fanin fold
// reads only earlier positions and folds the vertex's own arc list in its
// original stored order; the cp winner "first in topological order
// attaining the max" is equivalently "max end, lowest topological position
// on exact ties", which is the explicit rule here.
void sweep_arrival(const SweepPlan& pl, TimingScratch& s, int from) {
  const int n = pl.n;
  int cp = from > 0 ? s.cp_prefix[static_cast<std::size_t>(from) - 1] : -1;
  double cp_end = cp < 0 ? 0.0
                         : s.at_pos[static_cast<std::size_t>(cp)] +
                               s.delay_pos[static_cast<std::size_t>(cp)];
  int cp_tp = cp < 0 ? INT_MAX : pl.topo_pos[static_cast<std::size_t>(cp)];
  for (int p = from; p < n; ++p) {
    const std::size_t pi = static_cast<std::size_t>(p);
    double at = 0.0;
    for (int k = pl.fanin_off[pi]; k < pl.fanin_off[pi + 1]; ++k) {
      const std::size_t j =
          static_cast<std::size_t>(pl.fanin_pos[static_cast<std::size_t>(k)]);
      at = std::max(at, s.at_pos[j] + s.delay_pos[j]);
    }
    s.at_pos[pi] = at;
    const double end = at + s.delay_pos[pi];
    if (cp < 0 || end > cp_end ||
        (end == cp_end && pl.topo_pos[pi] < cp_tp)) {
      cp_end = end;
      cp = p;
      cp_tp = pl.topo_pos[pi];
    }
    s.cp_prefix[pi] = cp;
  }
  s.critical_path = cp < 0 ? 0.0 : cp_end;
  s.cp_pos = cp;
}

// Full arrival step: gather the sizes, compute every delay, and sweep AT
// from position 0.
void full_arrival(const SweepPlan& pl, const std::vector<double>& sizes,
                  TimingScratch& s) {
  const std::size_t n = static_cast<std::size_t>(pl.n);
  pl.gather(sizes, s.sizes_pos);
  s.delay_pos.resize(n);
  for (int p = 0; p < pl.n; ++p)
    s.delay_pos[static_cast<std::size_t>(p)] = pl.delay_at(p, s.sizes_pos);
  s.at_pos.resize(n);
  s.cp_prefix.resize(n);
  sweep_arrival(pl, s, 0);
}

// Arrival step: refresh the delays invalidated since the previous call on
// this scratch (all of them on a full run), then sweep AT forward from the
// lowest position whose delay changed. `changed` selects the hinted or the
// scanning path.
void arrival_step(const SizingNetwork& net, const std::vector<double>& sizes,
                  TimingScratch& scratch, const std::vector<NodeId>* changed) {
  MFT_CHECK(net.frozen());
  MFT_CHECK(static_cast<int>(sizes.size()) == net.num_vertices());
  const std::size_t n = static_cast<std::size_t>(net.num_vertices());
  const SweepPlan& pl = net.plan();

  if (!scratch.valid || scratch.net_serial != net.serial()) {
    // First run on this scratch (or a different network).
    full_arrival(pl, sizes, scratch);
    scratch.is_dirty.assign(n, 0);
    scratch.last_sizes = sizes;
    scratch.valid = true;
    scratch.net_serial = net.serial();
    ++scratch.full_runs;
    scratch.delays_recomputed += static_cast<std::int64_t>(n);
    return;
  }

  // Incremental: a vertex's delay depends on its own size and the sizes it
  // loads, so the invalidated set is {changed} ∪ reverse loads of the
  // changed vertices — all found on the flat reverse-load CSR, tracked as
  // sweep positions.
  auto& dirty = scratch.dirty;
  dirty.clear();
  auto mark = [&](int p) {
    const std::size_t i = static_cast<std::size_t>(p);
    if (!scratch.is_dirty[i]) {
      scratch.is_dirty[i] = 1;
      dirty.push_back(p);
    }
  };
  auto mark_changed = [&](NodeId v) {
    const int p = pl.pos_of[static_cast<std::size_t>(v)];
    scratch.sizes_pos[static_cast<std::size_t>(p)] =
        sizes[static_cast<std::size_t>(v)];
    mark(p);
    for (int k = pl.rload_off[static_cast<std::size_t>(p)];
         k < pl.rload_off[static_cast<std::size_t>(p) + 1]; ++k)
      mark(pl.rload_pos[static_cast<std::size_t>(k)]);
  };
  if (changed != nullptr) {
    // Hinted path: trust the caller's change set, touch nothing else.
    for (const NodeId v : *changed) {
      const std::size_t i = static_cast<std::size_t>(v);
      if (sizes[i] == scratch.last_sizes[i]) continue;
      scratch.last_sizes[i] = sizes[i];
      mark_changed(v);
    }
#ifndef NDEBUG
    // A hint that misses a resized vertex silently corrupts every later
    // report; cross-check the whole contract in debug builds.
    for (std::size_t i = 0; i < n; ++i)
      MFT_CHECK_MSG(sizes[i] == scratch.last_sizes[i],
                    "run_sta changed-hint missed resized vertex " << i);
#endif
    ++scratch.hinted_runs;
  } else {
    for (NodeId v = 0; v < net.num_vertices(); ++v) {
      const std::size_t i = static_cast<std::size_t>(v);
      if (sizes[i] == scratch.last_sizes[i]) continue;
      mark_changed(v);
    }
    scratch.last_sizes = sizes;
  }
  // The sweep starts at the lowest position whose delay actually changed.
  int from = pl.n;
  for (const int p : dirty) {
    const std::size_t pi = static_cast<std::size_t>(p);
    scratch.is_dirty[pi] = 0;
    const double d = pl.delay_at(p, scratch.sizes_pos);
    if (d == scratch.delay_pos[pi]) continue;
    scratch.delay_pos[pi] = d;
    from = std::min(from, p);
  }
  ++scratch.incremental_runs;
  scratch.delays_recomputed += static_cast<std::int64_t>(dirty.size());
  sweep_arrival(pl, scratch, from);
}

// Required step: RT(v) = CP − delay(v) at POs, min over fanouts elsewhere,
// swept backward over all positions; then the export of the id-indexed
// report — linear writes over the four report arrays, gathered reads from
// the position arrays.
const TimingReport& required_step(const SweepPlan& pl, TimingScratch& s) {
  const int n = pl.n;
  s.rt_pos.resize(static_cast<std::size_t>(n));
  for (int p = n - 1; p >= 0; --p) {
    const std::size_t pi = static_cast<std::size_t>(p);
    double rt = kInf;
    if (pl.sink[pi]) rt = s.critical_path - s.delay_pos[pi];
    for (int k = pl.fanout_off[pi]; k < pl.fanout_off[pi + 1]; ++k)
      rt = std::min(rt, s.rt_pos[static_cast<std::size_t>(pl.fanout_pos[
                            static_cast<std::size_t>(k)])] -
                            s.delay_pos[pi]);
    s.rt_pos[pi] = rt;
  }

  TimingReport& r = s.report;
  r.critical_path = s.critical_path;
  r.cp_vertex =
      s.cp_pos < 0 ? kInvalidNode : pl.vid[static_cast<std::size_t>(s.cp_pos)];
  const std::size_t nv = static_cast<std::size_t>(n);
  r.delay.resize(nv);
  r.at.resize(nv);
  r.rt.resize(nv);
  r.slack.resize(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    const std::size_t p = static_cast<std::size_t>(pl.pos_of[v]);
    r.delay[v] = s.delay_pos[p];
    r.at[v] = s.at_pos[p];
    r.rt[v] = s.rt_pos[p];
    r.slack[v] = s.rt_pos[p] - s.at_pos[p];
  }
  return r;
}
}  // namespace

TimingReport run_sta(const SizingNetwork& net, const std::vector<double>& sizes) {
  MFT_CHECK(net.frozen());
  MFT_CHECK(static_cast<int>(sizes.size()) == net.num_vertices());
  TimingScratch scratch;
  full_arrival(net.plan(), sizes, scratch);
  required_step(net.plan(), scratch);
  return std::move(scratch.report);
}

const TimingReport& run_sta(const SizingNetwork& net,
                            const std::vector<double>& sizes,
                            TimingScratch& scratch) {
  arrival_step(net, sizes, scratch, nullptr);
  return required_step(net.plan(), scratch);
}

const TimingReport& run_sta(const SizingNetwork& net,
                            const std::vector<double>& sizes,
                            TimingScratch& scratch,
                            const std::vector<NodeId>& changed) {
  arrival_step(net, sizes, scratch, &changed);
  return required_step(net.plan(), scratch);
}

void run_arrival(const SizingNetwork& net, const std::vector<double>& sizes,
                 TimingScratch& scratch, const std::vector<NodeId>& changed) {
  arrival_step(net, sizes, scratch, &changed);
}

void critical_positions(const SweepPlan& pl, const TimingScratch& scratch,
                        std::vector<int>& path) {
  const std::vector<double>& at = scratch.at_pos;
  const std::vector<double>& delay = scratch.delay_pos;
  path.clear();
  int cur = scratch.cp_pos;
  while (cur >= 0) {
    path.push_back(cur);
    const std::size_t ci = static_cast<std::size_t>(cur);
    int next = -1;
    double best = -kInf;
    for (int k = pl.fanin_off[ci]; k < pl.fanin_off[ci + 1]; ++k) {
      const int j = pl.fanin_pos[static_cast<std::size_t>(k)];
      const std::size_t jj = static_cast<std::size_t>(j);
      const double end = at[jj] + delay[jj];
      if (end > best ||
          (end == best && next >= 0 &&
           pl.vid[jj] < pl.vid[static_cast<std::size_t>(next)])) {
        best = end;
        next = j;
      }
    }
    if (next >= 0 && best != at[ci]) next = -1;  // AT from the source floor
    cur = next;
  }
  std::reverse(path.begin(), path.end());
}

double TimingReport::edge_slack(const SizingNetwork& net, ArcId a) const {
  const Digraph& g = net.dag();
  const NodeId i = g.tail(a);
  const NodeId j = g.head(a);
  return rt[static_cast<std::size_t>(j)] - at[static_cast<std::size_t>(i)] -
         delay[static_cast<std::size_t>(i)];
}

std::vector<NodeId> TimingReport::critical_vertices(
    const SizingNetwork& net) const {
  const Digraph& g = net.dag();
  // The CP endpoint is tracked during run_sta; fall back to an O(V) scan
  // only for reports not produced by run_sta.
  NodeId cur = cp_vertex;
  if (cur == kInvalidNode) {
    double best = -kInf;
    for (NodeId v = 0; v < net.num_vertices(); ++v) {
      const double end = at[static_cast<std::size_t>(v)] +
                         delay[static_cast<std::size_t>(v)];
      if (end > best) {
        best = end;
        cur = v;
      }
    }
  }
  std::vector<NodeId> path;
  while (cur != kInvalidNode) {
    path.push_back(cur);
    // Step to the max-(AT+delay) fanin: that maximum is exactly how AT(cur)
    // was formed in the forward sweep, so the comparison is exact, and
    // taking the argmax (lowest id on ties) makes the walk deterministic.
    NodeId next = kInvalidNode;
    double best = -kInf;
    for (ArcId a : g.in_arcs(cur)) {
      const NodeId j = g.tail(a);
      const double end = at[static_cast<std::size_t>(j)] +
                         delay[static_cast<std::size_t>(j)];
      if (end > best || (end == best && next != kInvalidNode && j < next)) {
        best = end;
        next = j;
      }
    }
    if (next != kInvalidNode &&
        best != at[static_cast<std::size_t>(cur)])
      next = kInvalidNode;  // AT came from the source floor, not a fanin
    cur = next;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

bool TimingReport::safe(const SizingNetwork& net, double tol) const {
  for (NodeId v = 0; v < net.num_vertices(); ++v)
    if (slack[static_cast<std::size_t>(v)] < -tol) return false;
  for (ArcId a = 0; a < net.dag().num_arcs(); ++a)
    if (edge_slack(net, a) < -tol) return false;
  return true;
}

}  // namespace mft
