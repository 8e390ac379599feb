// iscas_sweep: closed batch, two engine workers. The paper's Table-1
// protocol on the adders and the ISCAS85 analogs (c7552 left out, so no
// single job sets the batch's makespan): per-circuit bisection of the
// delay target with TILOS-only probe batches until TILOS lands at the
// circuit's area band, then one MINFLOTRANSIT batch at the calibrated
// targets. TILOS and incremental STA do most of the work; each flow solve
// is small.
//
// Inputs: the workload seed draws each circuit's area band uniformly from
// [1.58, 1.62] x min area (the paper's 1.5-1.75 band, centred at 1.6).
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "common.h"
#include "engine/runner.h"
#include "gen/blocks.h"
#include "gen/iscas_analog.h"
#include "replay.h"
#include "stats.h"
#include "timing/lowering.h"
#include "timing/sta.h"
#include "util/str.h"

namespace perfbench {

namespace {

const std::vector<std::string>& circuits() {
  static const std::vector<std::string> names = {
      "adder32", "adder256", "c432",  "c499",  "c880", "c1355",
      "c1908",   "c2670",    "c3540", "c5315", "c6288"};
  return names;
}

constexpr int kSteps = 7;  // bisection steps, as in the Table-1 bench
/// Seconds of set-up repetitions per slice; one slice before the first
/// sweep and one after every batch of every sweep.
constexpr double kSetupSlice = 0.04;

struct Circuits {
  std::vector<std::unique_ptr<mft::LoweredCircuit>> lowered;
  std::vector<const mft::SizingNetwork*> nets;
  std::vector<double> min_area;
};

Circuits build_circuits() {
  Circuits c;
  for (const std::string& name : circuits()) {
    const mft::Netlist nl =
        name.rfind("adder", 0) == 0
            ? mft::make_ripple_adder(std::stoi(name.substr(5)))
            : mft::make_iscas_analog(name);
    c.lowered.push_back(std::make_unique<mft::LoweredCircuit>(
        mft::lower_gate_level(nl, mft::Tech{})));
    const mft::SizingNetwork& net = c.lowered.back()->net;
    if (!(mft::min_sized_delay(net) > 0.0))
      throw std::runtime_error(name + ": bad Dmin");
    c.nets.push_back(&net);
    c.min_area.push_back(net.area(net.min_sizes()));
  }
  return c;
}

/// One sweep: every engine job it ran, in submission order, and its wall
/// (the set-up slices between its batches excluded).
struct Sweep {
  std::vector<mft::JobResult> jobs;
  std::vector<int> network;   ///< jobs[i]'s circuit
  std::vector<bool> is_final;
  double wall = 0.0;
  double batch_wall = 0.0;  ///< summed batch walls (engine view)
};

Sweep run_sweep(const mft::JobRunner& runner, const Circuits& c,
                const std::vector<double>& band, std::uint64_t seed,
                SetupTimer& setup) {
  Sweep sw;
  const std::size_t n = c.nets.size();
  std::vector<double> lo(n, 0.05), hi(n, 1.0), best(n, 0.0);
  double setup_wall = 0.0;
  auto collect = [&](mft::BatchResult& b, bool final_batch) {
    const double t = now_s();
    setup.slice([] { build_circuits(); }, kSetupSlice);
    setup_wall += now_s() - t;
    sw.batch_wall += b.wall_seconds;
    for (std::size_t i = 0; i < n; ++i) {
      sw.network.push_back(static_cast<int>(i));
      sw.is_final.push_back(final_batch);
      sw.jobs.push_back(std::move(b.results[i]));
    }
  };
  const double t0 = now_s();
  for (int step = 0; step < kSteps; ++step) {
    std::vector<mft::SizingJob> jobs(n);
    for (std::size_t i = 0; i < n; ++i) {
      jobs[i].network = static_cast<int>(i);
      jobs[i].inner_threads = 1;
      jobs[i].target_ratio = 0.5 * (lo[i] + hi[i]);
      jobs[i].options.max_iterations = 0;  // TILOS-only probe
      jobs[i].label = mft::strf("probe/%s@%d", circuits()[i].c_str(), step);
      jobs[i].seed = seed + static_cast<std::uint64_t>(step * n + i);
    }
    mft::BatchResult b = runner.run(c.nets, jobs);
    for (std::size_t i = 0; i < n; ++i) {
      const mft::JobResult& jr = b.results[i];
      const double mid = 0.5 * (lo[i] + hi[i]);
      if (step == 0) best[i] = jr.dmin;
      if (!jr.ok || !jr.result.initial.met_target) {
        lo[i] = mid;
        continue;
      }
      best[i] = mid * jr.dmin;
      if (jr.result.initial.area / c.min_area[i] > band[i])
        lo[i] = mid;
      else
        hi[i] = mid;
    }
    collect(b, false);
  }
  std::vector<mft::SizingJob> finals(n);
  for (std::size_t i = 0; i < n; ++i) {
    finals[i].network = static_cast<int>(i);
    finals[i].inner_threads = 1;
    finals[i].target_delay = best[i];
    finals[i].label = circuits()[i];
    finals[i].seed = seed + static_cast<std::uint64_t>(kSteps * n + i);
  }
  mft::BatchResult b = runner.run(c.nets, finals);
  collect(b, true);
  sw.wall = now_s() - t0 - setup_wall;
  return sw;
}

/// Output check of one job of a sweep: probes that report the target
/// infeasible must re-time above it; every other answer is a full check.
std::string check_sweep_job(const mft::SizingNetwork& net,
                            const mft::JobResult& r, bool is_final) {
  if (!is_final && r.ok && !r.result.initial.met_target) {
    const double d = mft::run_sta(net, r.result.sizes).critical_path;
    return d > r.target ? ""
                        : mft::strf("probe %s claims infeasible but re-times "
                                    "within its target",
                                    r.label.c_str());
  }
  return check_job(net, r);
}

}  // namespace

void run_iscas_sweep(const Args& a, Report& rep) {
  SetupTimer setup;
  Circuits c;
  setup.slice([&] { c = build_circuits(); }, 0.3, 3);

  Rng rng(a.seed);
  std::vector<double> band;
  for (std::size_t i = 0; i < c.nets.size(); ++i)
    band.push_back(1.58 + 0.04 * rng.uniform());
  const std::uint64_t job_seed = rng.next();
  std::printf("iscas_sweep: %zu circuits\n", c.nets.size());

  mft::JobRunnerOptions ro;
  ro.threads = 2;
  ro.inner_threads = 1;
  const mft::JobRunner runner(ro);

  // Whole sweeps while another fits. Each sweep is checked as it lands
  // and must agree exactly with the first (they are the same work); only
  // the first is kept, so memory does not grow with the sweep count.
  Sweep first;
  std::vector<double> sweep_walls, queue;
  double busy = 0.0, batch_wall = 0.0;
  const double start = now_s();
  do {
    Sweep sw = run_sweep(runner, c, band, job_seed, setup);
    sweep_walls.push_back(sw.wall);
    std::printf("  sweep %zu: %zu jobs in %.3fs\n", sweep_walls.size(),
                sw.jobs.size(), sw.wall);
    std::fflush(stdout);
    const Sweep& ref = first.jobs.empty() ? sw : first;
    batch_wall += sw.batch_wall;
    for (std::size_t k = 0; k < sw.jobs.size(); ++k) {
      const mft::JobResult& r = sw.jobs[k];
      queue.push_back(r.queue_seconds);
      busy += r.wall_seconds;
      rep.attempt();
      std::string err =
          check_sweep_job(*c.nets[static_cast<std::size_t>(sw.network[k])], r,
                          sw.is_final[k]);
      const mft::JobResult& f = ref.jobs[k];
      if (err.empty() &&
          (sizes_hash(r.result.sizes) != sizes_hash(f.result.sizes) ||
           r.target != f.target ||
           r.result.initial.bumps != f.result.initial.bumps ||
           r.stats.sta_full_runs != f.stats.sta_full_runs ||
           r.stats.sta_incremental_runs != f.stats.sta_incremental_runs ||
           r.stats.sta_delays_recomputed != f.stats.sta_delays_recomputed))
        err = mft::strf("%s disagrees with the first sweep", r.label.c_str());
      if (!err.empty()) {
        rep.op_failed();
        rep.fail(err);
      }
    }
    if (first.jobs.empty()) first = std::move(sw);
  } while (now_s() - start + median(sweep_walls) +
               (kSteps + 1) * kSetupSlice <=
           a.seconds);
  const double setup_s = setup.median();
  std::printf("iscas_sweep: %zu sweeps, median %.3fs, setup %.5fs (median of "
              "%zu)\n",
              sweep_walls.size(), median(sweep_walls), setup_s,
              setup.reps().size());

  std::vector<double> ratios;
  for (std::size_t k = 0; k < first.jobs.size(); ++k) {
    if (!first.is_final[k]) continue;
    const mft::JobResult& r = first.jobs[k];
    if (r.ok) ratios.push_back(r.result.area / r.result.initial.area);
    std::printf("  %-9s target %.6g  area %.6g / TILOS %.6g  %.3fs\n",
                r.label.c_str(), r.target, r.result.area,
                r.result.initial.area, r.wall_seconds);
  }

  if (!a.trace) {
    // The request is one whole sweep: the time to produce Table 1.
    report_end_to_end(rep, setup_s, median(sweep_walls), geomean(ratios));
    return;
  }

  // Traced: engine numbers over every sweep; the pipeline split from a
  // replay of every job of the first sweep, probes included.
  LayerSplit split;
  double engine_wall = 0.0;
  for (std::size_t k = 0; k < first.jobs.size(); ++k) {
    const mft::JobResult& r = first.jobs[k];
    mft::MinflotransitOptions opt;
    if (!first.is_final[k]) opt.max_iterations = 0;
    const LayerSplit before = split;
    const std::vector<double> sizes =
        replay_job(*c.nets[static_cast<std::size_t>(first.network[k])],
                   r.target, opt, r.seed, split);
    const std::string err = compare_replay(r, sizes, before, split);
    if (!err.empty()) rep.fail(err);
    engine_wall += r.wall_seconds;
  }
  split.report(rep, engine_wall);
  const Tail qt = tail(queue);
  std::printf("engine queue tail %.6fs (%s)\n", qt.value,
              describe_tail(qt.percentile, qt.samples).c_str());
  rep.metric("engine.queue_p50_s", median(queue), "s");
  rep.metric("engine.busy_frac", busy / (2.0 * batch_wall), "ratio");
  ServiceCounts{}.report(rep);  // no daemon, journal or resize here
}

}  // namespace perfbench
