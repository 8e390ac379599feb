// cold_tiled: closed loop, one client, one engine worker. Cold
// MINFLOTRANSIT jobs on tiled8x12x4 (3,528 vertices) at 0.70 Dmin, one
// after another, each through JobRunner as a one-job batch (so every job
// starts from a fresh context). The flow solve dominates each job here.
//
// Size: a job takes ~2 s, so a run's median is over ~15 jobs. Identical
// jobs vary by up to 1.6x with the host's load, and the twice larger
// tiled16x12x4 (same flow share, ~7 s a job) gave a median of only 4-5:
// on a 4-vCPU VM its run medians spread 34 % against 15 % here over five
// interleaved pairs of runs, and 17-20 % against 15-18 % over ten-seed
// sets.
//
// Inputs: the target is fixed at 0.70 Dmin; the workload seed sets the
// jobs' engine seeds only. The solve's cost is chaotic in the target (on
// tiled16x12x4, 0.696 Dmin: 25 D-phase calls, 8.0 s; 0.704 Dmin: 17
// calls, 4.4 s on a 4-core x86 box), so any spread of targets would
// measure the draw, not the code.
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "common.h"
#include "engine/runner.h"
#include "gen/tiled.h"
#include "replay.h"
#include "stats.h"
#include "timing/lowering.h"

namespace perfbench {

namespace {

constexpr double kRatio = 0.70;

/// Seconds of set-up repetitions per slice; one slice before the first
/// job and one after every job.
constexpr double kSetupSlice = 0.08;

/// Generation, lowering and Dmin.
std::unique_ptr<mft::LoweredCircuit> build_tiled() {
  mft::TiledDatapathParams p;
  p.lanes = 8;
  p.stages = 12;
  p.bits = 4;
  const mft::Netlist nl = mft::make_tiled_datapath(p);
  auto c = std::make_unique<mft::LoweredCircuit>(
      mft::lower_gate_level(nl, mft::Tech{}));
  if (!(mft::min_sized_delay(c->net) > 0.0))
    throw std::runtime_error("tiled: bad Dmin");
  return c;
}

}  // namespace

void run_cold_tiled(const Args& a, Report& rep) {
  SetupTimer setup;
  std::unique_ptr<mft::LoweredCircuit> lc;
  setup.slice([&] { lc = build_tiled(); }, kSetupSlice, 3);
  const mft::SizingNetwork& net = lc->net;
  std::printf("cold_tiled: tiled8x12x4 n=%d, target %.2f Dmin\n",
              net.num_vertices(), kRatio);

  mft::JobRunnerOptions ro;
  ro.threads = 1;
  ro.inner_threads = 1;
  const mft::JobRunner runner(ro);
  const std::vector<const mft::SizingNetwork*> nets = {&net};
  mft::SizingJob job;
  job.network = 0;
  job.inner_threads = 1;
  job.target_ratio = kRatio;
  job.label = "tiled8x12x4";
  job.seed = Rng(a.seed).next() | 1;

  // Closed loop: the next job is sent when the previous one returns, for
  // as long as another median job (and its set-up slice) still fits in
  // the run.
  std::vector<double> walls;
  std::vector<mft::JobResult> results;
  const double start = now_s();
  do {
    const double t0 = now_s();
    mft::BatchResult b = runner.run(nets, {job});
    walls.push_back(now_s() - t0);
    results.push_back(std::move(b.results.front()));
    std::printf("  job %zu: %.3fs\n", walls.size(), walls.back());
    std::fflush(stdout);
    setup.slice([] { build_tiled(); }, kSetupSlice);
  } while (now_s() - start + median(walls) + kSetupSlice <= a.seconds);
  const double loop_wall = now_s() - start;

  std::vector<double> ratios;
  const mft::JobResult& first = results.front();
  for (const mft::JobResult& r : results) {
    rep.attempt();
    std::string err = check_job(net, r);
    // Identical jobs must agree exactly, counters included.
    if (err.empty() &&
        (sizes_hash(r.result.sizes) != sizes_hash(first.result.sizes) ||
         r.result.initial.bumps != first.result.initial.bumps ||
         r.stats.sta_full_runs != first.stats.sta_full_runs ||
         r.stats.sta_incremental_runs != first.stats.sta_incremental_runs ||
         r.stats.sta_delays_recomputed != first.stats.sta_delays_recomputed))
      err = "repeated identical job disagrees with the first";
    if (!err.empty()) {
      rep.op_failed();
      rep.fail(err);
      continue;
    }
    ratios.push_back(r.result.area / r.result.initial.area);
  }
  const double setup_s = setup.median();
  std::printf("cold_tiled: %zu jobs, median %.3fs, setup %.5fs (median of "
              "%zu), sizes_hash %016llx\n",
              walls.size(), median(walls), setup_s, setup.reps().size(),
              static_cast<unsigned long long>(sizes_hash(first.result.sizes)));

  if (!a.trace) {
    // The request is one cold job, timed from submit to result.
    report_end_to_end(rep, setup_s, median(walls), geomean(ratios));
    return;
  }

  // Traced: engine numbers from the results, the pipeline split from a
  // replay of the first job (every job is the same job).
  std::vector<double> queue;
  double busy = 0.0;
  for (const mft::JobResult& r : results) {
    queue.push_back(r.queue_seconds);
    busy += r.wall_seconds;
  }
  LayerSplit split;
  const std::vector<double> sizes =
      replay_job(net, first.target, job.options, first.seed, split);
  const std::string err = compare_replay(first, sizes, LayerSplit{}, split);
  if (!err.empty()) rep.fail(err);
  split.report(rep, first.wall_seconds);
  rep.metric("engine.queue_p50_s", median(queue), "s");
  rep.metric("engine.busy_frac", busy / loop_wall, "ratio");
  ServiceCounts{}.report(rep);  // no daemon, journal or resize here
}

}  // namespace perfbench
