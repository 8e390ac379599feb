#include "replay.h"

#include <memory>

#include "mcf/network_simplex.h"
#include "sizing/context.h"
#include "sizing/pass.h"
#include "util/str.h"

namespace perfbench {

namespace {

using mft::OptimizerPass;
using mft::PassStatus;
using mft::PipelineState;
using mft::SizingContext;

enum class Layer { kTilos, kWPhase, kDPhase };

/// Times one pass from outside; after every D-phase call it solves that
/// call's flow instance again on the benchmark's own workspace.
class TimedPass final : public OptimizerPass {
 public:
  TimedPass(std::unique_ptr<OptimizerPass> inner, Layer layer,
            LayerSplit& acc, mft::McfWorkspace& ws)
      : inner_(std::move(inner)), layer_(layer), acc_(acc), ws_(ws) {}

  const std::string& name() const override { return inner_->name(); }

  void begin(SizingContext& ctx, PipelineState& s) override {
    inner_->begin(ctx, s);
  }

  PassStatus run(SizingContext& ctx, PipelineState& s) override {
    const std::size_t accepted = s.iterations.size();
    const double t0 = now_s();
    const PassStatus st = inner_->run(ctx, s);
    const double dt = now_s() - t0;
    switch (layer_) {
      case Layer::kTilos:
        acc_.tilos_s += dt;
        acc_.bumps += s.initial.bumps;
        break;
      case Layer::kWPhase:
        acc_.wphase_s += dt;
        break;
      case Layer::kDPhase:
        acc_.dphase_s += dt;
        ++acc_.dphase_calls;
        if (s.iterations.size() > accepted) ++acc_.dphase_accepted;
        resolve_flow(ctx);
        break;
    }
    return st;
  }

 private:
  void resolve_flow(SizingContext& ctx) {
    mft::DPhaseWorkspace& dw = ctx.dphase();
    if (!dw.built) return;
    const double t0 = now_s();
    mft::solve_network_simplex(dw.flow.problem, {}, &ws_);
    acc_.flow_s += now_s() - t0;
    acc_.pivots += ws_.ns_pivots;
    ++acc_.flow_solves;
    // The re-solve is the same instance the D-phase just solved, so its
    // pivot count must match the D-phase's own.
    if (ws_.ns_pivots != dw.flow.mcf.ns_pivots) ++acc_.pivot_mismatches;
  }

  std::unique_ptr<OptimizerPass> inner_;
  Layer layer_;
  LayerSplit& acc_;
  mft::McfWorkspace& ws_;
};

}  // namespace

std::vector<double> replay_job(const mft::SizingNetwork& net, double target,
                               const mft::MinflotransitOptions& options,
                               std::uint64_t seed, LayerSplit& acc) {
  const double t0 = now_s();
  SizingContext ctx(net);
  ctx.begin_job();
  // One re-solve workspace for every replay, as the engine's pooled
  // contexts reuse theirs: a fresh one per job would bill the re-solve
  // for allocation that the measured solve never paid.
  static mft::McfWorkspace ws;
  mft::MinflotransitOptions opt = options;
  opt.seed = seed;
  auto wrap = [&](std::unique_ptr<OptimizerPass> p, Layer layer) {
    return std::make_unique<TimedPass>(std::move(p), layer, acc, ws);
  };
  mft::Pipeline pipeline;
  pipeline.add(wrap(std::make_unique<mft::TilosPass>(opt.tilos), Layer::kTilos));
  pipeline.add(wrap(std::make_unique<mft::WPhasePass>(), Layer::kWPhase));
  pipeline.add(wrap(std::make_unique<mft::DPhasePass>(
                        opt.dphase, opt.rel_improvement_stop, opt.patience,
                        opt.max_beta_backoffs),
                    Layer::kDPhase),
               opt.max_iterations);
  const mft::PipelineResult pr = pipeline.run(ctx, target, opt.seed);
  const mft::MinflotransitResult res = mft::to_minflotransit_result(ctx, pr);
  const mft::ContextStats st = ctx.stats();
  acc.sta_full += st.sta_full_runs;
  acc.sta_incremental += st.sta_incremental_runs;
  acc.sta_delays += st.sta_delays_recomputed;
  for (const mft::PassStats& ps : pr.pass_stats) acc.wphase_sweeps += ps.sweeps;
  acc.replay_s += now_s() - t0;
  return res.sizes;
}

std::string compare_replay(const mft::JobResult& engine,
                           const std::vector<double>& replay_sizes,
                           const LayerSplit& before, const LayerSplit& after) {
  std::int64_t sweeps = 0;
  for (const mft::PassStats& ps : engine.pass_stats) sweeps += ps.sweeps;
  const char* what = nullptr;
  if (replay_sizes != engine.result.sizes)
    what = "sizes";
  else if (after.bumps - before.bumps != engine.result.initial.bumps)
    what = "TILOS bumps";
  else if (after.sta_full - before.sta_full != engine.stats.sta_full_runs)
    what = "full STA runs";
  else if (after.sta_incremental - before.sta_incremental !=
           engine.stats.sta_incremental_runs)
    what = "incremental STA runs";
  else if (after.sta_delays - before.sta_delays !=
           engine.stats.sta_delays_recomputed)
    what = "delays recomputed";
  else if (after.wphase_sweeps - before.wphase_sweeps != sweeps)
    what = "W-phase sweeps";
  else if (after.pivot_mismatches != before.pivot_mismatches)
    what = "flow re-solve pivots";
  return what == nullptr
             ? ""
             : mft::strf("replay of %s differs from the engine in its %s",
                         engine.label.c_str(), what);
}

void LayerSplit::report(Report& rep, double engine_wall_s) const {
  const double wall = engine_wall_s > 0.0 ? engine_wall_s : 1.0;
  // Shares are of the replayed jobs' own time (the re-solves taken out),
  // so numerator and denominator come from the same moment of the host;
  // the engine's wall, timed earlier, is compared only in the overhead.
  const double job_s = replay_s - flow_s > 0.0 ? replay_s - flow_s : 1.0;
  rep.metric("mcf.flow_s", flow_s, "s");
  rep.metric("mcf.pivots", static_cast<double>(pivots), "count");
  rep.metric("mcf.solves", static_cast<double>(flow_solves), "count");
  rep.metric("mcf.share", flow_s / job_s, "ratio");
  rep.metric("dphase.s", dphase_s, "s");
  rep.metric("dphase.calls", static_cast<double>(dphase_calls), "count");
  rep.metric("dphase.accepted", static_cast<double>(dphase_accepted), "count");
  rep.metric("dphase.nonflow_s", dphase_s - flow_s, "s");
  rep.metric("tilos.s", tilos_s, "s");
  rep.metric("tilos.bumps", static_cast<double>(bumps), "count");
  rep.metric("tilos.share", tilos_s / job_s, "ratio");
  rep.metric("sta.full_runs", static_cast<double>(sta_full), "count");
  rep.metric("sta.incremental_runs", static_cast<double>(sta_incremental),
             "count");
  rep.metric("sta.delays_recomputed", static_cast<double>(sta_delays),
             "count");
  rep.metric("wphase.s", wphase_s, "s");
  rep.metric("wphase.sweeps", static_cast<double>(wphase_sweeps), "count");
  rep.metric("trace.overhead_frac", (replay_s - flow_s - wall) / wall,
             "ratio");
}

}  // namespace perfbench
