// Pins for TILOS: exact bump counts, the met_target and achieved_delay bits,
// and an FNV-1a hash over the bits of the returned sizes, on the Table-1
// circuits at their calibrated targets plus the transistor-lowered, ECO-pin,
// bump-cap and step-budget paths. Any change to the STA or the candidate
// evaluation that moves a single pick or a single rounding shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "gen/blocks.h"
#include "gen/iscas_analog.h"
#include "sizing/context.h"
#include "sizing/pass.h"
#include "sizing/tilos.h"
#include "timing/lowering.h"
#include "util/abort.h"

namespace mft {
namespace {

std::uint64_t bits_of(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

/// FNV-1a over the bytes of every size, in id order.
std::uint64_t fnv_sizes(const std::vector<double>& sizes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double d : sizes) {
    const std::uint64_t bits = bits_of(d);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// The Table-1 calibration bisects the target ratio over [0.05, 1] for
/// seven steps; `k` (odd, 1..127) names the final midpoint k/128 of that
/// interval. Recomputed with the bisection's own arithmetic so the target
/// is bit-identical to the calibrated one.
double bisected_ratio(int k) {
  double lo = 0.05, hi = 1.0;
  for (int step = 0;; ++step) {
    const double mid = 0.5 * (lo + hi);
    if (step == 6) return mid;
    if ((k >> (6 - step)) & 1)
      lo = mid;
    else
      hi = mid;
  }
}

struct Pin {
  std::int64_t bumps;
  bool met_target;
  std::uint64_t delay_bits;
  std::uint64_t sizes_fnv;
};

void expect_pinned(const TilosResult& r, const Pin& pin) {
  EXPECT_EQ(r.bumps, pin.bumps);
  EXPECT_EQ(r.met_target, pin.met_target);
  EXPECT_EQ(bits_of(r.achieved_delay), pin.delay_bits);
  EXPECT_EQ(fnv_sizes(r.sizes), pin.sizes_fnv);
}

TEST(TilosPin, Adder256AtTable1Target) {
  const LoweredCircuit lc = lower_gate_level(make_ripple_adder(256), Tech{});
  const double target = bisected_ratio(61) * min_sized_delay(lc.net);
  EXPECT_NEAR(target, 1771.73, 0.01);
  const TilosResult r = run_tilos(lc.net, target);
  expect_pinned(r, {7100, true, 0x409bae9be59d431bull, 5017304102314470873ull});
  EXPECT_EQ(r.area, 3700.3857037522403);
}

TEST(TilosPin, C5315AtTable1Target) {
  const LoweredCircuit lc =
      lower_gate_level(make_iscas_analog("c5315"), Tech{});
  const double target = bisected_ratio(57) * min_sized_delay(lc.net);
  EXPECT_NEAR(target, 653.264, 0.001);
  const TilosResult r = run_tilos(lc.net, target);
  expect_pinned(r,
                {6792, true, 0x408469b51c668f05ull, 17604921310637742695ull});
  EXPECT_EQ(r.area, 3627.3866577153944);
}

TEST(TilosPin, C6288AtTable1Target) {
  const LoweredCircuit lc =
      lower_gate_level(make_iscas_analog("c6288"), Tech{});
  const double target = bisected_ratio(93) * min_sized_delay(lc.net);
  EXPECT_NEAR(target, 658.821, 0.001);
  const TilosResult r = run_tilos(lc.net, target);
  expect_pinned(r,
                {11295, true, 0x40849600eae477c8ull, 9392090835272863970ull});
  EXPECT_EQ(r.area, 4189.5149574567786);
}

TEST(TilosPin, TransistorLoweredAdder) {
  const LoweredCircuit lc =
      lower_transistor_level(make_ripple_adder(8), Tech{});
  const TilosResult r = run_tilos(lc.net, 0.7 * min_sized_delay(lc.net));
  expect_pinned(r, {317, true, 0x40621108d734b9bcull, 2639095306211681387ull});
}

TEST(TilosPin, EcoPinsAreNeverBumped) {
  const LoweredCircuit lc = lower_gate_level(make_iscas_analog("c880"), Tech{});
  std::vector<double> pins(static_cast<std::size_t>(lc.net.num_vertices()),
                           0.0);
  for (NodeId v = 0; v < lc.net.num_vertices(); v += 7)
    pins[static_cast<std::size_t>(v)] = 2.5;
  TilosOptions opt;
  opt.pins = &pins;
  const TilosResult r = run_tilos(lc.net, 0.6 * min_sized_delay(lc.net), opt);
  expect_pinned(r, {347, true, 0x4066af3ede188efeull, 8702478211365670735ull});
  for (NodeId v = 0; v < lc.net.num_vertices(); v += 7) {
    if (!lc.net.is_source(v)) {
      EXPECT_EQ(r.sizes[static_cast<std::size_t>(v)], 2.5) << v;
    }
  }
}

TEST(TilosPin, MaxBumpsCapStopsTheLoop) {
  const LoweredCircuit lc =
      lower_gate_level(make_iscas_analog("c1908"), Tech{});
  TilosOptions opt;
  opt.max_bumps = 500;
  const TilosResult r = run_tilos(lc.net, 0.3 * min_sized_delay(lc.net), opt);
  expect_pinned(r, {500, false, 0x407acb28a849b813ull, 6119127859315023100ull});
}

TEST(TilosPin, StepBudgetAbortStopsTheLoop) {
  // Through the pass, the way the engine runs TILOS under a job's token.
  const LoweredCircuit lc = lower_gate_level(make_alu(8), Tech{});
  SizingContext ctx(lc.net);
  AbortToken token;
  token.arm_steps(300);
  ctx.set_abort(&token);
  PipelineState s;
  s.target_delay = 0.4 * min_sized_delay(lc.net);
  TilosPass pass;
  EXPECT_EQ(pass.run(ctx, s), PassStatus::kAbort);
  EXPECT_EQ(token.tripped(), EngineStatus::kStepBudget);
  expect_pinned(s.initial,
                {300, false, 0x4053e0a67cfc6207ull, 9482165140470739405ull});
}

}  // namespace
}  // namespace mft
