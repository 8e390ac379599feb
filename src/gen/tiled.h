// Scalable tiled-datapath generator: the shard-solve workload.
//
// The Table-1 suite tops out at c7552-class sizes (~4k gates); the sharded
// solver exists for netlists 10–100x beyond that, so it needs instances
// that can actually be generated at that scale. make_tiled_datapath builds
// a lanes × stages mesh of small ripple-adder tiles: lane t, stage s adds
// its running value to the previous stage's output of the neighboring lane
// (mesh coupling), so the circuit is deep (stages × adder depth levels),
// wide (lanes × bits per level), and genuinely cross-connected — cutting it
// at a level boundary severs real arcs and loads, which is what makes it a
// meaningful partitioning benchmark rather than `lanes` independent
// circuits. All connections point forward in (stage, then bit) order, so
// the netlist is a DAG by construction. Deterministic: no randomness at
// all, the same params always produce the same netlist; with stages = 1 it
// is `lanes` independent `bits`-bit ripple-carry chains.
//
// Size ≈ lanes × stages × bits × 9 NAND gates (a 9-NAND full adder per
// bit): the default 64 × 48 × 4 is ~110k sizing vertices after gate
// lowering; 128 × 96 × 7 is ~800k.
#pragma once

#include <cstdint>

#include "netlist/netlist.h"

namespace mft {

struct TiledDatapathParams {
  int lanes = 64;   ///< parallel lanes (level width)
  int stages = 48;  ///< pipeline stages (level depth)
  int bits = 4;     ///< ripple-adder bits per tile
};

/// Logic-gate count for `p`, in 64-bit arithmetic.
std::int64_t tiled_datapath_gates(const TiledDatapathParams& p);

Netlist make_tiled_datapath(const TiledDatapathParams& p = {});

}  // namespace mft
