#include "gen/tiled.h"

#include "gen/blocks.h"
#include "util/check.h"
#include "util/str.h"

namespace mft {

std::int64_t tiled_datapath_gates(const TiledDatapathParams& p) {
  // One 9-NAND full adder per bit per tile.
  return std::int64_t{9} * p.lanes * p.stages * p.bits;
}

Netlist make_tiled_datapath(const TiledDatapathParams& p) {
  MFT_CHECK(p.lanes >= 1 && p.stages >= 1 && p.bits >= 1);
  Netlist nl(strf("tiled%dx%dx%d", p.lanes, p.stages, p.bits));

  // value[t] = current running word of lane t; carry[t] = its carry chain.
  std::vector<std::vector<GateId>> value(static_cast<std::size_t>(p.lanes));
  std::vector<GateId> carry(static_cast<std::size_t>(p.lanes));
  for (int t = 0; t < p.lanes; ++t) {
    carry[static_cast<std::size_t>(t)] = nl.add_input(strf("l%d_cin", t));
    for (int i = 0; i < p.bits; ++i)
      value[static_cast<std::size_t>(t)].push_back(
          nl.add_input(strf("l%d_a%d", t, i)));
  }
  // Stage-0 operands are fresh inputs; later stages consume the mesh.
  std::vector<std::vector<GateId>> operand(static_cast<std::size_t>(p.lanes));
  for (int t = 0; t < p.lanes; ++t)
    for (int i = 0; i < p.bits; ++i)
      operand[static_cast<std::size_t>(t)].push_back(
          nl.add_input(strf("l%d_b%d", t, i)));

  for (int s = 0; s < p.stages; ++s) {
    std::vector<std::vector<GateId>> next(static_cast<std::size_t>(p.lanes));
    for (int t = 0; t < p.lanes; ++t) {
      GateId c = carry[static_cast<std::size_t>(t)];
      for (int i = 0; i < p.bits; ++i) {
        const AdderBits fa = add_full_adder_nand(
            nl, value[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)],
            operand[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)],
            c, strf("s%d_l%d_fa%d", s, t, i));
        c = fa.cout;
        next[static_cast<std::size_t>(t)].push_back(fa.sum);
      }
      carry[static_cast<std::size_t>(t)] = c;
    }
    // Next stage's operand for lane t: the word lane t−1 just produced
    // (lane 0 wraps to the last lane — still a DAG, the operand is from
    // stage s and consumed at stage s+1).
    for (int t = 0; t < p.lanes; ++t)
      operand[static_cast<std::size_t>(t)] =
          next[static_cast<std::size_t>((t + p.lanes - 1) % p.lanes)];
    value = std::move(next);
  }

  for (int t = 0; t < p.lanes; ++t) {
    for (int i = 0; i < p.bits; ++i)
      nl.mark_output(
          value[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)]);
    nl.mark_output(carry[static_cast<std::size_t>(t)]);
  }
  return nl;
}

}  // namespace mft
