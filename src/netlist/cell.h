// Cell (gate-type) definitions for the combinational netlists the sizer
// operates on, including each primitive's static-CMOS transistor topology
// as a series/parallel tree (paper §2.1, Fig. 1).
#pragma once

#include <string>

#include "graph/sp_tree.h"

namespace mft {

/// Gate kinds. The .bench dialect of the ISCAS85 suite uses the first nine;
/// AOI/OAI exist to exercise non-trivial series/parallel topologies in the
/// transistor-level flow.
enum class GateKind {
  kInput,  ///< primary-input pseudo gate (no fanins, no transistors)
  kBuf,
  kNot,
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
  kAoi21,  ///< out = !(in0·in1 + in2)
  kOai21,  ///< out = !((in0+in1)·in2)
};

const char* to_string(GateKind k);

/// Parses a .bench gate keyword ("NAND", "not", "BUFF", ...). Throws
/// CheckError on unknown keywords.
GateKind gate_kind_from_string(const std::string& s);

/// Non-throwing variant: true and *out set when `s` names a known gate
/// kind. The parser uses this to reject unknown kinds with a line number
/// instead of an abort-style check failure.
bool try_parse_gate_kind(const std::string& s, GateKind* out);

/// True for gates that a single static CMOS stage implements directly and
/// for which an SP transistor topology exists (NOT/NAND/NOR/AOI/OAI and the
/// degenerate single-transistor planes of BUF treated as inverter).
/// AND/OR/XOR/XNOR/BUF are composite and must be decomposed first
/// (see netlist.h: tech_map_to_primitives).
bool is_primitive(GateKind k);

/// Number of inputs this kind requires, or -1 if variadic (>= 2).
int fixed_arity(GateKind k);

/// Pulldown-plane (NMOS) series/parallel tree for a primitive gate with
/// `fanin` inputs. The pullup plane is its structural dual. Throws for
/// non-primitive kinds.
SpTree pulldown_topology(GateKind k, int fanin);

}  // namespace mft
