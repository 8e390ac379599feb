// Gate-level combinational netlist IR.
//
// Gates are dense ids; primary inputs are pseudo-gates of kind kInput; each
// gate's output is an implicit net, so fanout is derived from fanin lists.
// This is the representation every circuit generator produces, the .bench
// reader/writer round-trips, and the timing lowerings consume.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/cell.h"

namespace mft {

using GateId = int;
inline constexpr GateId kInvalidGate = -1;

/// One gate instance.
struct Gate {
  GateKind kind = GateKind::kBuf;
  std::string name;
  std::vector<GateId> fanins;  ///< driving gates, pin order significant
};

/// A combinational netlist (no latches; ISCAS85 scope).
class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  /// Adds a primary input; names must be unique.
  GateId add_input(const std::string& name);

  /// Adds a gate driven by `fanins` (must already exist).
  GateId add_gate(GateKind kind, const std::string& name,
                  std::vector<GateId> fanins);

  /// Marks a gate's output as a primary output (idempotent).
  void mark_output(GateId g);

  // --- Accessors -----------------------------------------------------------
  const std::string& name() const { return name_; }

  int num_gates() const { return static_cast<int>(gates_.size()); }
  /// Gates excluding primary-input pseudo gates (the paper's "# Gates").
  int num_logic_gates() const;
  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  int num_outputs() const { return static_cast<int>(outputs_.size()); }

  const Gate& gate(GateId g) const { return gates_[check(g)]; }
  bool is_input(GateId g) const { return gate(g).kind == GateKind::kInput; }
  bool is_output(GateId g) const { return is_output_[check(g)]; }

  const std::vector<GateId>& inputs() const { return inputs_; }
  const std::vector<GateId>& outputs() const { return outputs_; }

  /// Gate id by name, or kInvalidGate.
  GateId find(const std::string& name) const;

  /// Fanout lists (computed lazily, cached; invalidated by mutation).
  const std::vector<GateId>& fanouts(GateId g) const;

  /// Topological order (inputs first). Throws if the netlist is cyclic.
  std::vector<GateId> topological_order() const;

  /// Logic depth: number of logic gates on the longest input→output path.
  int depth() const;

  /// Structural sanity: every gate's fanin count matches its kind's arity,
  /// no dangling gates (every non-output gate has fanout), acyclic.
  /// Returns false and fills `why` on violation.
  bool validate(std::string* why = nullptr) const;

  /// True if every logic gate is a primitive (NOT/NAND/NOR/AOI/OAI) —
  /// precondition of the transistor-level lowering.
  bool is_primitive_only() const;

  /// Evaluate the circuit on an input assignment (keyed by input gate id
  /// order). Used by tests to prove generator/transform equivalence.
  std::vector<bool> evaluate(const std::vector<bool>& input_values) const;

 private:
  std::size_t check(GateId g) const {
    MFT_DCHECK(g >= 0 && g < num_gates());
    return static_cast<std::size_t>(g);
  }
  void invalidate_cache() { fanout_cache_.clear(); }

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<bool> is_output_;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::unordered_map<std::string, GateId> by_name_;
  mutable std::vector<std::vector<GateId>> fanout_cache_;
};

/// Rewrites composite gates (AND/OR/XOR/XNOR/BUF) into primitive
/// NAND/NOR/NOT equivalents, preserving names of kept gates and the
/// input/output interface. Returns the new netlist.
Netlist tech_map_to_primitives(const Netlist& nl);

}  // namespace mft
