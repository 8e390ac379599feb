// Named built-in circuits: the one place a circuit name becomes a netlist,
// shared by mft_cli's --circuit and the daemon's "circuit" field. Names:
// c17, adder<N>, tiled<L>x<S>x<B> (gen/tiled.h) and the ISCAS85 analogs
// c432 ... c7552. Numbers are plain decimal, at least 1, and the whole
// name must match: "adder8x" and "adder0" are refused. A name whose
// circuit would exceed kMaxNamedCircuitGates logic gates is refused before
// anything is generated, so an untrusted name cannot make the caller build
// an arbitrarily large netlist.
#pragma once

#include <cstdint>
#include <string>

#include "netlist/netlist.h"

namespace mft {

/// Gate cap on generated names; tiled128x96x7 (~774k gates) is below it.
constexpr std::int64_t kMaxNamedCircuitGates = std::int64_t{1} << 20;

/// Builds the circuit called `name`. Throws EngineError(kInvalidInput) for
/// an unknown or malformed name, or one above kMaxNamedCircuitGates.
Netlist make_named_circuit(const std::string& name);

/// Every accepted spelling, one per line, patterns with their syntax.
std::string named_circuit_listing();

}  // namespace mft
