#include "gen/registry.h"

#include <algorithm>

#include "gen/blocks.h"
#include "gen/iscas_analog.h"
#include "gen/tiled.h"
#include "util/status.h"
#include "util/str.h"

namespace mft {

namespace {

// Every generated family spends one 9-NAND full adder per bit, so a single
// parameter this large already puts a circuit over the cap, and three of
// them multiply in 64 bits without overflow.
constexpr std::int64_t kSaturated = kMaxNamedCircuitGates / 9 + 1;

[[noreturn]] void refuse(const std::string& why) {
  throw EngineError(EngineStatus::kInvalidInput, why);
}

void check_cap(const std::string& name, std::int64_t gates) {
  if (gates > kMaxNamedCircuitGates)
    refuse(strf("circuit '%s' is above the %lld-gate cap on generated "
                "circuits", name.c_str(),
                static_cast<long long>(kMaxNamedCircuitGates)));
}

/// Reads the `count` 'x'-separated decimal numbers after the five-letter
/// prefix ("adder", "tiled"); the name must end right after the last one.
/// Numbers saturate at kSaturated.
std::vector<int> parse_dims(const std::string& name, std::size_t count,
                            const char* pattern) {
  std::vector<int> dims;
  std::size_t pos = 5;
  while (dims.size() < count) {
    if (!dims.empty() && (pos >= name.size() || name[pos++] != 'x')) break;
    const std::size_t start = pos;
    std::int64_t v = 0;
    for (; pos < name.size() && name[pos] >= '0' && name[pos] <= '9'; ++pos)
      v = std::min(v * 10 + (name[pos] - '0'), kSaturated);
    if (pos == start || v == 0) break;
    dims.push_back(static_cast<int>(v));
  }
  if (dims.size() != count || pos != name.size())
    refuse(strf("malformed circuit name '%s': expected %s with every "
                "number >= 1", name.c_str(), pattern));
  return dims;
}

}  // namespace

Netlist make_named_circuit(const std::string& name) {
  if (name == "c17") return make_c17();
  if (starts_with(name, "adder")) {
    const int bits = parse_dims(name, 1, "adder<N>")[0];
    check_cap(name, std::int64_t{9} * bits);
    return make_ripple_adder(bits);
  }
  if (starts_with(name, "tiled")) {
    const std::vector<int> d = parse_dims(name, 3, "tiled<L>x<S>x<B>");
    const TiledDatapathParams p{d[0], d[1], d[2]};
    check_cap(name, tiled_datapath_gates(p));
    return make_tiled_datapath(p);
  }
  try {
    return make_iscas_analog(name);
  } catch (const std::exception& e) {
    refuse(strf("unknown circuit '%s': %s", name.c_str(), e.what()));
  }
}

std::string named_circuit_listing() {
  std::string out =
      "  c17             the 6-NAND c17 benchmark\n"
      "  adder<N>        N-bit ripple-carry adder, e.g. adder32\n"
      "  tiled<L>x<S>x<B> L-lane S-stage B-bit tiled datapath mesh,\n"
      "                  e.g. tiled64x48x4 (~110k gates)\n";
  for (const IscasAnalogSpec& spec : iscas85_specs()) {
    const std::size_t pad =
        spec.name.size() < 16 ? 16 - spec.name.size() : 1;
    out += "  " + spec.name + std::string(pad, ' ') + spec.function + "\n";
  }
  return out + strf("  (generated circuits are capped at %lld gates)\n",
                    static_cast<long long>(kMaxNamedCircuitGates));
}

}  // namespace mft
