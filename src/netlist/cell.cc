#include "netlist/cell.h"

#include "util/check.h"
#include "util/str.h"

namespace mft {

const char* to_string(GateKind k) {
  switch (k) {
    case GateKind::kInput:
      return "INPUT";
    case GateKind::kBuf:
      return "BUFF";
    case GateKind::kNot:
      return "NOT";
    case GateKind::kAnd:
      return "AND";
    case GateKind::kNand:
      return "NAND";
    case GateKind::kOr:
      return "OR";
    case GateKind::kNor:
      return "NOR";
    case GateKind::kXor:
      return "XOR";
    case GateKind::kXnor:
      return "XNOR";
    case GateKind::kAoi21:
      return "AOI21";
    case GateKind::kOai21:
      return "OAI21";
  }
  return "?";
}

bool try_parse_gate_kind(const std::string& s, GateKind* out) {
  const std::string u = to_upper(s);
  if (u == "INPUT") return *out = GateKind::kInput, true;
  if (u == "BUF" || u == "BUFF") return *out = GateKind::kBuf, true;
  if (u == "NOT" || u == "INV") return *out = GateKind::kNot, true;
  if (u == "AND") return *out = GateKind::kAnd, true;
  if (u == "NAND") return *out = GateKind::kNand, true;
  if (u == "OR") return *out = GateKind::kOr, true;
  if (u == "NOR") return *out = GateKind::kNor, true;
  if (u == "XOR") return *out = GateKind::kXor, true;
  if (u == "XNOR") return *out = GateKind::kXnor, true;
  if (u == "AOI21") return *out = GateKind::kAoi21, true;
  if (u == "OAI21") return *out = GateKind::kOai21, true;
  return false;
}

GateKind gate_kind_from_string(const std::string& s) {
  GateKind k;
  MFT_CHECK_MSG(try_parse_gate_kind(s, &k), "unknown gate kind '" << s << "'");
  return k;
}

bool is_primitive(GateKind k) {
  switch (k) {
    case GateKind::kNot:
    case GateKind::kNand:
    case GateKind::kNor:
    case GateKind::kAoi21:
    case GateKind::kOai21:
      return true;
    default:
      return false;
  }
}

int fixed_arity(GateKind k) {
  switch (k) {
    case GateKind::kInput:
      return 0;
    case GateKind::kBuf:
    case GateKind::kNot:
      return 1;
    case GateKind::kXor:
    case GateKind::kXnor:
      return -1;  // variadic parity
    case GateKind::kAoi21:
    case GateKind::kOai21:
      return 3;
    default:
      return -1;  // variadic
  }
}

SpTree pulldown_topology(GateKind k, int fanin) {
  MFT_CHECK_MSG(is_primitive(k), "no SP topology for composite gate "
                                     << to_string(k));
  switch (k) {
    case GateKind::kNot:
      MFT_CHECK(fanin == 1);
      return SpTree::leaf(0);
    case GateKind::kNand: {
      MFT_CHECK(fanin >= 1);
      std::vector<SpTree> kids;
      for (int i = 0; i < fanin; ++i) kids.push_back(SpTree::leaf(i));
      return SpTree::series(std::move(kids));
    }
    case GateKind::kNor: {
      MFT_CHECK(fanin >= 1);
      std::vector<SpTree> kids;
      for (int i = 0; i < fanin; ++i) kids.push_back(SpTree::leaf(i));
      return SpTree::parallel(std::move(kids));
    }
    case GateKind::kAoi21:
      MFT_CHECK(fanin == 3);
      // !(in0·in1 + in2): pulldown = (p0.p1) + p2
      return SpTree::parallel(
          {SpTree::series({SpTree::leaf(0), SpTree::leaf(1)}), SpTree::leaf(2)});
    case GateKind::kOai21:
      MFT_CHECK(fanin == 3);
      // !((in0+in1)·in2): pulldown = (p0+p1) . p2
      return SpTree::series(
          {SpTree::parallel({SpTree::leaf(0), SpTree::leaf(1)}), SpTree::leaf(2)});
    default:
      break;
  }
  MFT_CHECK(false);
  return SpTree::leaf(0);  // unreachable
}

}  // namespace mft
