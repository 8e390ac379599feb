// JSON string escaping shared by the batch-JSON writer and the daemon.
#pragma once

#include <cstdio>
#include <string>

namespace mft {

/// Appends `s` to `dst` as the body of a JSON string literal: quotes and
/// backslashes escaped, control bytes as \n, \t or \u00XX.
inline void json_escape(std::string& dst, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      dst.push_back('\\');
      dst.push_back(c);
    } else if (c == '\n') {
      dst += "\\n";
    } else if (c == '\t') {
      dst += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      dst += buf;
    } else {
      dst.push_back(c);
    }
  }
}

}  // namespace mft
