// The two primitives every writer shares: JSON string escaping (traces,
// flight-recorder post-mortems, flame profiles, lint reports) and
// fixed-precision numbers (table cells and every byte-stable dump).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace dcs {

/// Escapes `s` for use between the quotes of a JSON string: `"` and `\`
/// are backslash-escaped, newline and tab get their short escapes, and every
/// other control character becomes `\u00XX`.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// `v` with exactly `precision` decimals (`printf("%.*f")`), so a dump or
/// table cell reads the same on every run and every machine.
inline std::string fmt_fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace dcs
