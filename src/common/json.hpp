// JSON string escaping shared by every dump writer (traces, flight-recorder
// post-mortems, flame profiles, lint reports).
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

}  // namespace dcs
