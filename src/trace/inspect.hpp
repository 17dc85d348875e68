// Offline query tool over post-mortem dumps and trace JSON (`dcs inspect`).
//
// Loads either a `dcs-postmortem-v1` dump (trace/flight.hpp) or a Chrome
// trace_event JSON file (trace/trace.hpp) — the format is auto-detected —
// and answers the questions a wedged run raises: what happened on node N,
// in layer L, in this time window; what is the cross-node timeline of one
// request; which requests are slowest; what changed between two dumps.
// Everything is plain read-only file analysis; no engine is involved.
//
// The JSON reader is a minimal recursive-descent parser, deliberately
// dependency-free: it understands exactly the subset our writers emit
// (objects, arrays, strings with \" and \\ escapes, numbers, bools, null)
// plus standard escape sequences for robustness against hand-edited files.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace dcs::trace::inspect {

/// Parsed JSON value.  Object fields keep source order (our writers sort
/// deterministically, so order is meaningful for byte-stable output).
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string raw;  // number lexeme, for exact integer round-trips
  std::string str;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* find(std::string_view key) const;
  double num_or(double fallback) const;
  std::uint64_t u64_or(std::uint64_t fallback) const;
  std::string str_or(std::string fallback) const;
};

/// Throws std::runtime_error with an offset on malformed input.
Json parse_json(std::string_view text);

/// Reads and parses the file at `path`.  Throws std::runtime_error saying
/// "cannot open PATH" or "PATH: <parse error>".
Json parse_json_file(const std::string& path);

/// One normalized record (a flight-ring record or a trace event).
struct Entry {
  SimNanos time = 0;
  SimNanos dur = 0;  // 0 for instants/logs
  std::uint32_t node = 0;
  std::uint64_t request = 0;
  std::string layer;
  std::string op;
  char kind = 'L';  // 'L' log, 'i' instant, 'S'/'X' span, 'R' request, 'V'
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
};

/// One request: from the dump's in-flight table, or reconstructed from a
/// trace's phase-'R' events (then `age_ns` is the completed duration).
struct RequestRow {
  std::uint64_t request = 0;
  std::string name;
  std::uint32_t node = 0;
  std::uint64_t id = 0;
  SimNanos start_ns = 0;
  SimNanos age_ns = 0;
  SimNanos last_activity_ns = 0;
  bool in_flight = false;
  std::vector<std::pair<std::string, SimNanos>> cost_ns;  // partial c.p.
};

/// A loaded file, normalized for querying.
struct Document {
  enum class Kind { kPostmortem, kTrace };
  Kind kind = Kind::kPostmortem;
  std::string path;
  Json root;
  std::string reason;   // postmortem only
  std::string detail;   // postmortem only
  SimNanos now_ns = 0;  // dump time / last event end
  std::vector<Entry> entries;       // ascending (time, node)
  std::vector<RequestRow> requests;
};

/// Reads and normalizes `path`; throws std::runtime_error on unreadable,
/// malformed, or unrecognized input.
Document load(const std::string& path);

struct Options {
  std::optional<std::uint32_t> node;
  std::string layer;
  std::optional<std::uint64_t> request;
  std::optional<SimNanos> from_ns;
  std::optional<SimNanos> to_ns;
  /// Reconstruct one request's cross-node timeline.
  std::optional<std::uint64_t> timeline;
  /// Show the N slowest requests.
  std::size_t top = 0;
  /// Second file to diff against.
  std::string diff_path;
  /// Validate the dcs-postmortem-v1 structure and exit.
  bool self_check = false;
};

/// Runs one inspect query over `file`.  Returns a process exit code:
/// 0 success, 1 failed self-check, 2 load/usage error.
int run(const std::string& file, const Options& opts, std::ostream& out,
        std::ostream& err);

}  // namespace dcs::trace::inspect
