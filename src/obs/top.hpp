// `dcs top`: renders a cluster health view from a dcs-timeseries-v1 dump.
//
// Offline analysis only (like trace/inspect.hpp): load the dump a bench or
// CLI run wrote with --timeseries-out, and render per-node and per-layer
// activity tables plus the firing-alert list — the closest a deterministic
// simulator gets to a live `top` over the fleet.  `--self-check` validates
// the dump structure instead (schema id, (node, name) sort order, window
// ordering and ring bounds), the same contract the byte-identity CI
// assertions rely on.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace dcs::trace::inspect {
struct Json;
}

namespace dcs::obs {

struct TopOptions {
  /// Validate the dcs-timeseries-v1 structure and exit.
  bool self_check = false;
  /// Restrict tables to one node.
  std::optional<std::uint32_t> node;
  /// Windows of history the rate columns aggregate (0 = all retained).
  std::size_t windows = 8;
};

/// Runs one `dcs top` query over `file`.  Returns a process exit code:
/// 0 success, 1 failed self-check, 2 load/usage error.
int run_top(const std::string& file, const TopOptions& opts, std::ostream& out,
            std::ostream& err);

/// Replays a dcs-timeseries-v1 `alerts` array (null = none) and prints
/// "  HEADER (N transition(s)):" and then one FIRING line per (rule, node)
/// whose last transition fired, restricted to `node` when given.  `dcs
/// top` and `dcs explain` share it.
void print_firing_alerts(const trace::inspect::Json* alerts,
                         std::string_view header,
                         std::optional<std::uint32_t> node, std::ostream& out);

}  // namespace dcs::obs
