// `dcs explain`: attribution report over a breach — which rules fired,
// which objects/locks/nodes were hot, which concrete requests sat in the
// tail and where they spent their time.
//
// Offline analysis only, like `dcs top` (obs/top.hpp): the input is the
// byte-stable health document a bench run wrote with --timeseries-out
// (dcs-timeseries-v1, whose `hotset` and `exemplars` sections hold the
// attribution), and optionally a dcs-postmortem-v1 dump.  The report is
// deterministic: firing/arming state first, then per-domain top-K hot-key
// tables, then the slowest exemplar buckets with each exemplar request's
// six-category critical-path split.  `--self-check` validates the
// structure of the document's two sections instead (schema ids, sort
// orders, sketch and bucket invariants).
#pragma once

#include <iosfwd>
#include <string>

namespace dcs::obs {

struct ExplainOptions {
  /// Validate every provided dump's structure and exit.
  bool self_check = false;
  /// Optional dcs-postmortem-v1 dump (capture arm/disarm section).
  std::string postmortem;
  /// Rows per hot-key table and exemplar buckets per series.
  std::size_t top = 5;
};

/// Runs one `dcs explain` query over the health document `file`.
/// Returns a process exit code: 0 success, 1 failed self-check, 2
/// load/usage error.
int run_explain(const std::string& file, const ExplainOptions& opts,
                std::ostream& out, std::ostream& err);

}  // namespace dcs::obs
