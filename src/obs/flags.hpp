// The observability flags every binary that runs a simulation accepts:
// each bench main and each `dcs` run command.  They are read through the
// one argument reader (common/args.hpp), whose grammar is the same in
// every binary: `--flag value` or `--flag=value`, the last occurrence
// wins, and anything no getter read exits 2 naming it.
#pragma once

#include <string>

#include "common/args.hpp"

namespace dcs::obs {

/// Every observability/telemetry flag the repo's binaries accept, each
/// honoured by obs::Harness (obs/harness.hpp).  Empty string = not
/// requested.
///   --bench-json FILE       canonical BENCH_<name>.json
///   --bench-wall-json FILE  wall-clock BENCH_<name>.wall.json
///   --critical-path FILE    plain-text attribution report
///   --metrics-out FILE      metrics registry dump
///   --trace-out FILE        Chrome trace_event JSON
///   --timeseries-out FILE   dcs-timeseries-v1 health document: the
///                           cluster time-series, the alerts, the hot-key
///                           tables and the tail exemplars
///   --slo FILE              SLO rule file evaluated against the series
///   --postmortem-dir DIR    arm a flight recorder around every scenario
struct HarnessOptions {
  std::string bench_json;     // canonical BENCH_<name>.json
  std::string wall_json;      // wall-clock BENCH_<name>.wall.json
  std::string critical_path;  // plain-text attribution report
  std::string timeseries_out; // dcs-timeseries-v1 dump (obs/timeseries.hpp)
  std::string slo_rules;      // SLO rule file (obs/slo.hpp syntax)
  std::string trace_out;      // Chrome trace_event JSON file
  std::string metrics_out;    // plain-text metrics dump file
  std::string postmortem_dir; // flight-recorder dump directory

  /// Any observability flag given: the harness installs a tracer around
  /// every scenario.
  bool observed() const {
    return !bench_json.empty() || !wall_json.empty() ||
           !critical_path.empty() || !metrics_out.empty() ||
           !trace_out.empty() || !timeseries_out.empty() ||
           !slo_rules.empty() || !postmortem_dir.empty();
  }
};

/// Reads every flag above from `args` (both `--flag value` and
/// `--flag=value`), then rejects what no getter read (Args::reject_unread):
/// a binary with flags of its own reads them first.
HarnessOptions harness_flags(const Args& args);

}  // namespace dcs::obs
