// Command-line flag parsing shared by every binary: the bench mains, the
// `dcs` tool and the tests all parse observability flags and numeric
// arguments here, in exactly one place.
//
// Malformed input never escapes as an exception or a wrapped unsigned
// number: the *_flag helpers and extract_harness_flags print a message
// naming the flag on stderr and exit with status 2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "trace/observe.hpp"

namespace dcs::obs {

/// Every observability/telemetry flag the repo's binaries accept.  Empty
/// string = not requested.
///
/// Harness flags (multi-scenario dcs-bench-v1 telemetry, bench/harness.hpp):
///   --bench-json FILE       canonical BENCH_<name>.json
///   --bench-wall-json FILE  wall-clock BENCH_<name>.wall.json
///   --critical-path FILE    plain-text attribution report
///   --timeseries-out FILE   dcs-timeseries-v1 cluster time-series dump
///   --slo FILE              SLO rule file evaluated against the dump
///   --exemplars-out FILE    dcs-exemplar-v1 tail-exemplar dump
///   --hotset-out FILE       dcs-hotset-v1 hot-key sketch dump
///   --hot-keys N            print the top-N hot-key table per domain
///   --batch N               maximum verbs batch depth to sweep
/// Single-run observation flags (trace::ObservedRun):
///   --trace-out FILE        Chrome trace_event JSON
///   --metrics-out FILE      metrics registry dump
///   --postmortem-dir DIR    arm a flight recorder dumping here
///
/// `--postmortem-dir` applies to both modes: in harness mode every
/// scenario runs with an armed trace::FlightRecorder, in observed mode the
/// whole run does.
struct HarnessOptions {
  std::string bench_json;     // canonical BENCH_<name>.json
  std::string wall_json;      // wall-clock BENCH_<name>.wall.json
  std::string critical_path;  // plain-text attribution report
  std::string timeseries_out; // dcs-timeseries-v1 dump (obs/timeseries.hpp)
  std::string slo_rules;      // SLO rule file (obs/slo.hpp syntax)
  std::string exemplars_out;  // dcs-exemplar-v1 dump (trace/exemplar.hpp)
  std::string hotset_out;     // dcs-hotset-v1 dump (obs/heavy.hpp)
  std::string trace_out;      // Chrome trace_event JSON file
  std::string metrics_out;    // plain-text metrics dump file
  std::string postmortem_dir; // flight-recorder dump directory
  /// --batch N: maximum batch depth for benches that sweep the batched
  /// verbs data path (0 = the bench's default sweep).  Benches record the
  /// depth per scenario via Scenario::batch_depth; it lands as a "batch"
  /// field in the wall JSON so batch depth is a first-class bench axis.
  std::size_t batch = 0;
  /// --hot-keys N: print the top-N entries of every DCS_HOT domain after
  /// the run (0 = no table).  Independent of --hotset-out.
  std::size_t hot_keys = 0;

  /// Multi-scenario telemetry requested (run the bench::Harness path).
  bool harness_mode() const {
    return !bench_json.empty() || !wall_json.empty() ||
           !critical_path.empty() || !timeseries_out.empty() ||
           attribution_mode();
  }
  /// Hot-key / exemplar attribution requested (a HeavyHitters sink is
  /// installed around every scenario and exemplars are retained).
  bool attribution_mode() const {
    return !exemplars_out.empty() || !hotset_out.empty() || hot_keys > 0;
  }
  /// Single-run observation requested (run the trace::ObservedRun path).
  bool observe_mode() const {
    return !trace_out.empty() || !metrics_out.empty() ||
           !postmortem_dir.empty();
  }
  /// The single-run observation subset, for trace::ObservedRun.  The
  /// critical-path/bench-json sinks ride along so a binary with no
  /// harness path (the `dcs` CLI) still honors them.
  trace::ObserveOptions observe(const std::string& bench_name) const {
    return {.trace_out = trace_out,
            .metrics_out = metrics_out,
            .critical_path_out = critical_path,
            .bench_json = bench_json,
            .postmortem_dir = postmortem_dir,
            .bench_name = bench_name};
  }
};

/// A non-negative decimal integer that fits in 64 bits; nullopt for
/// anything else (empty, signed, trailing characters, overflow).
std::optional<std::uint64_t> parse_count(std::string_view text);

/// A finite decimal real; nullopt for anything else.
std::optional<double> parse_real(std::string_view text);

/// parse_count / parse_real of `flag`'s value, exiting 2 with a message
/// naming the flag when the value is malformed (or, for a count, above
/// `max`, so that a caller storing it in a narrower type never wraps).
std::uint64_t count_flag(std::string_view flag, std::string_view text,
                         std::uint64_t max = UINT64_MAX);
double real_flag(std::string_view flag, std::string_view text);

/// Removes the flags above (each as `--flag value`) from argv, shifting
/// later arguments down and decrementing argc, and returns their values.
/// Exits 2 on a malformed --batch / --hot-keys value.
HarnessOptions extract_harness_flags(int& argc, char** argv);

/// Exits 2 naming argv[1] when any argument is left in argv[1..argc):
/// call once every flag a binary knows has been removed.
void reject_unknown_args(int argc, char** argv);

}  // namespace dcs::obs
