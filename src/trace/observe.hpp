// RAII scope for one observed run: installs the requested observability
// sinks (tracer, flight recorder) for the duration of a simulation and
// writes the requested files when the run ends.  Shared by the benches and
// the `dcs` scenario driver so every binary spells the flags the same way.
// Flag extraction itself lives in obs/flags.hpp
// (obs::extract_harness_flags), the single parser for all observability
// and telemetry flags.
#pragma once

#include <memory>
#include <string>

#include "trace/trace.hpp"

namespace dcs::trace {

class FlightRecorder;

/// Output destinations for one observed run.  Empty string = not requested.
struct ObserveOptions {
  std::string trace_out;          // Chrome trace_event JSON file
  std::string metrics_out;        // plain-text metrics dump file
  std::string critical_path_out;  // plain-text critical-path report
  std::string bench_json;         // single-run dcs-bench-v1 JSON snapshot
  std::string postmortem_dir;     // arm a FlightRecorder dumping here
  std::string bench_name = "dcs";  // "bench" field / postmortem prefix

  bool enabled() const {
    return !trace_out.empty() || !metrics_out.empty() ||
           !critical_path_out.empty() || !bench_json.empty() ||
           !postmortem_dir.empty();
  }
};

/// Observes one simulation run.  Construction resets the global metrics
/// registry (so the output stands alone), installs a tracer bound to `eng`
/// when a trace file was requested, and arms a FlightRecorder when a
/// post-mortem directory was requested.  Destruction uninstalls both and
/// writes the requested files; failures to open a file are reported on
/// stderr but never abort the run.
///
/// Declare it after the engine and before the workload:
///
///   sim::Engine eng;
///   trace::ObservedRun observed(eng, opts);
///   ... build topology, spawn, eng.run() ...
class ObservedRun {
 public:
  ObservedRun(sim::Engine& eng, ObserveOptions opts);
  ~ObservedRun();
  ObservedRun(const ObservedRun&) = delete;
  ObservedRun& operator=(const ObservedRun&) = delete;

 private:
  ObserveOptions opts_;
  Tracer tracer_;
  std::unique_ptr<FlightRecorder> flight_;
};

}  // namespace dcs::trace
