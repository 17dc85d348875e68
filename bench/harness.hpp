// Unified benchmark telemetry harness (docs/BENCHMARKS.md).
//
// A harnessed bench declares named scenarios; each runs under a fresh
// engine with the global metrics registry reset and a tracer installed, so
// the harness can snapshot everything a perf trajectory needs — scenario
// metrics, latency percentiles, the registry, and the critical-path
// attribution — into one canonical `BENCH_<name>.json`.  Output is
// byte-deterministic for same-seed runs: scenarios appear in run order,
// maps in sorted order, and every number prints with fixed precision.
//
// `--bench-wall-json` additionally writes a sibling `BENCH_<name>.wall.json`
// (schema `dcs-bench-wall-v1`) with wall-clock events/sec and ns/event per
// scenario.  Wall time varies run to run and machine to machine, so it is
// kept strictly out of the byte-stable dcs-bench-v1 files and out of the
// CI byte-identity assertion (docs/BENCHMARKS.md).
//
// Flags are parsed by obs::extract_harness_flags (obs/flags.hpp).  Every
// bench main has one shape: paper tables by default, harness scenarios
// when harness flags are given, and exit 2 on any argument it does not
// know (see bench_sdp.cpp):
//
//   int main(int argc, char** argv) {
//     const auto opts = obs::extract_harness_flags(argc, argv);
//     obs::reject_unknown_args(argc, argv);
//     if (opts.harness_mode()) {
//       bench::Harness h("sdp", opts);
//       h.run("buffered_copy/64K", [](bench::Scenario& s) { ... });
//       return h.finish();
//     }
//     if (opts.observe_mode()) { ... trace::ObservedRun path ... }
//     print_table();
//   }
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/flags.hpp"
#include "obs/heavy.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/engine.hpp"
#include "trace/critical_path.hpp"
#include "trace/exemplar.hpp"
#include "trace/trace.hpp"

namespace dcs::bench {

/// Batch depths a bench sweeps for `--batch max` (powers of two up to and
/// including `max`); `max == 0` yields the default sweep {1, 2, 4, 8}.
std::vector<std::size_t> batch_sweep(std::size_t max);

/// One scenario run: the engine to drive plus sinks for results.
class Scenario {
 public:
  Scenario(sim::Engine& eng) : eng_(eng) {}
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  sim::Engine& engine() { return eng_; }
  /// Records a scalar result (throughput, ratio, error, ...).
  void metric(const std::string& name, double value) {
    metrics_[name] = value;
  }
  /// Records one end-to-end latency sample in nanoseconds.
  void latency_ns(double ns) { latency_.add(ns); }
  /// Tags the scenario with the verbs batch depth it ran at; written as the
  /// "batch" field of the wall JSON (0 = not a batched scenario).
  void batch_depth(std::size_t n) { batch_depth_ = n; }
  /// Tags the scenario with its workload's Zipf skew; written as the
  /// "zipf_alpha" field of the wall JSON so hot-key tables are
  /// interpretable (negative = no Zipf workload).
  void zipf_alpha(double alpha) { zipf_alpha_ = alpha; }

 private:
  friend class Harness;
  sim::Engine& eng_;
  std::map<std::string, double> metrics_;
  LatencySamples latency_;
  std::size_t batch_depth_ = 0;
  double zipf_alpha_ = -1.0;
};

/// Collects scenario snapshots and writes the canonical JSON.
class Harness {
 public:
  Harness(std::string bench, obs::HarnessOptions opts);

  /// Runs `body` under a fresh engine, reset registry, and installed
  /// tracer, then snapshots the results.  Scenarios run in call order.
  /// When --timeseries-out / --slo is set, the scenario's final registry
  /// additionally ingests into the cluster time-series store, with the
  /// scenario ordinal standing in as the node id.
  void run(const std::string& scenario,
           const std::function<void(Scenario&)>& body);

  /// Writes the requested files.  Returns a process exit code (non-zero
  /// when a file could not be written).
  int finish();

 private:
  struct Snapshot {
    std::string name;
    SimNanos virtual_ns = 0;
    // Wall-clock telemetry (docs/BENCHMARKS.md).  Written only to the
    // `.wall.json` sibling: wall time is machine-dependent, so it must
    // never leak into the byte-stable dcs-bench-v1 output.
    std::uint64_t events = 0;    // engine events dispatched by the scenario
    double wall_ns = 0;          // host time spent inside the body
    std::size_t batch = 0;       // verbs batch depth (0 = not batched)
    double zipf_alpha = -1.0;    // workload Zipf skew (negative = none)
    std::map<std::string, double> metrics;
    // Latency percentiles (ns); count == 0 when the scenario recorded none.
    std::size_t latency_count = 0;
    double latency_mean = 0, p0 = 0, p50 = 0, p99 = 0, p100 = 0;
    std::string registry_json;       // pre-rendered registry object
    std::string critical_path_json;  // aggregate breakdown object, or empty
    std::string critical_path_report;  // plain-text report
  };

  std::string bench_;
  obs::HarnessOptions opts_;
  std::vector<Snapshot> snapshots_;
  obs::TimeSeriesStore store_;
  /// Attribution sinks, fed across scenarios: the hot sink is installed
  /// thread-locally around each body; exemplars ingest from the tracer's
  /// per-request critical paths after each scenario.
  obs::HeavyHitters hot_;
  trace::ExemplarStore exemplars_;
};

}  // namespace dcs::bench
