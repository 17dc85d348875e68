// The one observed run (docs/BENCHMARKS.md, docs/OBSERVABILITY.md).
//
// Every binary that runs a simulation — each bench and each `dcs` run
// command — declares named scenarios and runs them here.  Each scenario
// runs under a fresh engine with the metrics registry reset; when any
// observability flag is given a tracer records it, and `--postmortem-dir`
// arms a flight recorder around it.  A sharded scenario (run_sharded, as
// in bench_datacenter_scale) runs a sim::ShardedEngine instead: each of
// its partitions gets the same tracer and flight recorder in its own
// execution context, and the partitions' registries, traces and critical
// paths merge in partition order.  finish() writes every requested file
// once:
//
//   --bench-json        canonical dcs-bench-v1 snapshot of every scenario:
//                       metrics, latency percentiles, registry, critical path
//   --bench-wall-json   dcs-bench-wall-v1: wall-clock events/sec and
//                       ns/event of each scenario's engine runs, the
//                       coroutine frames they allocate, the host time spent
//                       around them (setup), and the peak RSS.
//                       Wall time varies run to run, so it never enters
//                       dcs-bench-v1.
//   --critical-path     plain-text attribution report per scenario
//   --metrics-out       plain-text registry dump per scenario
//   --trace-out         one Chrome trace; each scenario's nodes are their
//                       own processes, labelled with the scenario name
//                       (and "/p<k>" for partition k of a sharded one)
//   --timeseries-out    dcs-timeseries-v1 health document: the series
//                       store (scenario ordinal = node; a sharded
//                       scenario's partition index = node), its alerts,
//                       and the attribution sections: the DCS_HOT sketch
//                       (`hotset`) and the tail exemplars (`exemplars`)
//   --slo               rules evaluated against that store (per sweep, in
//                       a sharded scenario's partitions); alerts to stderr
//
// Output is byte-deterministic for same-seed runs: scenarios appear in run
// order, maps in sorted order, and every number prints with fixed
// precision.  Flags are read by obs::harness_flags (flags.hpp) through the
// one argument reader (common/args.hpp).  Every bench main has one shape:
// each paper-table cell is one scenario, the table prints from the metrics
// run() returns, and any argument the bench does not know exits 2 (see
// bench_sdp.cpp):
//
//   int main(int argc, char** argv) {
//     obs::Harness h("sdp", Args(argc, argv));
//     const auto m = h.run("stream/SDP/4K", [](obs::Scenario& s) { ... });
//     print_row(m.at("MB_per_s"));
//     return h.finish();
//   }
#pragma once

#include <array>
#include <functional>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "obs/flags.hpp"
#include "obs/heavy.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/engine.hpp"
#include "sim/shard.hpp"
#include "trace/exemplar.hpp"
#include "trace/trace.hpp"

namespace dcs::trace {
class CriticalPath;
}  // namespace dcs::trace

namespace dcs::obs {

/// Verbs batch depths the batched DDSS sweeps run (`batch=N` scenarios).
inline constexpr std::array<std::size_t, 4> kBatchDepths{1, 2, 4, 8};

/// One scenario run: the engine to drive plus sinks for results.
class Scenario {
 public:
  explicit Scenario(sim::Engine& eng) : eng_(eng) {}
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

class Harness;

/// The report side of a sharded scenario (Harness::run_sharded): the
/// finished run, every partition's registry already collected, plus sinks
/// for what the bench merged across partitions in partition order.  The
/// harness traces and flight-records each partition itself; the health
/// plane, with its attribution slices, is the bench's own, kept per
/// partition and handed over here.  The slices stay explicit so that the
/// document holds what the bench pins: the ambient DCS_HOT sites of every
/// DDSS, verbs and N-CoSED op would add domains to its `hotset` section.
class ShardedScenario {
 public:
  ShardedScenario(Harness& harness, sim::ShardedEngine& eng)
      : harness_(harness), eng_(eng) {}
  ShardedScenario(const ShardedScenario&) = delete;
  ShardedScenario& operator=(const ShardedScenario&) = delete;

  sim::ShardedEngine& engine() { return eng_; }
  /// Records a scalar result, as Scenario::metric.
  void metric(const std::string& name, double value) {
    metrics_[name] = value;
  }
  /// Hands over one partition's health plane: a time-series store keyed
  /// by partition index, its alert stream (the partitions evaluated
  /// Harness::slo_rules() per sweep, so finish() evaluates none itself),
  /// its hot-key sketch and its exemplars.  --timeseries-out writes them
  /// all in one document and the alerts print on stderr.  The first store
  /// handed over sets the document's window.
  void health(const TimeSeriesStore& store,
              const std::vector<AlertEvent>& alerts, const HeavyHitters& hot,
              const trace::ExemplarStore& exemplars);

 private:
  friend class Harness;
  Harness& harness_;
  sim::ShardedEngine& eng_;
  std::map<std::string, double> metrics_;
};

/// Runs scenarios and writes the requested files.
class Harness {
 public:
  /// Reads the `--slo` rule file up front: a missing or malformed file
  /// exits 2 naming it before any scenario runs.
  Harness(std::string bench, HarnessOptions opts);
  /// Reads the flags with harness_flags(), which rejects every argument
  /// the binary has not read before.
  Harness(std::string bench, const Args& args)
      : Harness(std::move(bench), harness_flags(args)) {}

  /// Runs `body` under a fresh engine and reset registry, then snapshots
  /// the results and returns the metrics it recorded (what a bench prints
  /// its tables from).  Scenarios run in call order.  With
  /// --timeseries-out / --slo the scenario's final registry ingests into
  /// the time-series store, with the scenario ordinal standing in as the
  /// node id.
  std::map<std::string, double> run(
      const std::string& scenario,
      const std::function<void(Scenario&)>& body);

  /// Runs a sharded scenario: builds the engine from `spec` on the calling
  /// thread under a reset registry, arms each partition's tracer and
  /// flight recorder (as run() arms a scenario's) in the partition's
  /// context, runs `setup` once per partition there, then run().  A
  /// partition's setup reaches its recorder with
  /// trace::FlightRecorder::current().  `wall_ns` times run() alone;
  /// everything else (build, setup, registry collection, `report`,
  /// teardown) is `setup_ns`.  `report` runs before teardown, so it can
  /// read the engine and the partitions' results; the snapshot then
  /// proceeds as in run(), except that the registry is not ingested into
  /// the time-series store, whose node ids are the partitions'
  /// (ShardedScenario::health), and that no exemplar is taken from the
  /// traces (the partitions hand theirs over with the health plane).
  /// Returns the metrics `report` recorded.
  std::map<std::string, double> run_sharded(
      const std::string& scenario, const sim::ShardedEngine::Spec& spec,
      const std::function<void(sim::Shard&)>& setup,
      const std::function<void(ShardedScenario&)>& report);

  /// The parsed --slo rules, for a sharded bench to evaluate inside its
  /// partitions' health planes (ShardedScenario::health).
  const std::vector<SloRule>& slo_rules() const { return slo_rules_; }

  /// Writes the requested files.  Returns a process exit code: 1 when a
  /// file or a post-mortem dump could not be written, else 0.
  int finish();

 private:
  struct Snapshot {
    std::string name;
    SimNanos virtual_ns = 0;
    // Wall-clock telemetry, written only to the `.wall.json` sibling.
    std::uint64_t events = 0;    // engine events dispatched by the scenario
    std::uint64_t frames = 0;    // coroutine frames allocated inside runs
    double setup_ns = 0;         // host time in the body outside runs
    double wall_ns = 0;          // host time inside engine runs
    std::size_t batch = 0;       // verbs batch depth (0 = not batched)
    double zipf_alpha = -1.0;    // workload Zipf skew (negative = none)
    std::map<std::string, double> metrics;
    // Latency percentiles (ns); count == 0 when the scenario recorded none.
    std::size_t latency_count = 0;
    double latency_mean = 0, p0 = 0, p50 = 0, p99 = 0, p100 = 0;
    std::string registry_json;         // pre-rendered registry object
    std::string registry_text;         // registry dump, with --metrics-out
    std::string critical_path_json;    // aggregate breakdown, or empty
    std::string critical_path_report;  // report, with --critical-path
  };

  friend class ShardedScenario;

  /// Adds the current registry to `snap`, stores it and returns its
  /// metrics.
  std::map<std::string, double> record(Snapshot snap);
  /// Fills `snap`'s critical-path block and, with --critical-path, its
  /// report.
  void critical_path(const trace::CriticalPath& cp, Snapshot& snap);
  void write_bench_json(std::ostream& os) const;
  void write_wall_json(std::ostream& os) const;

  std::string bench_;
  HarnessOptions opts_;
  std::vector<SloRule> slo_rules_;
  std::vector<Snapshot> snapshots_;
  TimeSeriesStore store_;
  std::vector<AlertEvent> alerts_;  // handed over by sharded scenarios
  bool rules_evaluated_ = false;    // ... whose partitions ran slo_rules_
  /// --trace-out streams scenario by scenario, so it is open from the
  /// start; the other files are written whole by finish().
  std::ofstream trace_file_;
  std::unique_ptr<trace::ChromeTrace> trace_;
  /// Attribution sinks, fed across scenarios under --timeseries-out: the
  /// hot sink is installed in the caller's execution context around each
  /// body; exemplars ingest from the tracer's per-request critical paths
  /// after each scenario.  Sharded scenarios hand theirs over instead
  /// (ShardedScenario::health).
  HeavyHitters hot_;
  trace::ExemplarStore exemplars_;
  std::uint64_t lost_dumps_ = 0;  // post-mortems no recorder could write
};

}  // namespace dcs::obs
