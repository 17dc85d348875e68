// The one observed run (docs/BENCHMARKS.md, docs/OBSERVABILITY.md).
//
// Every binary that runs a simulation — each bench and each `dcs` run
// command — declares named scenarios and runs them here.  Each scenario
// runs under a fresh engine with the metrics registry reset; when any
// observability flag is given a tracer records it, and `--postmortem-dir`
// arms a flight recorder around it.  A sharded scenario (run_sharded, as
// in bench_datacenter_scale) runs a sim::ShardedEngine instead and hands
// over what its partitions merged.  finish() writes every requested file
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
//   --timeseries-out    dcs-timeseries-v1 store (scenario ordinal = node;
//                       a sharded scenario's partition index = node)
//   --slo               rules evaluated against that store (per sweep, in
//                       a sharded scenario's partitions); alerts to stderr
//   --hotset-out, --exemplars-out, --hot-keys   DCS_HOT / exemplar sinks
//
// Output is byte-deterministic for same-seed runs: scenarios appear in run
// order, maps in sorted order, and every number prints with fixed
// precision.  Flags are parsed by obs::extract_harness_flags (flags.hpp).
// Every bench main has one shape: each paper-table cell is one scenario,
// the table prints from the metrics run() returns, and any argument the
// bench does not know exits 2 (see bench_sdp.cpp):
//
//   int main(int argc, char** argv) {
//     const auto opts = obs::extract_harness_flags(argc, argv);
//     obs::reject_unknown_args(argc, argv);
//     obs::Harness h("sdp", opts);
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
/// finished run, every worker's registry already collected, plus sinks for
/// what the bench merged across partitions in partition order.  Per-engine
/// sinks (tracer, flight recorder, ambient hot sink) would see only the
/// caller's partitions, so a sharded bench feeds its own per-partition
/// planes and hands the merged result over here.
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
  /// Hands over the health plane: a time-series store keyed by partition
  /// index, its alert stream (the partitions evaluated Harness::slo_rules()
  /// per sweep, so finish() evaluates none itself) and the post-mortems its
  /// flight recorders could not write (they fail finish()).
  /// --timeseries-out writes the store and the alerts print on stderr.
  /// The first store handed over sets the dump's window.
  void health(const TimeSeriesStore& store,
              const std::vector<AlertEvent>& alerts, std::uint64_t lost_dumps);
  /// Hands over the hot-key sketch and exemplars (--hotset-out,
  /// --exemplars-out, --hot-keys).
  void attribution(const HeavyHitters& hot,
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
  /// thread under a reset registry, runs `setup` once per partition, then
  /// run().  `wall_ns` times run() alone; everything else (build, setup,
  /// registry collection, `report`, teardown) is `setup_ns`.  `report`
  /// runs before teardown, so it can read the engine and the partitions'
  /// results; the snapshot then proceeds as in run(), except that the
  /// registry is not ingested into the time-series store, whose node ids
  /// are the partitions' (ShardedScenario::health).  Returns the metrics
  /// `report` recorded.
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
  /// Attribution sinks, fed across scenarios: the hot sink is installed in
  /// the caller's execution context around each body; exemplars ingest
  /// from the tracer's per-request critical paths after each scenario.
  /// Sharded scenarios hand theirs over instead
  /// (ShardedScenario::attribution).
  HeavyHitters hot_;
  trace::ExemplarStore exemplars_;
  std::uint64_t lost_dumps_ = 0;  // post-mortems no recorder could write
};

}  // namespace dcs::obs
