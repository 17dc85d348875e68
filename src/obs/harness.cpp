#include "obs/harness.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/json.hpp"
#include "sim/context.hpp"
#include "trace/critical_path.hpp"
#include "trace/flight.hpp"
#include "trace/hot.hpp"
#include "trace/shard_metrics.hpp"

namespace dcs::obs {

namespace {

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

/// Scenario names embed '/' separators; dump prefixes become file names.
std::string sanitize(std::string name) {
  for (char& c : name) {
    if (c == '/' || c == ' ') c = '_';
  }
  return name;
}

/// Peak resident set size of this process so far, in MB; the top-level
/// "peak_rss_mb" of the wall JSON.  Reads VmHWM from /proc/self/status,
/// which belongs to this address space: getrusage's ru_maxrss is carried
/// across exec, so it never reads below the RSS of the process that
/// spawned this one.  Falls back to ru_maxrss where /proc is unreadable.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (kb < 0 && std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) != 1) kb = -1;
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

/// Flushes `os`, the dump file at `path`, and reports "bench: WHAT -> PATH"
/// on stderr, or "bench: cannot write PATH" when the file could not be
/// opened or written.  Returns false on that failure.
bool report_dump(std::ostream& os, const std::string& path,
                 const std::string& what) {
  if (!os.flush()) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "bench: %s -> %s\n", what.c_str(), path.c_str());
  return true;
}

/// Writes one dump file: opens `path`, lets `write` fill it, and reports
/// it (report_dump).  An empty `path` was not requested: nothing is
/// written and the call succeeds.
bool write_dump(const std::string& path, const std::string& what,
                const std::function<void(std::ostream&)>& write) {
  if (path.empty()) return true;
  std::ofstream os(path);
  if (os) write(os);
  return report_dump(os, path, what);
}

}  // namespace

Harness::Harness(std::string bench, HarnessOptions opts)
    : bench_(std::move(bench)), opts_(std::move(opts)) {
  if (!opts_.slo_rules.empty()) {
    std::string error;
    slo_rules_ = parse_slo_rules_file(opts_.slo_rules, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "bench: %s\n", error.c_str());
      std::exit(2);
    }
  }
  if (!opts_.trace_out.empty()) {
    trace_file_.open(opts_.trace_out);
    trace_ = std::make_unique<trace::ChromeTrace>(trace_file_);
  }
}

std::map<std::string, double> Harness::run(
    const std::string& scenario, const std::function<void(Scenario&)>& body) {
  sim::Engine eng;
  trace::Tracer tracer(eng);
  // Declared after the engine/tracer so it uninstalls first: a wedged
  // scenario's post-mortem must capture ring context before teardown.
  std::unique_ptr<trace::FlightRecorder> flight;
  trace::Registry::global().reset();
  if (opts_.observed()) tracer.install();
  if (!opts_.postmortem_dir.empty()) {
    flight = std::make_unique<trace::FlightRecorder>(
        eng, trace::FlightConfig{.postmortem_dir = opts_.postmortem_dir,
                                 .prefix = bench_ + "." + sanitize(scenario)});
    flight->install();
  }
  eng.time_host_runs(true);
  Scenario ctx(eng);
  // dcs-lint: allow(R1, host wall time only feeds the dcs-bench-wall-v1
  // report, which is outside the byte-stability contract; no sim-visible
  // state reads this clock)
  const auto wall_start = std::chrono::steady_clock::now();
  {
    // DCS_HOT sites in ddss/dlm/verbs feed the shared sketch while the
    // body runs; without attribution the sites stay one disarmed branch.
    trace::ScopedHotSink hot_sink(opts_.attribution_mode() ? &hot_ : nullptr);
    body(ctx);
  }
  // dcs-lint: allow(R1, end of the wall-time window opened above)
  const auto wall_end = std::chrono::steady_clock::now();
  if (flight != nullptr) {
    flight->uninstall();
    lost_dumps_ += flight->lost_dumps();
  }
  tracer.uninstall();

  Snapshot snap;
  snap.name = scenario;
  snap.virtual_ns = eng.now();
  snap.events = eng.events_dispatched();
  snap.frames = eng.host_run_frames();
  snap.wall_ns = static_cast<double>(eng.host_run_ns());
  snap.setup_ns = static_cast<double>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          wall_end - wall_start)
                          .count()) -
                  snap.wall_ns;
  snap.batch = ctx.batch_depth_;
  snap.zipf_alpha = ctx.zipf_alpha_;
  snap.metrics = std::move(ctx.metrics_);
  snap.latency_count = ctx.latency_.count();
  if (snap.latency_count > 0) {
    snap.latency_mean = ctx.latency_.mean();
    snap.p0 = ctx.latency_.percentile(0.0);
    snap.p50 = ctx.latency_.percentile(50.0);
    snap.p99 = ctx.latency_.percentile(99.0);
    snap.p100 = ctx.latency_.percentile(100.0);
  }
  if (trace_ != nullptr) trace_->add(tracer, scenario);
  const trace::CriticalPath cp(tracer);
  if (opts_.attribution_mode()) {
    // Every traced request becomes an exemplar candidate: the scenario
    // ordinal stands in as the node id (as in the time-series ingest) and
    // the request name keys the series.
    for (const trace::Breakdown& bd : cp.requests()) {
      exemplars_.record(static_cast<std::uint32_t>(snapshots_.size()),
                        bd.name, bd.total, bd.request, bd.by_cost);
    }
  }
  critical_path(cp, snap);
  if (!opts_.timeseries_out.empty() || !opts_.slo_rules.empty()) {
    // Scenario ordinal as node id: each scenario is "one node" of the
    // bench's cluster dump, so per-scenario history stays disjoint.
    store_.ingest_registry(static_cast<std::uint32_t>(snapshots_.size()),
                           snap.virtual_ns, trace::Registry::global());
  }
  return record(std::move(snap));
}

std::map<std::string, double> Harness::run_sharded(
    const std::string& scenario, const sim::ShardedEngine::Spec& spec,
    const std::function<void(sim::Shard&)>& setup,
    const std::function<void(ShardedScenario&)>& report) {
  // dcs-lint: allow(R1, host wall time only feeds the dcs-bench-wall-v1
  // report, which is outside the byte-stability contract; no sim-visible
  // state reads this clock)
  using Clock = std::chrono::steady_clock;
  const auto ns_since = [](Clock::time_point from) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             from)
            .count());
  };
  // The partitions' registries are collected into this one: reset, it
  // holds this run's metrics alone.
  trace::Registry::global().reset();
  const auto start = Clock::now();
  // What run() arms around a scenario, armed in each partition's own
  // context before its setup: a tracer when the run is observed, a flight
  // recorder under --postmortem-dir.  Both outlive the engine.
  std::vector<std::unique_ptr<trace::Tracer>> tracers(spec.partitions);
  std::vector<std::unique_ptr<trace::FlightRecorder>> flights(spec.partitions);
  std::map<std::string, double> metrics;
  {
    sim::ShardedEngine sharded(spec);
    sharded.setup([&](sim::Shard& shard) {
      const std::uint32_t p = shard.index();
      if (opts_.observed()) {
        tracers[p] = std::make_unique<trace::Tracer>(shard.engine());
        tracers[p]->install();
      }
      if (!opts_.postmortem_dir.empty()) {
        flights[p] = std::make_unique<trace::FlightRecorder>(
            shard.engine(),
            trace::FlightConfig{.postmortem_dir = opts_.postmortem_dir,
                                .prefix = bench_ + ".p" + std::to_string(p)});
        flights[p]->install();
      }
      setup(shard);
    });
    Snapshot snap;
    snap.name = scenario;
    // Run-phase frames: each partition context's slab allocations across
    // run().
    std::vector<std::uint64_t> frames(sharded.partitions());
    sharded.for_each_partition([&frames](std::uint32_t p) {
      frames[p] = sim::context().slab().stats().allocs;
    });
    const auto run_start = Clock::now();
    sharded.run();
    snap.wall_ns = ns_since(run_start);
    sharded.for_each_partition([&](std::uint32_t p) {
      frames[p] = sim::context().slab().stats().allocs - frames[p];
      if (flights[p] != nullptr) flights[p]->uninstall();
      if (tracers[p] != nullptr) tracers[p]->uninstall();
    });
    for (const std::uint64_t f : frames) snap.frames += f;
    std::vector<const trace::Tracer*> runs;
    for (std::uint32_t p = 0; p < sharded.partitions(); ++p) {
      if (flights[p] != nullptr) lost_dumps_ += flights[p]->lost_dumps();
      if (tracers[p] == nullptr) continue;
      runs.push_back(tracers[p].get());
      if (trace_ != nullptr) {
        trace_->add(*tracers[p], scenario + "/p" + std::to_string(p));
      }
    }
    trace::collect_shard_registries(sharded);
    ShardedScenario ctx(*this, sharded);
    report(ctx);
    snap.virtual_ns = sharded.now();
    snap.events = sharded.events_dispatched();
    snap.metrics = std::move(ctx.metrics_);
    critical_path(trace::CriticalPath(runs), snap);
    // Recorded before teardown, so the registry is the run's alone.
    metrics = record(std::move(snap));
  }
  Snapshot& snap = snapshots_.back();
  snap.setup_ns = ns_since(start) - snap.wall_ns;
  return metrics;
}

void Harness::critical_path(const trace::CriticalPath& cp, Snapshot& snap) {
  if (cp.aggregate().count > 0) {
    std::ostringstream agg;
    trace::write_breakdown_json(agg, cp.aggregate());
    snap.critical_path_json = agg.str();
  }
  if (!opts_.critical_path.empty()) {
    std::ostringstream report;
    cp.write_report(report);
    snap.critical_path_report = report.str();
  }
}

std::map<std::string, double> Harness::record(Snapshot snap) {
  {
    std::ostringstream reg;
    trace::Registry::global().write_json(reg);
    snap.registry_json = reg.str();
  }
  if (!opts_.metrics_out.empty()) {
    std::ostringstream reg;
    trace::Registry::global().write(reg);
    snap.registry_text = reg.str();
  }
  snapshots_.push_back(std::move(snap));
  return snapshots_.back().metrics;
}

void ShardedScenario::health(const TimeSeriesStore& store,
                             const std::vector<AlertEvent>& alerts) {
  TimeSeriesStore& mine = harness_.store_;
  if (mine.all().empty()) mine = TimeSeriesStore(store.config());
  mine.merge(store);
  harness_.alerts_.insert(harness_.alerts_.end(), alerts.begin(),
                          alerts.end());
  harness_.rules_evaluated_ = true;
}

void ShardedScenario::attribution(const HeavyHitters& hot,
                                  const trace::ExemplarStore& exemplars) {
  harness_.hot_.merge(hot);
  harness_.exemplars_.merge(exemplars);
}

void Harness::write_bench_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"dcs-bench-v1\",\n  \"bench\": " << quoted(bench_)
     << ",\n  \"scenarios\": {\n";
  for (std::size_t s = 0; s < snapshots_.size(); ++s) {
    const Snapshot& sn = snapshots_[s];
    os << "    " << quoted(sn.name) << ": {\n";
    os << "      \"virtual_ns\": " << sn.virtual_ns << ",\n";
    os << "      \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : sn.metrics) {
      os << (first ? "" : ", ") << quoted(name) << ": " << fmt_fixed(value, 3);
      first = false;
    }
    os << "},\n";
    os << "      \"latency_ns\": {\"count\": " << sn.latency_count;
    if (sn.latency_count > 0) {
      os << ", \"mean\": " << fmt_fixed(sn.latency_mean, 3)
         << ", \"p0\": " << fmt_fixed(sn.p0, 3)
         << ", \"p50\": " << fmt_fixed(sn.p50, 3)
         << ", \"p99\": " << fmt_fixed(sn.p99, 3)
         << ", \"p100\": " << fmt_fixed(sn.p100, 3);
    }
    os << "},\n";
    os << "      \"registry\": " << sn.registry_json;
    if (!sn.critical_path_json.empty()) {
      os << ",\n      \"critical_path\": " << sn.critical_path_json;
    }
    os << "\n    }" << (s + 1 < snapshots_.size() ? "," : "") << "\n";
  }
  os << "  }\n}\n";
}

void Harness::write_wall_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"dcs-bench-wall-v1\",\n  \"bench\": "
     << quoted(bench_)
     << ",\n  \"peak_rss_mb\": " << fmt_fixed(peak_rss_mb(), 3)
     << ",\n  \"scenarios\": {\n";
  for (std::size_t s = 0; s < snapshots_.size(); ++s) {
    const Snapshot& sn = snapshots_[s];
    const double secs = sn.wall_ns / 1e9;
    const double eps = secs > 0 ? static_cast<double>(sn.events) / secs : 0;
    const double npe =
        sn.events > 0 ? sn.wall_ns / static_cast<double>(sn.events) : 0;
    os << "    " << quoted(sn.name) << ": {\n"
       << "      \"virtual_ns\": " << sn.virtual_ns << ",\n"
       << "      \"events\": " << sn.events << ",\n"
       << "      \"frames\": " << sn.frames << ",\n"
       << "      \"setup_ns\": " << fmt_fixed(sn.setup_ns, 3) << ",\n"
       << "      \"wall_ns\": " << fmt_fixed(sn.wall_ns, 3) << ",\n"
       << "      \"events_per_sec\": " << fmt_fixed(eps, 3) << ",\n"
       << "      \"ns_per_event\": " << fmt_fixed(npe, 3);
    if (sn.batch > 0) os << ",\n      \"batch\": " << sn.batch;
    if (sn.zipf_alpha >= 0) {
      os << ",\n      \"zipf_alpha\": " << fmt_fixed(sn.zipf_alpha, 3);
    }
    os << "\n    }" << (s + 1 < snapshots_.size() ? "," : "") << "\n";
    std::fprintf(stderr,
                 "bench: wall %s/%s: %llu events, %.1f ns/event, "
                 "%.0f events/sec\n",
                 bench_.c_str(), sn.name.c_str(),
                 static_cast<unsigned long long>(sn.events), npe, eps);
  }
  os << "  }\n}\n";
}

int Harness::finish() {
  bool ok = true;  // every requested file was written
  const std::string scenarios =
      std::to_string(snapshots_.size()) + " scenarios";
  ok &= write_dump(opts_.bench_json, scenarios,
                   [this](std::ostream& os) { write_bench_json(os); });
  ok &= write_dump(opts_.wall_json, "wall telemetry",
                   [this](std::ostream& os) { write_wall_json(os); });
  ok &= write_dump(opts_.critical_path, "critical path of " + scenarios,
                   [this](std::ostream& os) {
                     for (const Snapshot& sn : snapshots_) {
                       os << "== scenario " << sn.name << " ==\n"
                          << sn.critical_path_report;
                     }
                   });
  ok &= write_dump(opts_.metrics_out, "metrics of " + scenarios,
                   [this](std::ostream& os) {
                     for (const Snapshot& sn : snapshots_) {
                       os << "== scenario " << sn.name << " ==\n"
                          << sn.registry_text;
                     }
                   });
  if (trace_ != nullptr) {
    trace_->close();
    ok &= report_dump(trace_file_, opts_.trace_out,
                      std::to_string(trace_->event_count()) + " events");
  }
  if (!opts_.timeseries_out.empty() || !slo_rules_.empty()) {
    SloEngine slo(store_);
    slo.absorb(alerts_);
    if (!rules_evaluated_) {
      for (const SloRule& rule : slo_rules_) slo.add_rule(rule);
      SimNanos now = 0;
      for (const Snapshot& sn : snapshots_) {
        if (sn.virtual_ns > now) now = sn.virtual_ns;
      }
      slo.evaluate(now);
    }
    // The alert stream goes to stderr; firing alerts are diagnostics,
    // not a failure (the exit code stays about file I/O).
    std::ostringstream stream;
    write_alert_stream(stream, slo.alerts());
    std::fputs(stream.str().c_str(), stderr);
    ok &= write_dump(opts_.timeseries_out,
                     std::to_string(store_.all().size()) + " series",
                     [&](std::ostream& os) {
                       write_timeseries_json(os, store_, slo.alerts());
                     });
  }
  ok &= write_dump(opts_.hotset_out, "hotset",
                   [this](std::ostream& os) { write_hotset_json(os, hot_); });
  ok &= write_dump(opts_.exemplars_out, "exemplars", [this](std::ostream& os) {
    trace::write_exemplar_json(os, exemplars_);
  });
  if (opts_.hot_keys > 0) {
    for (const std::string& domain : hot_.domains()) {
      std::printf("hot %s (total=%llu):\n", domain.c_str(),
                  static_cast<unsigned long long>(hot_.total(domain)));
      for (const HotEntry& e : hot_.top(domain, opts_.hot_keys)) {
        std::printf("  key=%llu count=%llu error=%llu\n",
                    static_cast<unsigned long long>(e.key),
                    static_cast<unsigned long long>(e.count),
                    static_cast<unsigned long long>(e.error));
      }
    }
  }
  if (lost_dumps_ > 0) {
    std::fprintf(stderr, "bench: %llu post-mortem dump(s) lost\n",
                 static_cast<unsigned long long>(lost_dumps_));
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace dcs::obs
