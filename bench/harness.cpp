#include "harness.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "trace/flight.hpp"
#include "trace/hot.hpp"

namespace dcs::bench {

namespace {

std::string fmt_f3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

/// Scenario names embed '/' separators; dump prefixes become file names.
std::string sanitize(std::string name) {
  for (char& c : name) {
    if (c == '/' || c == ' ') c = '_';
  }
  return name;
}

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

std::vector<std::size_t> batch_sweep(std::size_t max) {
  if (max == 0) return {1, 2, 4, 8};
  std::vector<std::size_t> out;
  for (std::size_t k = 1; k < max; k *= 2) out.push_back(k);
  out.push_back(max);
  return out;
}

Harness::Harness(std::string bench, obs::HarnessOptions opts)
    : bench_(std::move(bench)), opts_(std::move(opts)) {}

void Harness::run(const std::string& scenario,
                  const std::function<void(Scenario&)>& body) {
  sim::Engine eng;
  trace::Tracer tracer(eng);
  // Declared after the engine/tracer so it uninstalls first: a wedged
  // scenario's post-mortem must capture ring context before teardown.
  std::unique_ptr<trace::FlightRecorder> flight;
  trace::Registry::global().reset();
  tracer.install();
  if (!opts_.postmortem_dir.empty()) {
    flight = std::make_unique<trace::FlightRecorder>(
        eng, trace::FlightConfig{.postmortem_dir = opts_.postmortem_dir,
                                 .prefix = bench_ + "." + sanitize(scenario)});
    flight->install();
  }
  Scenario ctx(eng);
  const auto wall_start = std::chrono::steady_clock::now();
  {
    // DCS_HOT sites in ddss/dlm/verbs feed the shared sketch while the
    // body runs; without attribution the sites stay one disarmed branch.
    trace::ScopedHotSink hot_sink(opts_.attribution_mode() ? &hot_ : nullptr);
    body(ctx);
  }
  const auto wall_end = std::chrono::steady_clock::now();
  if (flight != nullptr) flight->uninstall();
  tracer.uninstall();

  Snapshot snap;
  snap.name = scenario;
  snap.virtual_ns = eng.now();
  snap.events = eng.events_dispatched();
  snap.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end -
                                                           wall_start)
          .count());
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
  {
    std::ostringstream reg;
    trace::Registry::global().write_json(reg);
    snap.registry_json = reg.str();
  }
  if (!opts_.timeseries_out.empty() || !opts_.slo_rules.empty()) {
    // Scenario ordinal as node id: each scenario is "one node" of the
    // bench's cluster dump, so per-scenario history stays disjoint.
    store_.ingest_registry(static_cast<std::uint32_t>(snapshots_.size()),
                           eng.now(), trace::Registry::global());
  }
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
  if (cp.aggregate().count > 0) {
    std::ostringstream agg;
    trace::write_breakdown_json(agg, cp.aggregate());
    snap.critical_path_json = agg.str();
    std::ostringstream report;
    cp.write_report(report);
    snap.critical_path_report = report.str();
  }
  snapshots_.push_back(std::move(snap));
}

int Harness::finish() {
  int rc = 0;
  if (!opts_.bench_json.empty()) {
    std::ofstream os(opts_.bench_json);
    if (!os) {
      std::fprintf(stderr, "bench: cannot open %s\n",
                   opts_.bench_json.c_str());
      rc = 1;
    } else {
      os << "{\n  \"schema\": \"dcs-bench-v1\",\n  \"bench\": "
         << quoted(bench_) << ",\n  \"scenarios\": {\n";
      for (std::size_t s = 0; s < snapshots_.size(); ++s) {
        const Snapshot& sn = snapshots_[s];
        os << "    " << quoted(sn.name) << ": {\n";
        os << "      \"virtual_ns\": " << sn.virtual_ns << ",\n";
        os << "      \"metrics\": {";
        bool first = true;
        for (const auto& [name, value] : sn.metrics) {
          os << (first ? "" : ", ") << quoted(name) << ": " << fmt_f3(value);
          first = false;
        }
        os << "},\n";
        os << "      \"latency_ns\": {\"count\": " << sn.latency_count;
        if (sn.latency_count > 0) {
          os << ", \"mean\": " << fmt_f3(sn.latency_mean)
             << ", \"p0\": " << fmt_f3(sn.p0) << ", \"p50\": " << fmt_f3(sn.p50)
             << ", \"p99\": " << fmt_f3(sn.p99)
             << ", \"p100\": " << fmt_f3(sn.p100);
        }
        os << "},\n";
        os << "      \"registry\": " << sn.registry_json;
        if (!sn.critical_path_json.empty()) {
          os << ",\n      \"critical_path\": " << sn.critical_path_json;
        }
        os << "\n    }" << (s + 1 < snapshots_.size() ? "," : "") << "\n";
      }
      os << "  }\n}\n";
      std::fprintf(stderr, "bench: %zu scenarios -> %s\n", snapshots_.size(),
                   opts_.bench_json.c_str());
    }
  }
  if (!opts_.wall_json.empty()) {
    std::ofstream os(opts_.wall_json);
    if (!os) {
      std::fprintf(stderr, "bench: cannot open %s\n", opts_.wall_json.c_str());
      rc = 1;
    } else {
      os << "{\n  \"schema\": \"dcs-bench-wall-v1\",\n  \"bench\": "
         << quoted(bench_) << ",\n  \"peak_rss_mb\": "
         << fmt_f3(peak_rss_mb()) << ",\n  \"scenarios\": {\n";
      for (std::size_t s = 0; s < snapshots_.size(); ++s) {
        const Snapshot& sn = snapshots_[s];
        const double secs = sn.wall_ns / 1e9;
        const double eps = secs > 0 ? static_cast<double>(sn.events) / secs : 0;
        const double npe =
            sn.events > 0 ? sn.wall_ns / static_cast<double>(sn.events) : 0;
        os << "    " << quoted(sn.name) << ": {\n"
           << "      \"virtual_ns\": " << sn.virtual_ns << ",\n"
           << "      \"events\": " << sn.events << ",\n"
           << "      \"wall_ns\": " << fmt_f3(sn.wall_ns) << ",\n"
           << "      \"events_per_sec\": " << fmt_f3(eps) << ",\n"
           << "      \"ns_per_event\": " << fmt_f3(npe);
        if (sn.batch > 0) os << ",\n      \"batch\": " << sn.batch;
        if (sn.zipf_alpha >= 0) {
          os << ",\n      \"zipf_alpha\": " << fmt_f3(sn.zipf_alpha);
        }
        os << "\n    }" << (s + 1 < snapshots_.size() ? "," : "") << "\n";
        std::fprintf(stderr,
                     "bench: wall %s/%s: %llu events, %.1f ns/event, "
                     "%.0f events/sec\n",
                     bench_.c_str(), sn.name.c_str(),
                     static_cast<unsigned long long>(sn.events), npe, eps);
      }
      os << "  }\n}\n";
      std::fprintf(stderr, "bench: wall telemetry -> %s\n",
                   opts_.wall_json.c_str());
    }
  }
  if (!opts_.critical_path.empty()) {
    std::ofstream os(opts_.critical_path);
    if (!os) {
      std::fprintf(stderr, "bench: cannot open %s\n",
                   opts_.critical_path.c_str());
      rc = 1;
    } else {
      for (const Snapshot& sn : snapshots_) {
        if (sn.critical_path_report.empty()) continue;
        os << "== scenario " << sn.name << " ==\n"
           << sn.critical_path_report;
      }
    }
  }
  if (!opts_.timeseries_out.empty() || !opts_.slo_rules.empty()) {
    obs::SloEngine slo(store_);
    if (!opts_.slo_rules.empty()) {
      std::string error;
      auto rules = obs::parse_slo_rules_file(opts_.slo_rules, &error);
      if (!error.empty()) {
        std::fprintf(stderr, "bench: %s\n", error.c_str());
        rc = 1;
      }
      for (auto& rule : rules) slo.add_rule(std::move(rule));
      SimNanos now = 0;
      for (const Snapshot& sn : snapshots_) {
        if (sn.virtual_ns > now) now = sn.virtual_ns;
      }
      slo.evaluate(now);
      // The alert stream goes to stderr in both modes; firing alerts are
      // diagnostics, not a failure (the exit code stays about file I/O).
      std::ostringstream stream;
      obs::write_alert_stream(stream, slo.alerts());
      std::fputs(stream.str().c_str(), stderr);
    }
    if (!opts_.timeseries_out.empty()) {
      std::ofstream os(opts_.timeseries_out);
      if (!os) {
        std::fprintf(stderr, "bench: cannot open %s\n",
                     opts_.timeseries_out.c_str());
        rc = 1;
      } else {
        obs::write_timeseries_json(os, store_, slo.alerts());
        std::fprintf(stderr, "bench: %zu series -> %s\n",
                     store_.all().size(), opts_.timeseries_out.c_str());
      }
    }
  }
  if (!opts_.hotset_out.empty()) {
    std::ofstream os(opts_.hotset_out);
    if (!os) {
      std::fprintf(stderr, "bench: cannot open %s\n",
                   opts_.hotset_out.c_str());
      rc = 1;
    } else {
      obs::write_hotset_json(os, hot_);
      std::fprintf(stderr, "bench: hotset -> %s\n", opts_.hotset_out.c_str());
    }
  }
  if (!opts_.exemplars_out.empty()) {
    std::ofstream os(opts_.exemplars_out);
    if (!os) {
      std::fprintf(stderr, "bench: cannot open %s\n",
                   opts_.exemplars_out.c_str());
      rc = 1;
    } else {
      trace::write_exemplar_json(os, exemplars_);
      std::fprintf(stderr, "bench: exemplars -> %s\n",
                   opts_.exemplars_out.c_str());
    }
  }
  if (opts_.hot_keys > 0) {
    for (const std::string& domain : hot_.domains()) {
      std::printf("hot %s (total=%llu):\n", domain.c_str(),
                  static_cast<unsigned long long>(hot_.total(domain)));
      for (const obs::HotEntry& e : hot_.top(domain, opts_.hot_keys)) {
        std::printf("  key=%llu count=%llu error=%llu\n",
                    static_cast<unsigned long long>(e.key),
                    static_cast<unsigned long long>(e.count),
                    static_cast<unsigned long long>(e.error));
      }
    }
  }
  return rc;
}

}  // namespace dcs::bench
