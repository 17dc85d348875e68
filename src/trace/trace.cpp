#include "trace/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <utility>

#include "common/check.hpp"
#include "common/json.hpp"

namespace dcs::trace {

namespace {

/// Fixed-precision double formatting so writer output is byte-stable.
std::string fmt_f3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Nanoseconds rendered as microseconds with exactly 3 decimals (Chrome's
/// `ts`/`dur` unit is microseconds).
std::string ns_as_us(SimNanos t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, t / 1000,
                t % 1000);
  return buf;
}

}  // namespace

// --- Registry ---

Registry& Registry::global() {
  // One registry per OS thread: instrumentation on a shard worker lands in
  // that worker's registry, which the sharded runner folds into the
  // coordinator's via merge() in deterministic partition order at teardown
  // (sim/shard.hpp).  Single-threaded programs see the old process-global.
  static thread_local Registry instance;
  return instance;
}

Registry::Metric& Registry::get(std::string_view name, Kind kind) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Metric metric;
    metric.kind = kind;
    it = metrics_.emplace(std::string(name), std::move(metric)).first;
  }
  DCS_CHECK_MSG(it->second.kind == kind,
                "metric registered twice with different kinds");
  return it->second;
}

Counter& Registry::counter(std::string_view name) {
  return get(name, Kind::kCounter).counter;
}
Gauge& Registry::gauge(std::string_view name) {
  return get(name, Kind::kGauge).gauge;
}
Distribution& Registry::distribution(std::string_view name) {
  return get(name, Kind::kDistribution).dist;
}
Histogram& Registry::histogram(std::string_view name) {
  return get(name, Kind::kHist).hist;
}

const Counter* Registry::find_counter(std::string_view name) const {
  const auto it = metrics_.find(name);
  return it != metrics_.end() && it->second.kind == Kind::kCounter
             ? &it->second.counter
             : nullptr;
}
const Gauge* Registry::find_gauge(std::string_view name) const {
  const auto it = metrics_.find(name);
  return it != metrics_.end() && it->second.kind == Kind::kGauge
             ? &it->second.gauge
             : nullptr;
}
const Distribution* Registry::find_distribution(std::string_view name) const {
  const auto it = metrics_.find(name);
  return it != metrics_.end() && it->second.kind == Kind::kDistribution
             ? &it->second.dist
             : nullptr;
}
const Histogram* Registry::find_histogram(std::string_view name) const {
  const auto it = metrics_.find(name);
  return it != metrics_.end() && it->second.kind == Kind::kHist
             ? &it->second.hist
             : nullptr;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(metrics_.size());
  for (const auto& [name, metric] : metrics_) out.push_back(name);
  return out;
}

void Registry::reset() {
  for (auto& [name, metric] : metrics_) {
    metric.counter = Counter{};
    metric.gauge = Gauge{};
    metric.dist = Distribution{};
    metric.hist = Histogram{};
  }
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, theirs] : other.metrics_) {
    Metric& ours = get(name, theirs.kind);
    switch (theirs.kind) {
      case Kind::kCounter:
        ours.counter.value += theirs.counter.value;
        break;
      case Kind::kGauge:
        ours.gauge.value = theirs.gauge.value;
        break;
      case Kind::kDistribution:
        ours.dist.stat.merge(theirs.dist.stat);
        break;
      case Kind::kHist:
        for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b) {
          const std::uint64_t n = theirs.hist.hist.bucket_count(b);
          // LogHistogram has no bucket-add; replay one representative value
          // per sample (lower bound of the bucket) which lands in the same
          // bucket by construction.
          const std::uint64_t lo = b == 0 ? 0 : (1ULL << (b - 1));
          for (std::uint64_t i = 0; i < n; ++i) ours.hist.hist.add(lo);
        }
        break;
    }
  }
}

void Registry::write(std::ostream& os) const {
  os << "# dcs metrics v1 (names: layer.component.metric; times in ns)\n";
  for (const auto& [name, metric] : metrics_) {
    switch (metric.kind) {
      case Kind::kCounter:
        os << "counter " << name << ' ' << metric.counter.value << '\n';
        break;
      case Kind::kGauge:
        os << "gauge " << name << ' ' << fmt_f3(metric.gauge.value) << '\n';
        break;
      case Kind::kDistribution: {
        const auto& s = metric.dist.stat;
        os << "distribution " << name << " count " << s.count() << " mean "
           << fmt_f3(s.mean()) << " min " << fmt_f3(s.min()) << " max "
           << fmt_f3(s.max()) << " stddev " << fmt_f3(s.stddev()) << '\n';
        break;
      }
      case Kind::kHist:
        os << "histogram " << name << " count " << metric.hist.hist.count();
        for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b) {
          const std::uint64_t n = metric.hist.hist.bucket_count(b);
          if (n == 0) continue;
          const std::uint64_t lo = b == 0 ? 0 : (1ULL << (b - 1));
          const std::uint64_t hi = 1ULL << b;
          os << " [" << lo << ',' << hi << "):" << n;
        }
        os << '\n';
        break;
    }
  }
}

void Registry::write_json(std::ostream& os) const {
  os << '{';
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    os << (first ? "" : ", ") << '"' << name << "\": ";
    first = false;
    switch (metric.kind) {
      case Kind::kCounter:
        os << metric.counter.value;
        break;
      case Kind::kGauge:
        os << fmt_f3(metric.gauge.value);
        break;
      case Kind::kDistribution:
        os << "{\"count\": " << metric.dist.stat.count()
           << ", \"mean\": " << fmt_f3(metric.dist.stat.mean()) << '}';
        break;
      case Kind::kHist:
        os << "{\"count\": " << metric.hist.hist.count() << '}';
        break;
    }
  }
  os << '}';
}

// --- Tracer ---

const char* to_string(Cost c) {
  switch (c) {
    case Cost::kNone: return "none";
    case Cost::kHostCpu: return "host-cpu";
    case Cost::kNic: return "nic";
    case Cost::kWire: return "wire";
    case Cost::kQueueing: return "queueing";
    case Cost::kCreditStall: return "credit-stall";
    case Cost::kLockWait: return "lock-wait";
  }
  return "?";
}

Tracer::~Tracer() { uninstall(); }

void Tracer::install() {
  auto& s = detail::sinks();
  DCS_CHECK_MSG(s.tracer == nullptr || s.tracer == this,
                "another tracer is already installed");
  s.tracer = this;
  s.any = true;
}

void Tracer::uninstall() {
  auto& s = detail::sinks();
  if (s.tracer == this) {
    s.tracer = nullptr;
    s.any = s.flight != nullptr;
  }
}

void Tracer::instant(const char* category, const char* name,
                     std::uint32_t node, std::uint64_t id,
                     const char* detail) {
  TraceEvent ev;
  ev.category = category;
  ev.name = name;
  ev.detail = detail;
  ev.id = id;
  ev.start = eng_.now();
  ev.end = eng_.now();
  ev.request = sim::strand_ctx().request;
  ev.node = node;
  ev.phase = 'i';
  events_.push_back(ev);
}

void Tracer::complete(const char* category, const char* name,
                      std::uint32_t node, std::uint64_t id,
                      const char* detail, sim::Time start, sim::Time end) {
  TraceEvent ev;
  ev.category = category;
  ev.name = name;
  ev.detail = detail;
  ev.id = id;
  ev.start = start;
  ev.end = end;
  ev.node = node;
  ev.phase = 'X';
  events_.push_back(ev);
}

void Tracer::record(const TraceEvent& ev) {
  // A zero-length cost interval cannot influence attribution; skip it so
  // contention-free fast paths (uncontended run queue, available credits)
  // do not double the event volume.
  if (ev.cost != Cost::kNone && ev.end == ev.start) return;
  events_.push_back(ev);
}

void Tracer::write_chrome_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& line) {
    os << (first ? "\n" : ",\n") << line;
    first = false;
  };

  // Metadata: pid = simulated node, tid = category (first-seen order).
  std::map<std::string, std::uint32_t> tids;
  std::vector<const char*> tid_names;
  for (const auto& ev : events_) {
    if (tids.emplace(ev.category, tids.size()).second) {
      tid_names.push_back(ev.category);
    }
  }
  std::vector<std::uint32_t> nodes;
  for (const auto& ev : events_) nodes.push_back(ev.node);
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (const std::uint32_t n : nodes) {
    emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
         std::to_string(n) + ",\"tid\":0,\"args\":{\"name\":\"node " +
         std::to_string(n) + "\"}}");
  }
  for (std::size_t t = 0; t < tid_names.size(); ++t) {
    for (const std::uint32_t n : nodes) {
      emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
           std::to_string(n) + ",\"tid\":" + std::to_string(t) +
           ",\"args\":{\"name\":\"" + json_escape(tid_names[t]) + "\"}}");
    }
  }

  for (const auto& ev : events_) {
    std::string line = "{\"ph\":\"";
    // Request roots ('R') render as complete spans; Chrome has no native
    // request phase.
    line.push_back(ev.phase == 'i' ? 'i' : 'X');
    line += "\",\"cat\":\"" + json_escape(ev.category) + "\",\"name\":\"" +
            json_escape(ev.name) + "\",\"pid\":" + std::to_string(ev.node) +
            ",\"tid\":" + std::to_string(tids.at(ev.category)) +
            ",\"ts\":" + ns_as_us(ev.start);
    if (ev.phase != 'i') {
      line += ",\"dur\":" + ns_as_us(ev.end - ev.start);
    } else {
      line += ",\"s\":\"t\"";
    }
    line += ",\"args\":{\"id\":" + std::to_string(ev.id);
    if (ev.detail != nullptr) {
      line += ",\"detail\":\"" + json_escape(ev.detail) + "\"";
    }
    if (ev.request != 0) line += ",\"request\":" + std::to_string(ev.request);
    if (ev.span != 0) line += ",\"span\":" + std::to_string(ev.span);
    if (ev.parent != 0) line += ",\"parent\":" + std::to_string(ev.parent);
    if (ev.cost != Cost::kNone) {
      line += ",\"cost\":\"" + std::string(to_string(ev.cost)) + "\"";
    }
    line += "}}";
    emit(line);
  }
  os << "\n]}\n";
}

void Tracer::write_summary(std::ostream& os) const {
  struct Agg {
    RunningStat span_us;
    std::uint64_t instants = 0;
  };
  std::map<std::string, Agg> aggs;
  for (const auto& ev : events_) {
    Agg& a = aggs[std::string(ev.category) + '.' + ev.name];
    if (ev.phase == 'i') {
      ++a.instants;
    } else {
      a.span_us.add(to_micros(ev.end - ev.start));
    }
  }
  os << "# trace summary: " << events_.size() << " events\n";
  os << "# operation | spans | total us | mean us | min us | max us | "
        "instants\n";
  for (const auto& [key, a] : aggs) {
    os << key << " | " << a.span_us.count() << " | " << fmt_f3(a.span_us.sum())
       << " | " << fmt_f3(a.span_us.mean()) << " | " << fmt_f3(a.span_us.min())
       << " | " << fmt_f3(a.span_us.max()) << " | " << a.instants << '\n';
  }
}

}  // namespace dcs::trace
