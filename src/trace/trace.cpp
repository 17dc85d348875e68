#include "trace/trace.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <set>
#include <string_view>
#include <utility>

#include "common/check.hpp"
#include "common/flat_map.hpp"
#include "common/json.hpp"

namespace dcs::trace {

namespace {

void append_uint(std::string& out, std::uint64_t v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Appends nanoseconds as microseconds with exactly 3 decimals (Chrome's
/// `ts`/`dur` unit is microseconds).
void append_us(std::string& out, SimNanos t) {
  append_uint(out, t / 1000);
  const auto frac = static_cast<unsigned>(t % 1000);
  const char digits[4] = {'.', static_cast<char>('0' + frac / 100),
                          static_cast<char>('0' + frac / 10 % 10),
                          static_cast<char>('0' + frac % 10)};
  out.append(digits, sizeof digits);
}

}  // namespace

// --- Registry ---

Registry& Registry::global() {
  // One registry per execution context: instrumentation in a shard
  // partition lands in that partition's registry, which
  // trace::collect_shard_registries folds into the caller's
  // (trace/shard_metrics.hpp).  Single-threaded programs see one registry
  // per thread.
  return sim::context().local<Registry>();
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

bool Registry::touched(const Metric& metric) {
  switch (metric.kind) {
    case Kind::kCounter: return metric.counter.value != 0;
    case Kind::kGauge: return metric.gauge.value != 0.0;
    case Kind::kDistribution: return metric.dist.stat.count() != 0;
    case Kind::kHist: return metric.hist.hist.count() != 0;
  }
  return false;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  for (const auto& [name, metric] : metrics_) {
    if (touched(metric)) out.push_back(name);
  }
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
        ours.hist.hist.merge(theirs.hist.hist);
        break;
    }
  }
}

void Registry::write(std::ostream& os) const {
  os << "# dcs metrics v1 (names: layer.component.metric; times in ns)\n";
  for (const auto& [name, metric] : metrics_) {
    if (!touched(metric)) continue;
    switch (metric.kind) {
      case Kind::kCounter:
        os << "counter " << name << ' ' << metric.counter.value << '\n';
        break;
      case Kind::kGauge:
        os << "gauge " << name << ' ' << fmt_fixed(metric.gauge.value, 3)
           << '\n';
        break;
      case Kind::kDistribution: {
        const auto& s = metric.dist.stat;
        os << "distribution " << name << " count " << s.count() << " mean "
           << fmt_fixed(s.mean(), 3) << " min " << fmt_fixed(s.min(), 3)
           << " max " << fmt_fixed(s.max(), 3) << " stddev "
           << fmt_fixed(s.stddev(), 3) << '\n';
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
    if (!touched(metric)) continue;
    os << (first ? "" : ", ") << '"' << name << "\": ";
    first = false;
    switch (metric.kind) {
      case Kind::kCounter:
        os << metric.counter.value;
        break;
      case Kind::kGauge:
        os << fmt_fixed(metric.gauge.value, 3);
        break;
      case Kind::kDistribution:
        os << "{\"count\": " << metric.dist.stat.count()
           << ", \"mean\": " << fmt_fixed(metric.dist.stat.mean(), 3) << '}';
        break;
      case Kind::kHist:
        os << "{\"count\": " << metric.hist.hist.count() << '}';
        break;
    }
  }
  os << '}';
}

// --- Cost ---

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

// --- the record stream ---

namespace detail {

void Sinks::attach(Slot slot, Sink* sink, sim::Engine& eng,
                   const char* taken) {
  DCS_CHECK_MSG(consumers[slot] == nullptr || consumers[slot] == sink, taken);
  DCS_CHECK_MSG(clock == nullptr || clock == &eng,
                "a tracer and a flight recorder in one context must share "
                "one engine");
  if (clock == nullptr) {
    clock = &eng;
    last_request = 0;
    last_span = 0;
  }
  consumers[slot] = sink;
}

bool Sinks::detach(Slot slot, const Sink* sink) {
  if (consumers[slot] != sink) return false;
  consumers[slot] = nullptr;
  if (consumers[kKeepAll] == nullptr && consumers[kRing] == nullptr) {
    clock = nullptr;
  }
  return true;
}

TraceEvent instant_event(SimNanos now, const char* category, const char* name,
                         std::uint32_t node, std::uint64_t id, char phase) {
  TraceEvent ev;
  ev.category = category;
  ev.name = name;
  ev.id = id;
  ev.start = now;
  ev.end = now;
  ev.request = sim::strand_ctx().request;
  ev.node = node;
  ev.phase = phase;
  return ev;
}

void emit_instant(const char* category, const char* name, std::uint32_t node,
                  std::uint64_t id, const char* detail) {
  const Sinks& s = sinks();
  TraceEvent ev = instant_event(s.now(), category, name, node, id, 'i');
  ev.detail = detail;
  s.record(ev);
}

void emit_log(const char* layer, const char* opcode, std::uint32_t node,
              std::uint64_t a0, std::uint64_t a1) {
  const Sinks& s = sinks();
  s.record(instant_event(s.now(), layer, opcode, node, a0, 'L'), a1);
}

}  // namespace detail

// --- Tracer ---

Tracer::~Tracer() { uninstall(); }

void Tracer::install() {
  detail::sinks().attach(detail::Sinks::kKeepAll, this, eng_,
                         "another tracer is already installed");
}

void Tracer::uninstall() {
  detail::sinks().detach(detail::Sinks::kKeepAll, this);
}

void Tracer::record(const TraceEvent& ev, std::uint64_t /*a1*/) {
  events_.push_back(ev);
  if (ev.phase == 'L') events_.back().phase = 'i';
}

// --- ChromeTrace ---

ChromeTrace::ChromeTrace(std::ostream& os) : os_(os) {
  os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
}

void ChromeTrace::next_line() {
  os_ << (first_ ? "\n" : ",\n");
  first_ = false;
}

void ChromeTrace::close() { os_ << "\n]}\n"; }

void ChromeTrace::add(const Tracer& tracer, const std::string& label) {
  if (!os_) return;  // the file already failed: spend nothing formatting
  const std::vector<TraceEvent>& events = tracer.events();
  // Metadata: pid = simulated node (after earlier runs' pids), tid =
  // category (first-seen order).
  const std::uint32_t pid_base = next_pid_;
  // Categories, names and details are literals (rule R4), so a run has a
  // handful of distinct pointers.  This pass escapes each one once and
  // numbers the categories; equal strings behind distinct pointers share
  // one tid.
  const auto key = [](const char* text) {
    return reinterpret_cast<std::uintptr_t>(text);
  };
  common::FlatMap<std::uintptr_t, std::string> escaped;
  const auto intern = [&](const char* text) {
    if (text == nullptr) return;
    const auto [it, added] = escaped.emplace(key(text));
    if (added) it->second = json_escape(text);
  };
  common::FlatMap<std::uintptr_t, std::uint32_t> tid_of;
  std::map<std::string_view, std::uint32_t> tid_by_name;
  std::vector<const char*> tid_names;
  std::set<std::uint32_t> nodes;
  std::uint64_t last_request = 0, last_span = 0;
  for (const auto& ev : events) {
    const auto [tid, fresh] = tid_of.emplace(key(ev.category));
    if (fresh) {
      const auto [named, added] = tid_by_name.emplace(
          ev.category, static_cast<std::uint32_t>(tid_names.size()));
      if (added) tid_names.push_back(ev.category);
      tid->second = named->second;
    }
    intern(ev.category);
    intern(ev.name);
    intern(ev.detail);
    nodes.insert(ev.node);
    last_request = std::max(last_request, ev.request);
    last_span = std::max({last_span, ev.span, ev.parent});
  }
  const auto esc = [&](const char* text) -> const std::string& {
    return escaped.find(key(text))->second;
  };
  const std::string prefix = label.empty() ? "node " : label + " node ";
  for (const std::uint32_t n : nodes) {
    next_line();
    os_ << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":"
        << pid_base + n << ",\"tid\":0,\"args\":{\"name\":\""
        << json_escape(prefix + std::to_string(n)) << "\"}}";
  }
  for (std::size_t t = 0; t < tid_names.size(); ++t) {
    for (const std::uint32_t n : nodes) {
      next_line();
      os_ << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":"
          << pid_base + n << ",\"tid\":" << t << ",\"args\":{\"name\":\""
          << esc(tid_names[t]) << "\"}}";
    }
  }

  std::string line;  // one event's JSON, reused across events
  for (const auto& ev : events) {
    // Request roots ('R') render as complete spans; Chrome has no native
    // request phase.
    line.assign("{\"ph\":\"");
    line += ev.phase == 'i' ? 'i' : 'X';
    line += "\",\"cat\":\"";
    line += esc(ev.category);
    line += "\",\"name\":\"";
    line += esc(ev.name);
    line += "\",\"pid\":";
    append_uint(line, pid_base + ev.node);
    line += ",\"tid\":";
    append_uint(line, tid_of.find(key(ev.category))->second);
    line += ",\"ts\":";
    append_us(line, ev.start);
    if (ev.phase != 'i') {
      line += ",\"dur\":";
      append_us(line, ev.end - ev.start);
    } else {
      line += ",\"s\":\"t\"";
    }
    line += ",\"args\":{\"id\":";
    append_uint(line, ev.id);
    if (ev.detail != nullptr) {
      line += ",\"detail\":\"";
      line += esc(ev.detail);
      line += '"';
    }
    if (ev.request != 0) {
      line += ",\"request\":";
      append_uint(line, request_base_ + ev.request);
    }
    if (ev.span != 0) {
      line += ",\"span\":";
      append_uint(line, span_base_ + ev.span);
    }
    if (ev.parent != 0) {
      line += ",\"parent\":";
      append_uint(line, span_base_ + ev.parent);
    }
    if (ev.cost != Cost::kNone) {
      line += ",\"cost\":\"";
      line += to_string(ev.cost);
      line += '"';
    }
    line += "}}";
    next_line();
    os_.write(line.data(), static_cast<std::streamsize>(line.size()));
  }
  events_ += events.size();
  if (!nodes.empty()) next_pid_ = pid_base + *nodes.rbegin() + 1;
  request_base_ += last_request;
  span_base_ += last_span;
}

}  // namespace dcs::trace
