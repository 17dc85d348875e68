// Cross-layer observability: a metrics registry plus a simulated-time
// event tracer.
//
// Two independent pieces, one vocabulary (see docs/OBSERVABILITY.md):
//
//   Registry  named counters / gauges / latency stats / log-histograms.
//             A layer resolves its handles once (the lookup is a map walk)
//             and then updates them with plain arithmetic — near-zero cost
//             on the hot path.  Names follow `layer.component.metric`.
//             `Registry::global()` is the instance every built-in layer
//             registers into: one per execution context (sim/context.hpp),
//             so shard workers never race — sharded runs merge worker
//             registries at teardown; handles stay valid for the context's
//             lifetime (reset() zeroes values but never removes entries).
//             Enumeration (names(), write(), write_json()) lists only the
//             entries touched since the last reset(), so a snapshot taken
//             after reset() + run holds that run's metrics alone, whatever
//             ran in the context before.
//
//   Records   spans, instants, logs and request roots (op type, node, id,
//             start/end sim::Time, causal ids) form ONE stream per
//             execution context.  The context's sink set (detail::Sinks)
//             owns the virtual clock, the request and span id counters and
//             the armed state; at most one consumer per retention policy
//             attaches to it through the Sink interface:
//               Tracer          keep all — the event vector behind Chrome
//                               `trace_event` JSON (chrome://tracing,
//                               https://ui.perfetto.dev) and CriticalPath;
//               FlightRecorder  per-node ring plus the open-request table
//                               behind post-mortem dumps (trace/flight.hpp).
//             Both see the same records with the same ids, so attaching one
//             never changes what the other keeps.  With nothing attached an
//             instrumentation site costs one context lookup and one branch.
//
// Every output is deterministic: the simulation engine replays
// identically for a given seed, and the writers format numbers with fixed
// precision, so two same-seed runs produce byte-identical files.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "sim/strand.hpp"

namespace dcs::trace {

// --- metrics registry ---

/// Monotonic event count.
struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t delta = 1) { value += delta; }
};

/// Last-written instantaneous value (queue depth, cached bytes, ...).
struct Gauge {
  double value = 0.0;
  void set(double v) { value = v; }
};

/// Latency/size distribution summarized online (count/mean/min/max/stddev).
struct Distribution {
  RunningStat stat;
  void record(double v) { stat.add(v); }
  void record_ns(SimNanos t) { stat.add(static_cast<double>(t)); }
};

/// Power-of-two bucketed histogram (cascade depths, batch sizes, ...).
struct Histogram {
  LogHistogram hist;
  void record(std::uint64_t v) { hist.add(v); }
};

/// Named metric store.  Registration is idempotent: the first call for a
/// name creates the metric, later calls return the same object, and the
/// returned reference is stable for the registry's lifetime (node-based
/// storage).  Registering the same name as two different kinds is a
/// programming error and asserts.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The current execution context's registry, which all built-in
  /// instrumentation running in that context uses (see the header comment
  /// for the sharding rationale).
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Distribution& distribution(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Lookup without registration; nullptr when `name` is absent or of a
  /// different kind.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Distribution* find_distribution(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  /// The names of every touched entry, in sorted order (the emission order
  /// of write()).  An entry is touched when it no longer holds its reset()
  /// state: a nonzero counter or gauge, or a distribution or histogram with
  /// samples.  So a value explicitly written as 0 (a gauge set to 0, a
  /// counter added 0) is not listed either.
  std::vector<std::string> names() const;
  /// Every registered entry, touched or not.
  std::size_t size() const { return metrics_.size(); }

  /// Zeroes every value but keeps all registrations (handles stay valid),
  /// so no entry is touched until the next update.  Call before a run
  /// whose metrics output must stand alone: what the run leaves touched is
  /// what it recorded.
  void reset();

  /// Folds `other` into this registry: counters add, gauges take the other
  /// side's value, distributions merge exactly (Welford), histograms add
  /// bucket-wise.  Metrics absent on one side are created.
  void merge(const Registry& other);

  /// Plain-text dump of the touched entries (see names()), one metric per
  /// line, sorted by name, fixed-precision numbers — byte-deterministic for
  /// identical metric state.
  void write(std::ostream& os) const;

  /// Same entries as a single JSON object, sorted by name: counters as
  /// integers, gauges fixed-precision, distributions/histograms as
  /// {"count", ...} objects.  Embedded in BENCH_*.json (docs/BENCHMARKS.md).
  void write_json(std::ostream& os) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kDistribution, kHist };
  struct Metric {
    Kind kind;
    Counter counter;
    Gauge gauge;
    Distribution dist;
    Histogram hist;
  };

  Metric& get(std::string_view name, Kind kind);
  /// False while `metric` still holds its reset() state.
  static bool touched(const Metric& metric);

  // std::map: stable nodes (references survive later insertions) and
  // sorted iteration for deterministic output.
  std::map<std::string, Metric, std::less<>> metrics_;
};

/// The current execution context's instance of a layer's cached metric
/// handles.  `T` resolves its handles from Registry::global() on
/// construction, so each context (each shard worker) gets handles into its
/// own registry; the only way layers cache handles, because a process-wide
/// static would pin the first caller's registry and race every other worker
/// on it.
template <class T>
T& context_metrics() {
  return sim::context().local<T>();
}

// --- simulated-time tracer ---

/// Resource category a span's duration is charged to by the critical-path
/// analyzer (docs/OBSERVABILITY.md).  The enumeration order is the
/// attribution precedence: when intervals overlap within one request, the
/// lowest-valued active category wins, so a tight active-resource span
/// (host CPU burning, NIC serializing) beats the broad wait span that
/// encloses it.
enum class Cost : std::uint8_t {
  kNone = 0,         // plain span, not a cost interval
  kHostCpu = 1,      // a core executing (run-queue quantum, copies, kernel)
  kNic = 2,          // HCA work: post/doorbell, serialization, completion
  kWire = 3,         // link latency, bytes in flight
  kQueueing = 4,     // runnable but waiting for a core / interrupt dispatch
  kCreditStall = 5,  // SDP credit or flow-control window exhausted
  kLockWait = 6,     // blocked in a DLM queue or service mutex
};

inline constexpr std::size_t kCostCategories = 6;

/// Stable report name ("host-cpu", "nic", ...); "none" for kNone.
const char* to_string(Cost c);

/// One record of the stream.  Category/name/detail must be string literals
/// (or otherwise outlive every consumer): records carry the pointers, not
/// copies, so recording is a few stores with no allocation.
struct TraceEvent {
  const char* category = "";   // layer, e.g. "verbs"
  const char* name = "";       // operation, e.g. "read"
  const char* detail = nullptr;  // optional qualifier, e.g. "Strict"
  std::uint64_t id = 0;        // qp / lock / key / byte count
  sim::Time start = 0;
  sim::Time end = 0;           // == start for instants
  std::uint64_t request = 0;   // causal request context (0 = untracked)
  std::uint64_t span = 0;      // span id within the run (0 = none)
  std::uint64_t parent = 0;    // enclosing span on the same strand (0 = root)
  std::uint32_t node = 0;
  Cost cost = Cost::kNone;
  char phase = 'X';  // 'X' span, 'i' instant, 'L' log, 'R' request root
};

/// A consumer of its execution context's record stream, attached to the
/// context's sink set (detail::Sinks) by install().  The two retention
/// policies: Tracer keeps every record, FlightRecorder a ring per node.
class Sink {
 public:
  /// A closed span ('X'), an instant ('i'), a log record ('L'; `a1` is its
  /// second argument, 0 for every other phase) or a closed request ('R').
  virtual void record(const TraceEvent& ev, std::uint64_t a1) = 0;
  /// A request opened: its phase-'R' record with end == start.
  virtual void open_request(const TraceEvent& ev) = 0;

 protected:
  ~Sink() = default;
};

namespace detail {

/// The record stream of one execution context (sim/context.hpp): the
/// virtual clock every record is stamped with, the request and span id
/// counters, and at most one consumer per retention policy.  Each worker
/// of a sharded run (sim/shard.hpp) has its own, so a tracer or flight
/// recorder installed in one worker observes only that worker's engines
/// and never races another's.  Single-threaded programs only ever use
/// their thread's default context.
struct Sinks {
  enum Slot : std::uint8_t { kKeepAll = 0, kRing = 1 };

  /// The bound engine; non-null exactly while a consumer is attached, so
  /// it is also the armed flag every site tests.
  sim::Engine* clock = nullptr;
  std::array<Sink*, 2> consumers{};
  std::uint64_t last_request = 0;
  std::uint64_t last_span = 0;

  bool armed() const { return clock != nullptr; }
  SimNanos now() const { return clock->now(); }

  /// Attaches `sink` to `slot` bound to `eng`, aborting with `taken` when
  /// another sink holds the slot.  Arming starts both id counters at zero,
  /// so ids are a function of the armed run alone.
  void attach(Slot slot, Sink* sink, sim::Engine& eng, const char* taken);
  /// Detaches `sink` if it holds `slot`; false otherwise.
  bool detach(Slot slot, const Sink* sink);

  void record(const TraceEvent& ev, std::uint64_t a1 = 0) const {
    for (Sink* s : consumers) {
      if (s != nullptr) s->record(ev, a1);
    }
  }
  void open_request(const TraceEvent& ev) const {
    for (Sink* s : consumers) {
      if (s != nullptr) s->open_request(ev);
    }
  }
};

inline Sinks& sinks() { return sim::context().local<Sinks>(); }

inline bool armed() { return sinks().armed(); }

/// A zero-duration record at `now`, charged to the running strand's
/// request.
TraceEvent instant_event(SimNanos now, const char* category, const char* name,
                         std::uint32_t node, std::uint64_t id, char phase);
/// Bodies of DCS_TRACE_INSTANT / DCS_LOG once armed() passed.
void emit_instant(const char* category, const char* name, std::uint32_t node,
                  std::uint64_t id = 0, const char* detail = nullptr);
void emit_log(const char* layer, const char* opcode, std::uint32_t node,
              std::uint64_t a0 = 0, std::uint64_t a1 = 0);

}  // namespace detail

/// Keep-all retention: every record of the stream, in order, for Chrome
/// JSON (ChromeTrace) and critical-path attribution (CriticalPath).
class Tracer final : public Sink {
 public:
  /// Binds to the engine whose virtual clock timestamps events.
  explicit Tracer(sim::Engine& eng) : eng_(eng) {}
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Attaches this tracer to the current execution context's stream (at
  /// most one tracer at a time).
  void install();
  /// Stops recording; safe to call when not installed.
  void uninstall();

  /// Keeps `ev`; a log record is kept as an instant whose id is its first
  /// argument.
  void record(const TraceEvent& ev, std::uint64_t a1) override;
  void open_request(const TraceEvent&) override {}

  std::size_t event_count() const { return events_.size(); }
  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  sim::Engine& eng_;
  std::vector<TraceEvent> events_;
};

/// Chrome trace_event JSON (chrome://tracing, Perfetto) of one or more
/// tracers' runs, written run by run so only one run is ever held in
/// memory: one process per simulated node, one thread per category.
/// Deterministic.  Every added run keeps its nodes apart: its node N
/// becomes a process numbered after every earlier run's, labelled
/// "LABEL node N" ("node N" without a label), and its request and span
/// ids are shifted past every earlier run's, so each causal link in the
/// file (what `dcs flame` follows) stays inside its own run.
class ChromeTrace {
 public:
  /// Writes the header to `os`, which must outlive close().
  explicit ChromeTrace(std::ostream& os);
  void add(const Tracer& tracer, const std::string& label = "");
  /// Writes the footer; call once, after the last add().
  void close();
  std::size_t event_count() const { return events_; }

 private:
  void next_line();  // separator before every element

  std::ostream& os_;
  bool first_ = true;
  std::size_t events_ = 0;
  std::uint32_t next_pid_ = 0;
  std::uint64_t request_base_ = 0;
  std::uint64_t span_base_ = 0;
};

/// The installed tracer, or nullptr.
inline Tracer* current_tracer() {
  return static_cast<Tracer*>(
      detail::sinks().consumers[detail::Sinks::kKeepAll]);
}

/// RAII span: records start time at construction, emits a complete event
/// at destruction.  Lives in a coroutine frame across co_awaits.  Unarmed
/// (nothing attached to the context's stream at construction), a span
/// costs one branch at construction and one on its own member at
/// destruction.
///
/// An armed span also threads itself into the ambient strand context: it
/// becomes the strand's innermost span for its lifetime (children point
/// back via `parent`) and inherits the strand's request id.
class Span {
 public:
  Span(const char* category, const char* name, std::uint32_t node,
       std::uint64_t id = 0, const char* detail = nullptr,
       Cost cost = Cost::kNone) {
    detail::Sinks& s = detail::sinks();
    if (s.armed()) {
      sinks_ = &s;
      category_ = category;
      name_ = name;
      detail_ = detail;
      id_ = id;
      node_ = node;
      cost_ = cost;
      start_ = s.now();
      auto& ctx = sim::strand_ctx();
      request_ = ctx.request;
      parent_ = ctx.span;
      span_ = ++s.last_span;
      ctx.span = span_;
    }
  }
  /// Cost-first overload used by DCS_TRACE_COST_SPAN.
  Span(Cost cost, const char* category, const char* name, std::uint32_t node,
       std::uint64_t id = 0, const char* detail = nullptr)
      : Span(category, name, node, id, detail, cost) {}
  ~Span() {
    // A span parked in a coroutine frame may be destroyed at engine
    // teardown, after every consumer detached.
    if (sinks_ == nullptr || !sinks_->armed()) return;
    sim::strand_ctx().span = parent_;
    const sim::Time end = sinks_->now();
    // A zero-length cost interval cannot influence attribution; dropping
    // it keeps contention-free fast paths (uncontended run queue, available
    // credits) from doubling the stream.
    if (cost_ != Cost::kNone && end == start_) return;
    TraceEvent ev;
    ev.category = category_;
    ev.name = name_;
    ev.detail = detail_;
    ev.id = id_;
    ev.start = start_;
    ev.end = end;
    ev.request = request_;
    ev.span = span_;
    ev.parent = parent_;
    ev.node = node_;
    ev.cost = cost_;
    ev.phase = 'X';
    sinks_->record(ev);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  detail::Sinks* sinks_ = nullptr;  // the stream armed at construction
  const char* category_ = "";
  const char* name_ = "";
  const char* detail_ = nullptr;
  std::uint64_t id_ = 0;
  sim::Time start_ = 0;
  std::uint64_t request_ = 0;
  std::uint64_t span_ = 0;
  std::uint64_t parent_ = 0;
  std::uint32_t node_ = 0;
  Cost cost_ = Cost::kNone;
};

/// The request id of the currently running strand (0 = untracked).  Stamp
/// it into messages that cross strand boundaries, and adopt it on the far
/// side with AdoptContext so server-side work is charged to the request.
inline std::uint64_t current_request() { return sim::strand_ctx().request; }

/// RAII request root: opens a fresh causal context on the current strand
/// and emits a phase-'R' event covering construction..destruction — the
/// end-to-end window the critical-path analyzer attributes.  Restores the
/// previous strand context on destruction, so requests nest and wrapping a
/// sub-operation inside an outer request replaces (not extends) the
/// attribution window.  Free when nothing is attached to the stream.
class Request {
 public:
  Request(const char* name, std::uint32_t node, std::uint64_t id = 0) {
    detail::Sinks& s = detail::sinks();
    if (s.armed()) {
      sinks_ = &s;
      name_ = name;
      node_ = node;
      id_ = id;
      start_ = s.now();
      prev_ = sim::strand_ctx();
      request_ = ++s.last_request;
      sim::strand_ctx() = {request_, 0};
      s.open_request(event(start_));
    }
  }
  ~Request() {
    if (sinks_ == nullptr || !sinks_->armed()) return;
    sim::strand_ctx() = prev_;
    sinks_->record(event(sinks_->now()));
  }
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  /// 0 when nothing was attached to the stream at construction.
  std::uint64_t id() const { return request_; }

 private:
  /// This request's phase-'R' record, closed at `end`.
  TraceEvent event(sim::Time end) const {
    TraceEvent ev;
    ev.category = "request";
    ev.name = name_;
    ev.id = id_;
    ev.start = start_;
    ev.end = end;
    ev.request = request_;
    ev.node = node_;
    ev.phase = 'R';
    return ev;
  }

  detail::Sinks* sinks_ = nullptr;  // the stream armed at construction
  const char* name_ = "";
  std::uint64_t id_ = 0;
  std::uint64_t request_ = 0;
  sim::Time start_ = 0;
  sim::StrandCtx prev_{};
  std::uint32_t node_ = 0;
};

/// RAII follows-from adoption: a strand handling a message stamped with a
/// request id (verbs Message::ctx, TCP segment context, SDP delivery)
/// charges its work to that request for the scope's lifetime.  A zero id
/// (untracked sender, tracing off) adopts nothing.
class AdoptContext {
 public:
  explicit AdoptContext(std::uint64_t request) {
    if (request != 0 && detail::armed()) {
      adopted_ = true;
      prev_ = sim::strand_ctx();
      sim::strand_ctx() = {request, 0};
    }
  }
  ~AdoptContext() {
    if (adopted_) sim::strand_ctx() = prev_;
  }
  AdoptContext(const AdoptContext&) = delete;
  AdoptContext& operator=(const AdoptContext&) = delete;

 private:
  bool adopted_ = false;
  sim::StrandCtx prev_{};
};

}  // namespace dcs::trace

// --- instrumentation macros ---
//
// Compile-time removable (define DCS_TRACE_DISABLED) and runtime-cheap:
// with tracing compiled in but nothing attached to the context's stream
// each site costs one context lookup and one branch.  Arguments after
// `node` are optional: (id) or (id, detail).
#ifndef DCS_TRACE_DISABLED
#define DCS_TRACE_CAT_(a, b) a##b
#define DCS_TRACE_CAT(a, b) DCS_TRACE_CAT_(a, b)
/// Scoped span covering the rest of the enclosing block.
#define DCS_TRACE_SPAN(category, name, node, ...)                \
  ::dcs::trace::Span DCS_TRACE_CAT(dcs_trace_span_, __LINE__) {  \
    category, name, node __VA_OPT__(, ) __VA_ARGS__              \
  }
/// Span opened into `slot`, a std::optional<trace::Span>, instead of a
/// block: for a coroutine that picks one of several literal names at run
/// time and holds the span to its end.  The slot closes the span when it
/// is destroyed, so declare it first to close it last.
#define DCS_TRACE_SPAN_INTO(slot, category, name, node, ...) \
  (slot).emplace(category, name, node __VA_OPT__(, ) __VA_ARGS__)
/// Scoped span whose duration is charged to a Cost category by the
/// critical-path analyzer.  `cost` is a trace::Cost enumerator.
#define DCS_TRACE_COST_SPAN(cost, category, name, node, ...)     \
  ::dcs::trace::Span DCS_TRACE_CAT(dcs_trace_span_, __LINE__) {  \
    cost, category, name, node __VA_OPT__(, ) __VA_ARGS__        \
  }
/// Zero-duration marker at the current virtual time.
#define DCS_TRACE_INSTANT(category, name, node, ...)              \
  do {                                                            \
    if (::dcs::trace::detail::armed()) {                          \
      ::dcs::trace::detail::emit_instant(                         \
          category, name, node __VA_OPT__(, ) __VA_ARGS__);       \
    }                                                             \
  } while (0)
/// Structured log record: layer and opcode string literals plus up to two
/// integer arguments, stamped with virtual time and the current request.
/// Feeds the flight recorder's bounded per-node ring (and a tracer, which
/// keeps it as an instant).  Meant for error and stall paths:
/// the records survive in the ring until a post-mortem dump needs them.
#define DCS_LOG(layer, opcode, node, ...)                         \
  do {                                                            \
    if (::dcs::trace::detail::armed()) {                          \
      ::dcs::trace::detail::emit_log(                             \
          layer, opcode, node __VA_OPT__(, ) __VA_ARGS__);        \
    }                                                             \
  } while (0)
#else
#define DCS_TRACE_SPAN(category, name, node, ...) ((void)0)
#define DCS_TRACE_SPAN_INTO(slot, category, name, node, ...) ((void)0)
#define DCS_TRACE_COST_SPAN(cost, category, name, node, ...) ((void)0)
#define DCS_TRACE_INSTANT(category, name, node, ...) ((void)0)
#define DCS_LOG(layer, opcode, node, ...) ((void)0)
#endif
