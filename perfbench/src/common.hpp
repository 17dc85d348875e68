// Shared vocabulary of the perfbench workloads.
//
// Every workload runs one fixed, seeded instance of its scenario and fills a
// Result.  Two kinds of numbers are kept apart throughout:
//   host       what running the simulator costs (steady_clock, RSS)
//   simulated  what the modelled cluster would do (virtual nanoseconds);
//              these repeat exactly for a given seed and length.
// Per-layer timings come from the benchmark's own spans (SpanLog), recorded
// around the calls it makes into each layer, and only in traced runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "sim/engine.hpp"
#include "trace/critical_path.hpp"

namespace perfbench {

using dcs::SimNanos;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t length = 0;  // client ops per run; 0 = the workload default
  std::uint32_t workers = 2;  // simulation worker threads (primitives-zipf)
  bool trace = false;
  std::string spans_out;  // CSV of the benchmark's spans (traced runs only)
};

/// Host monotonic clock in nanoseconds.
std::uint64_t host_ns();
double host_s_since(std::uint64_t start_ns);

/// CPU time of the calling thread in nanoseconds: the host cost of work
/// one thread does, without the time the thread waited for a core.
std::uint64_t thread_cpu_ns();
double thread_cpu_s_since(std::uint64_t start_ns);

/// One span the benchmark recorded around a call into a layer.
struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // enclosing benchmark span (0 = root)
  std::uint64_t request = 0;  // client op the span belongs to (0 = setup)
  const char* layer = "";
  const char* name = "";
  const char* detail = "";    // e.g. the DDSS coherence model
  std::uint32_t node = 0;
  SimNanos sim_start = 0;
  SimNanos sim_end = 0;
  std::uint64_t host_start = 0;
  std::uint64_t host_end = 0;
};

/// In-memory span store of one engine (one partition in sharded runs, so
/// only one thread ever touches it).  Written out when the run ends.
class SpanLog {
 public:
  /// `id_base` keeps ids unique across the logs of one run.
  explicit SpanLog(std::uint64_t id_base = 0) : next_id_(id_base) {}

  std::size_t open(const char* layer, const char* name, const char* detail,
                   std::uint32_t node, std::uint64_t request,
                   std::uint64_t parent, SimNanos now);
  void close(std::size_t index, SimNanos now);
  /// Appends a finished span, assigning its id.
  void add(SpanRec s);
  const SpanRec& at(std::size_t index) const { return spans_[index]; }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::vector<SpanRec> spans_;
  std::uint64_t next_id_;
};

/// RAII span over the rest of a scope (it may live in a coroutine frame
/// across co_awaits).  A null log records nothing.
class Scope {
 public:
  Scope(SpanLog* log, dcs::sim::Engine& eng, const char* layer,
        const char* name, const char* detail, std::uint32_t node,
        std::uint64_t request, std::uint64_t parent)
      : log_(log), eng_(eng) {
    if (log_ != nullptr) {
      index_ = log_->open(layer, name, detail, node, request, parent,
                          eng.now());
    }
  }
  ~Scope() {
    if (log_ != nullptr) log_->close(index_, eng_.now());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return log_ != nullptr ? log_->at(index_).id : 0; }

 private:
  SpanLog* log_;
  dcs::sim::Engine& eng_;
  std::size_t index_ = 0;
};

/// Host time of one setup step, recorded as a span and summed per layer.
class SetupTimer {
 public:
  SetupTimer(SpanLog* log, std::map<std::string, double>& sums,
             const char* layer)
      : log_(log), sums_(sums), layer_(layer), start_(host_ns()) {}
  ~SetupTimer();
  SetupTimer(const SetupTimer&) = delete;
  SetupTimer& operator=(const SetupTimer&) = delete;

 private:
  SpanLog* log_;
  std::map<std::string, double>& sums_;
  const char* layer_;
  std::uint64_t start_;
};

/// A per-layer metric: value and unit.
struct LayerValue {
  double value = 0;
  std::string unit;
};

struct Result {
  // Host side.
  double setup_s = 0;  // main() entry to the first simulated event
  double run_s = 0;    // host time of the run phase, check_s left out
  double check_s = 0;  // host time of the benchmark's own checks in the run
  std::uint64_t host_ops = 0;  // client ops completed in the run phase

  // Simulated side: client-op latencies of the measured part of the run.
  dcs::LatencySamples latency_us;
  std::uint64_t sim_ops = 0;  // client ops in the measured part
  SimNanos sim_elapsed = 0;   // virtual time of the measured part
  std::uint64_t fingerprint = 0;  // engine dispatch fingerprint

  // Correctness.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  // Per-layer metrics, split by kind so tracing can be checked against the
  // untraced model: `layer_sim` must not change when tracing is on.
  std::map<std::string, LayerValue> layer_sim;
  std::map<std::string, LayerValue> layer_host;

  /// Counts one failed check (a bad payload, a lost reply, an audit
  /// violation) and keeps the first few descriptions.
  void fail(std::string what);
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

/// Per-layer simulated-latency percentiles from the spans named
/// (layer, name[, detail]), in microseconds, as `<prefix>.p50` / `.p99`.
/// Spans of requests at or below `skip_through` (a warm-up) are left out.
void span_percentiles(Result& r, const std::vector<const SpanLog*>& logs,
                      const char* layer, const char* name, const char* detail,
                      const std::string& prefix,
                      std::uint64_t skip_through = 0);

/// Mean per-request critical-path split (trace.cp.*), skipping requests
/// whose id is at or below `skip_through` (a warm-up prefix).
void critical_path_metrics(Result& r, const dcs::trace::CriticalPath& cp,
                           std::uint64_t skip_through);

/// Registry counter value of the calling thread (0 when never registered).
double counter(const char* name);

/// verbs.ops.* from the registry: one-sided reads and writes (timing-only
/// raw ops included), CAS, FAA and batch posts.
void verbs_op_counts(Result& r);

/// Writes all spans as CSV; returns false if the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

Result run_web_coopcache(const Options& opts, std::uint64_t main_start_ns);
Result run_primitives_zipf(const Options& opts, std::uint64_t main_start_ns);
Result run_sdp_stream(const Options& opts, std::uint64_t main_start_ns);

}  // namespace perfbench
