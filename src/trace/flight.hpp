// Flight recorder: always-on bounded recording plus post-mortem capture.
//
// Every other observability output in the repo (trace JSON, metrics dumps,
// critical-path reports, dcs-bench-v1) is written at the end of a healthy
// run.  When a request wedges on a lost credit, a lock cascade deadlocks,
// or an audit violation throws, the run dies with a one-line error and the
// context evaporates.  The FlightRecorder is the black box: the per-node
// ring retention policy of the context's record stream (trace.hpp).  While
// installed it keeps, per node, a bounded ring of compact structured
// records — virtual time, request (strand context), layer, opcode, two
// u64 arguments — filled from the stream's spans, instants, DCS_LOG
// records and request closes, with the same clock and ids a tracer
// attached beside it sees.  Old records age out; recording never
// allocates after the ring warms up and costs a few stores per site.
//
// Trip conditions snapshot everything into a deterministic
// `dcs-postmortem-v1` JSON dump (docs/OBSERVABILITY.md):
//
//   audit     audit::OnViolation::kPostmortem routes the violation here
//             before AuditError propagates.
//   deadline  monitor::DeadlineWatchdog scans the in-flight request table
//             against a load-adjusted deadline (e-RDMA-Sync load signal).
//   stall     the recorder implements sim::StallHook: a virtual-time jump
//             past `stall_horizon` with stale in-flight requests, or an
//             unbounded run draining with live roots while a request is
//             still in flight, trips a dump.
//
// A dump contains the ring contents for all nodes, a metrics registry
// snapshot, the in-flight request table with each request's partial
// critical path (per-Cost nanoseconds charged so far), and engine state
// (ready-ring and timer-heap occupancy, dispatch fingerprint).  All output
// is byte-deterministic for a given seed.  `dcs inspect` (trace/inspect)
// queries the dumps offline.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/engine.hpp"
#include "sim/stall_hook.hpp"
#include "trace/trace.hpp"

namespace dcs::trace {

/// One ring record, filled from a stream record (TraceEvent) in exactly one
/// place.  Layer/opcode must be string literals (same contract as
/// TraceEvent): the ring stores pointers, never copies.
struct FlightRecord {
  SimNanos time = 0;
  std::uint64_t request = 0;  // strand context at record time (0 untracked)
  const char* layer = "";
  const char* opcode = "";
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint32_t node = 0;
  char kind = 'L';  // 'L' log, 'i' instant, 'S' span close, 'V' violation
};

struct FlightConfig {
  /// Records retained per node; older records age out (wraparound).
  std::size_t ring_capacity = 256;
  /// Virtual-time jump beyond which the engine reports on_time_jump; an
  /// in-flight request idle longer than this across the jump trips a dump.
  SimNanos stall_horizon = milliseconds(50);
  /// Directory for `<prefix>.<reason>.<n>.postmortem.json` dumps.  Empty:
  /// trips are counted and retained in memory but no file is written.
  std::string postmortem_dir{};
  std::string prefix = "dcs";
  /// Safety valve: dumps written per recorder lifetime.
  std::size_t max_dumps = 8;
  /// Sampled capture: keep every Nth offered log/instant/span record per
  /// node (1 = keep everything).  Violations, request closes and capture
  /// transitions are always kept.  `set_full_capture(true)` bypasses the
  /// period until capture is disarmed — the trigger-armed deep-capture
  /// path driven by obs::SloEngine burn-rate arming.
  std::size_t sample_period = 1;
};

class FlightRecorder final : public sim::StallHook, public Sink {
 public:
  explicit FlightRecorder(sim::Engine& eng, FlightConfig config = {});
  ~FlightRecorder() override;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Attaches this recorder to the current execution context's stream (at
  /// most one recorder per context) and installs the context's engine
  /// stall hook.  Only while the loop is not running.
  void install();
  void uninstall();
  /// The recorder installed in the caller's execution context, or nullptr.
  static FlightRecorder* current();

  sim::Engine& engine() { return eng_; }
  const FlightConfig& config() const { return config_; }

  /// Flips sampled capture (config().sample_period) to full capture and
  /// back.  Idempotent; a real transition logs a `flight/capture.*` record
  /// (node 0) so dumps show exactly when deep capture was armed.  Driven
  /// deterministically in virtual time by obs::SloEngine burn-rate arming.
  void set_full_capture(bool on);
  bool full_capture() const { return full_capture_; }

  // --- recording ---

  /// A stream record: kept in its node's ring (spans, instants and logs
  /// subject to sampling), and charged to its request when that request is
  /// in flight — any record refreshes its activity, a span with a Cost
  /// category adds to its partial critical path, a request close ends it.
  void record(const TraceEvent& ev, std::uint64_t a1) override;
  /// Enters a request into the in-flight table.
  void open_request(const TraceEvent& ev) override;
  /// A log record straight into this recorder, installed or not.
  void log(const char* layer, const char* opcode, std::uint32_t node,
           std::uint64_t a0 = 0, std::uint64_t a1 = 0);
  /// Audit violation: ring record (node 0) ahead of any AuditError.
  void violation(const char* checker);

  // --- in-flight request table ---

  struct InFlight {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint32_t node = 0;
    SimNanos start = 0;
    SimNanos last_activity = 0;
    /// Partial critical path: nanoseconds charged per Cost category
    /// (index Cost-1) by spans closed so far.
    std::array<SimNanos, kCostCategories> cost_ns{};
  };
  const std::map<std::uint64_t, InFlight>& in_flight() const {
    return in_flight_;
  }

  // --- ring access (tests, dump writer) ---

  /// Nodes with at least one record, ascending.
  std::vector<std::uint32_t> nodes() const;
  /// Retained records for `node`, oldest first.
  std::vector<FlightRecord> records(std::uint32_t node) const;
  /// Total records ever kept for `node` (>= records().size()).
  std::uint64_t total_records(std::uint32_t node) const;
  /// Records offered for `node` including those dropped by sampling
  /// (>= total_records()).
  std::uint64_t offered_records(std::uint32_t node) const;

  // --- trips and dumps ---

  /// Snapshots state into a dcs-postmortem-v1 dump.  Writes
  /// `<dir>/<prefix>.<reason>.<n>.postmortem.json` when a dump directory is
  /// configured; always counts the trip and retains reason/detail.  A dump
  /// that cannot be written is reported on stderr and counted in
  /// lost_dumps(), so the run that lost its evidence can fail.
  /// Recursive trips (a trip tripping a checker) are ignored.
  void trip(const char* reason, const std::string& detail);
  /// The dump writer, exposed for deterministic-output tests.
  void write_postmortem(std::ostream& os, const char* reason,
                        const std::string& detail) const;
  std::uint64_t trips() const { return trips_; }
  const std::string& last_reason() const { return last_reason_; }
  const std::string& last_detail() const { return last_detail_; }
  const std::vector<std::string>& dump_paths() const { return dump_paths_; }
  std::uint64_t lost_dumps() const { return lost_dumps_; }

  // --- sim::StallHook ---

  SimNanos stall_horizon() const override { return config_.stall_horizon; }
  void on_time_jump(SimNanos from, SimNanos to) override;
  void on_wedged(std::size_t live_roots) override;

 private:
  struct Ring {
    std::vector<FlightRecord> buf;  // capacity-sized once warm
    std::uint64_t total = 0;        // records kept (pushed into the ring)
    std::uint64_t offered = 0;      // records offered, kept or sampled away
  };

  /// The one place a ring record is filled: offers `ev` to its node's
  /// ring — when `sampled`, subject to the capture policy, which keeps
  /// every Nth offered record per node unless in full capture — and
  /// updates the in-flight table.
  void keep(const TraceEvent& ev, std::uint64_t a1, bool sampled);

  sim::Engine& eng_;
  FlightConfig config_;
  std::map<std::uint32_t, Ring> rings_;
  std::map<std::uint64_t, InFlight> in_flight_;
  std::uint64_t trips_ = 0;
  std::uint64_t lost_dumps_ = 0;
  bool full_capture_ = false;
  bool tripping_ = false;
  std::string last_reason_;
  std::string last_detail_;
  std::vector<std::string> dump_paths_;
};

}  // namespace dcs::trace
