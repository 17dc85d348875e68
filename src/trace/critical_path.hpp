// Critical-path latency attribution over a finished trace.
//
// Every request root (trace::Request) defines an end-to-end window; cost
// spans recorded with the same request id (on any strand — the context
// follows verbs messages, TCP segments, and SDP deliveries) are the raw
// material.  The analyzer clips each cost interval to the request window
// and sweeps the window's elementary segments, charging each segment to
// the highest-precedence Cost category active over it (precedence is the
// Cost enum order: host-cpu > nic > wire > queueing > credit-stall >
// lock-wait, so a tight active-resource span wins over the broad wait that
// encloses it).  Whatever no cost span covers is the residual — reported,
// never hidden, because an honest residual is what tells you where
// instrumentation is still missing.
//
// Output is deterministic: requests are processed in request-id order
// (allocation order, itself deterministic) and numbers are printed with
// fixed precision, so two same-seed runs produce byte-identical reports.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "trace/trace.hpp"

namespace dcs::trace {

/// Attribution for one request (or an aggregate of many).
struct Breakdown {
  std::uint64_t request = 0;  // 0 for aggregates
  std::string name;           // request name, or aggregate label
  std::uint64_t count = 1;    // requests folded into this breakdown
  SimNanos total = 0;         // end-to-end window (summed for aggregates)
  // Indexed by static_cast<size_t>(Cost) - 1.
  std::array<SimNanos, kCostCategories> by_cost{};

  SimNanos attributed() const;
  SimNanos residual() const { return total - attributed(); }
  /// Fraction of the window the six categories explain, in [0, 1].
  double attributed_fraction() const;
};

/// Walks a tracer's finished event stream once and exposes per-request and
/// aggregate attributions.
class CriticalPath {
 public:
  explicit CriticalPath(const Tracer& tracer);

  /// One entry per request root, in request-id order.
  const std::vector<Breakdown>& requests() const { return requests_; }
  /// All requests folded together (label "all").
  const Breakdown& aggregate() const { return aggregate_; }

  /// Plain-text report: aggregate block plus a per-request-name table.
  void write_report(std::ostream& os) const;
  /// JSON object mirroring the report (schema: docs/BENCHMARKS.md).
  void write_json(std::ostream& os) const;

 private:
  std::vector<Breakdown> requests_;
  std::vector<Breakdown> by_name_;
  Breakdown aggregate_;
};

/// One breakdown as a JSON object ({"count", "total_us", "attributed_pct",
/// "costs_us": {...}, "residual_us"}) — the shape embedded both in the
/// critical-path JSON and in BENCH_*.json files.
void write_breakdown_json(std::ostream& os, const Breakdown& b);

}  // namespace dcs::trace
