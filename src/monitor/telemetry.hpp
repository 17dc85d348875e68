// RDMA-scraped registry telemetry — the observability plane dogfooding the
// paper's RDMA-Sync monitoring scheme on our own metrics.
//
// Each exporting node's simulated kernel mirrors an agreed-upon slice of
// the trace::Registry into a registered telemetry page, exactly the way it
// mirrors scheduler statistics into the kernel page: a zero-CPU memcpy in
// kernel context.  A front-end scraper then RDMA-reads the page on demand
// (RDMA-Sync) — the target's CPU is never involved, so telemetry stays
// accurate under load, which is the paper's Section 5.2 argument applied
// to our own monitoring data.
//
// The schema (an ordered list of metric names) is agreed out of band by
// exporter and scraper, mimicking a real deployment where both sides ship
// the same protocol version.  Counters and gauges export their value,
// distributions their count, histograms their total count; absent names
// export 0.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "monitor/telemetry_schema.hpp"
#include "verbs/verbs.hpp"

namespace dcs::trace {
class Registry;
}  // namespace dcs::trace

namespace dcs::monitor {

using fabric::NodeId;

/// Target-side: registers a telemetry page and mirrors the registry into
/// it.  Mirroring is kernel-context work (like fabric::Node's kernel page
/// sync): zero simulated CPU, so exporting costs the target nothing.
///
/// The mirror source defaults to the current execution context's
/// trace::Registry::global(), which every layer running in that context
/// records into.  Workloads that want a page holding one service's
/// series alone (bench_datacenter_scale's serve path) pass an explicit
/// `source` registry instead.
class TelemetryExporter {
 public:
  TelemetryExporter(verbs::Network& net, NodeId node, TelemetrySchema schema,
                    SimNanos interval = milliseconds(1),
                    const trace::Registry* source = nullptr);

  /// Spawns the periodic mirror daemon (and publishes once immediately).
  /// `passes` bounds the daemon: after that many periodic mirrors the
  /// strand ends, so bounded runs (ShardedEngine::run drains to empty) can
  /// export without wedging the drain.  0 keeps the original behaviour:
  /// mirror forever.
  void start(std::uint64_t passes = 0);
  /// One immediate mirror pass.
  void publish();

  NodeId node() const { return node_; }
  const TelemetrySchema& schema() const { return schema_; }
  /// The registered page a scraper RDMA-reads.
  const verbs::RemoteRegion& region() const { return region_; }
  std::uint64_t publishes() const { return seq_; }

 private:
  verbs::Network& net_;
  NodeId node_;
  TelemetrySchema schema_;
  SimNanos interval_;
  const trace::Registry* source_;  // nullptr: the thread's global registry
  verbs::RemoteRegion region_;
  std::uint64_t seq_ = 0;
  bool started_ = false;
};

/// Front-end: RDMA-Sync scrape of remote exporters' telemetry pages.
class TelemetryScraper {
 public:
  TelemetryScraper(verbs::Network& net, NodeId frontend);

  /// Shares the exporter's region + schema with this front-end.
  void attach(const TelemetryExporter& exporter);

  /// One-sided read of `target`'s page; no target-CPU involvement.
  sim::Task<TelemetrySnapshot> scrape(NodeId target);

  /// Scrapes N pages with ONE batched work queue: every page read rides a
  /// single doorbell (scatter-gather: the 8-byte export seq and the metric
  /// block land in separate local segments) and the scraper wakes once when
  /// the last page arrives.  Still zero CPU on every target.  Snapshots are
  /// returned in `targets` order.
  sim::Task<std::vector<TelemetrySnapshot>> scrape_many(
      std::span<const NodeId> targets);

  std::uint64_t scrapes() const { return scrapes_; }

 private:
  struct Attached {
    verbs::RemoteRegion region;
    std::vector<TelemetrySchema::Entry> entries;
  };

  /// Decodes a scraped page image into a snapshot.
  TelemetrySnapshot parse_page(const Attached& a,
                               std::span<const std::byte> img) const;

  verbs::Network& net_;
  NodeId frontend_;
  std::map<NodeId, Attached> attached_;
  std::uint64_t scrapes_ = 0;
};

}  // namespace dcs::monitor
