// Cluster time-series store: windowed history over scraped telemetry.
//
// The monitor layer's TelemetryExporter/Scraper pair (PR 3) reproduces the
// paper's RDMA-Sync monitoring mechanism — a one-sided read of a mirrored
// registry page, zero target CPU — but a scrape is a point sample.  This
// store turns periodic sweeps into judgeable history:
//
//   counter    entries ingest as per-window DELTAS (what happened in this
//              window), so rates and budgets fall out of window sums;
//   gauge      entries keep the window's LAST value (instantaneous state);
//   histogram  entries ingest per-window BUCKET deltas of the exported
//              log-histogram, so per-window latency shape (p99 ceilings)
//              survives even though the source histogram is cumulative.
//
// Retention is a bounded ring per series: at most `retention` windows are
// kept and older windows age out, so a long-running health plane has a
// fixed footprint.  Everything is virtual-time driven and deterministic:
// same seed, same sweeps, byte-identical `dcs-timeseries-v1` dumps — for
// every `--shards` worker count, provided each partition ingests into its
// own store (merge() combines them by disjoint node sets).
//
// This header is part of the byte-stable emit closure (dcs-lint R3): only
// ordered, value-keyed containers appear here and in everything included.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "monitor/telemetry_schema.hpp"

namespace dcs::trace {
class ExemplarStore;
class Registry;
}  // namespace dcs::trace

/// Names a time-series at an ingest/rule site.  Expands to its argument;
/// it exists so dcs-lint rule R4 can require series names in code to be
/// string literals (grep-able, byte-stable dumps), exactly like
/// DCS_TRACE_* categories.
#define DCS_SERIES(name) name

namespace dcs::obs {

struct TimeSeriesConfig {
  /// Window width in virtual ns; samples at time t land in window t/window.
  SimNanos window = milliseconds(1);
  /// Ring bound: windows retained per series (older windows age out).
  std::size_t retention = 64;
};

/// How a series aggregates within a window (see header comment).
enum class SeriesKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Stable dump name ("counter", "gauge", "histogram").
const char* to_string(SeriesKind kind);

/// One retained window of one series.
struct SeriesWindow {
  std::uint64_t index = 0;  // sample time / config.window
  double value = 0.0;       // counter: delta; gauge: last value
  std::uint64_t count = 0;  // histogram: count delta
  /// Histogram bucket deltas, sparse and sorted by bucket.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
};

/// One named series on one node: bounded window ring plus the last raw
/// cumulative state (so the next ingest can compute deltas).
struct Series {
  SeriesKind kind = SeriesKind::kCounter;
  std::vector<SeriesWindow> windows;  // ascending index, size <= retention
  double last_raw = 0.0;
  std::uint64_t last_count = 0;
  std::vector<std::uint64_t> last_buckets;
};

class TimeSeriesStore {
 public:
  /// (node, series name) — the dump's sort order.
  using Key = std::pair<std::uint32_t, std::string>;

  explicit TimeSeriesStore(TimeSeriesConfig config = {});

  const TimeSeriesConfig& config() const { return config_; }

  /// Ingests one scraped snapshot for `node`, windowing each schema entry
  /// by its declared kind (counter/gauge scalars, histogram shapes).
  void ingest(std::uint32_t node, const monitor::TelemetrySchema& schema,
              const monitor::TelemetrySnapshot& snap);

  /// Ingests a registry sweep directly (no scrape path): counters and
  /// distributions as counter series (delta of value / sample count),
  /// gauges as gauges, histograms as histogram series.  Only the entries
  /// `reg.names()` lists (touched since its last reset) become series.
  /// Used by the bench harness, where every scenario's registry is already
  /// in hand.
  void ingest_registry(std::uint32_t node, SimNanos at,
                       const trace::Registry& reg);

  /// Folds `other` into this store.  Node sets must be disjoint (each
  /// partition of a sharded run ingests its own nodes); asserts otherwise.
  void merge(const TimeSeriesStore& other);

  const Series* find(std::uint32_t node, const std::string& name) const;
  /// Nodes with at least one series, ascending.
  std::vector<std::uint32_t> nodes() const;
  const std::map<Key, Series>& all() const { return series_; }

  /// Sum of counter deltas / histogram count deltas over the newest
  /// `last_windows` retained windows (0 = all retained).
  double window_sum(std::uint32_t node, const std::string& name,
                    std::size_t last_windows = 0) const;
  /// Newest gauge/counter window value; 0.0 when absent.
  double last_value(std::uint32_t node, const std::string& name) const;
  /// Quantile estimate (bucket upper bound, in the histogram's value unit)
  /// over the newest `last_windows` windows' bucket deltas; 0 when empty.
  /// q in [0,100].
  std::uint64_t quantile(std::uint32_t node, const std::string& name,
                         double q, std::size_t last_windows = 0) const;

 private:
  Series& at(std::uint32_t node, const std::string& name, SeriesKind kind);
  SeriesWindow& window_at(Series& s, std::uint64_t index);

  TimeSeriesConfig config_;
  // std::map keyed by (node, name): deterministic dump order for free.
  std::map<Key, Series> series_;
};

struct AlertEvent;    // obs/slo.hpp
class HeavyHitters;   // obs/heavy.hpp

/// Byte-stable `dcs-timeseries-v1` document, one run's health: config,
/// every series with its retained windows sorted by (node, name), the
/// alert-event stream, then the attribution sections — `hotset`, the
/// hot-key sketches (write_hotset_section), and `exemplars`, the tail
/// exemplars (trace::write_exemplar_section).
void write_timeseries_json(std::ostream& os, const TimeSeriesStore& store,
                           const std::vector<AlertEvent>& alerts,
                           const HeavyHitters& hot,
                           const trace::ExemplarStore& exemplars);

}  // namespace dcs::obs
