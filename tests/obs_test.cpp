// The obs layer's single-store contracts: windowed ingest semantics
// (counter deltas, gauge last-value, histogram bucket deltas), the bounded
// retention ring, quantile estimation, the byte-stable dcs-timeseries-v1
// dump, SLO rule parsing/evaluation (p99 / rate / multi-window burn), the
// alert -> flight-recorder -> post-mortem wiring, and the offline `dcs
// top` / `dcs flame` entry points.  The sharded/torn-read side lives in
// obs_shard_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "monitor/telemetry_schema.hpp"
#include "obs/flame.hpp"
#include "obs/harness.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/top.hpp"
#include "sim/engine.hpp"
#include "trace/flight.hpp"
#include "trace/inspect.hpp"
#include "trace/trace.hpp"

namespace dcs {
namespace {

using monitor::HistogramSnapshot;
using monitor::MetricKind;
using monitor::TelemetrySchema;
using monitor::TelemetrySnapshot;
using obs::AlertEvent;
using obs::SeriesKind;
using obs::SloEngine;
using obs::SloKind;
using obs::SloRule;
using obs::TimeSeriesStore;

TelemetrySchema scalar_schema() {
  return TelemetrySchema(std::vector<TelemetrySchema::Entry>{
      {"t.total", MetricKind::kCounter}, {"t.depth", MetricKind::kGauge}});
}

TelemetrySnapshot scalar_snap(SimNanos at, double total, double depth) {
  TelemetrySnapshot snap;
  snap.scraped_at = at;
  snap.values = {{"t.total", total}, {"t.depth", depth}};
  return snap;
}

TEST(TimeSeriesStoreTest, CounterWindowsAreDeltasAndGaugesKeepLastValue) {
  TimeSeriesStore store({.window = 1000, .retention = 8});
  const auto schema = scalar_schema();
  store.ingest(0, schema, scalar_snap(500, 5.0, 3.0));
  store.ingest(0, schema, scalar_snap(900, 7.0, 1.0));   // same window
  store.ingest(0, schema, scalar_snap(1500, 9.0, 4.0));  // next window
  store.ingest(0, schema, scalar_snap(2500, 9.0, 4.0));  // idle window

  const obs::Series* total = store.find(0, "t.total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->kind, SeriesKind::kCounter);
  ASSERT_EQ(total->windows.size(), 3u);
  EXPECT_EQ(total->windows[0].index, 0u);
  EXPECT_DOUBLE_EQ(total->windows[0].value, 7.0);  // 5 then +2 in window 0
  EXPECT_DOUBLE_EQ(total->windows[1].value, 2.0);  // 7 -> 9
  EXPECT_DOUBLE_EQ(total->windows[2].value, 0.0);  // idle

  const obs::Series* depth = store.find(0, "t.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->kind, SeriesKind::kGauge);
  EXPECT_DOUBLE_EQ(depth->windows[0].value, 1.0);  // last value wins

  EXPECT_DOUBLE_EQ(store.window_sum(0, "t.total"), 9.0);
  EXPECT_DOUBLE_EQ(store.window_sum(0, "t.total", 2), 2.0);
  EXPECT_DOUBLE_EQ(store.last_value(0, "t.depth"), 4.0);
  EXPECT_DOUBLE_EQ(store.last_value(0, "t.total"), 0.0);  // newest delta
}

TEST(TimeSeriesStoreTest, RetentionRingAgesOutOldWindows) {
  TimeSeriesStore store({.window = 1000, .retention = 4});
  const auto schema = scalar_schema();
  for (std::uint64_t w = 0; w < 10; ++w) {
    store.ingest(3, schema,
                 scalar_snap(static_cast<SimNanos>(w * 1000 + 1),
                             static_cast<double>(w), 0.0));
  }
  const obs::Series* s = store.find(3, "t.total");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->windows.size(), 4u);
  EXPECT_EQ(s->windows.front().index, 6u);
  EXPECT_EQ(s->windows.back().index, 9u);
  // window_sum only sees retained windows: four 1.0 deltas.
  EXPECT_DOUBLE_EQ(store.window_sum(3, "t.total"), 4.0);
}

TelemetrySchema hist_schema() {
  return TelemetrySchema(std::vector<TelemetrySchema::Entry>{
      {"t.lat", MetricKind::kHistogram}});
}

TelemetrySnapshot hist_snap(SimNanos at, const LogHistogram& h) {
  TelemetrySnapshot snap;
  snap.scraped_at = at;
  HistogramSnapshot hs;
  hs.count = h.count();
  for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b) {
    hs.buckets.push_back(h.bucket_count(b));
  }
  snap.values = {{"t.lat", static_cast<double>(h.count())}};
  snap.hists = {{"t.lat", hs}};
  return snap;
}

TEST(TimeSeriesStoreTest, HistogramWindowsAreSparseBucketDeltas) {
  TimeSeriesStore store({.window = 1000, .retention = 8});
  const auto schema = hist_schema();
  LogHistogram h;
  for (int i = 0; i < 10; ++i) h.add(100);  // bucket 7: (64, 128]
  store.ingest(0, schema, hist_snap(500, h));
  h.add(100000);  // bucket 17
  store.ingest(0, schema, hist_snap(1500, h));

  const obs::Series* s = store.find(0, "t.lat");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, SeriesKind::kHistogram);
  ASSERT_EQ(s->windows.size(), 2u);
  EXPECT_EQ(s->windows[0].count, 10u);
  ASSERT_EQ(s->windows[0].buckets.size(), 1u);
  EXPECT_EQ(s->windows[0].buckets[0].second, 10u);
  // Window 1 only carries the one NEW sample, not the cumulative state.
  EXPECT_EQ(s->windows[1].count, 1u);
  ASSERT_EQ(s->windows[1].buckets.size(), 1u);
  EXPECT_EQ(s->windows[1].buckets[0].second, 1u);

  // Quantile estimates are bucket upper bounds over the window deltas.
  const std::uint64_t p50 = store.quantile(0, "t.lat", 50.0);
  EXPECT_GE(p50, 100u);
  EXPECT_LE(p50, 128u);
  EXPECT_GE(store.quantile(0, "t.lat", 100.0), 100000u);
  // Restricted to the newest window the slow sample dominates.
  EXPECT_GE(store.quantile(0, "t.lat", 50.0, 1), 100000u);
  EXPECT_EQ(store.quantile(0, "t.missing", 99.0), 0u);
}

TEST(TimeSeriesStoreTest, IngestRegistryMapsMetricKinds) {
  trace::Registry reg;
  reg.counter("r.count").add(7);
  reg.gauge("r.gauge").set(2.5);
  reg.distribution("r.dist").record(10.0);
  reg.distribution("r.dist").record(20.0);
  reg.histogram("r.hist").record(500);

  TimeSeriesStore store({.window = 1000, .retention = 8});
  store.ingest_registry(1, 500, reg);

  ASSERT_NE(store.find(1, "r.count"), nullptr);
  EXPECT_EQ(store.find(1, "r.count")->kind, SeriesKind::kCounter);
  EXPECT_DOUBLE_EQ(store.window_sum(1, "r.count"), 7.0);
  ASSERT_NE(store.find(1, "r.gauge"), nullptr);
  EXPECT_EQ(store.find(1, "r.gauge")->kind, SeriesKind::kGauge);
  EXPECT_DOUBLE_EQ(store.last_value(1, "r.gauge"), 2.5);
  // Distributions ingest their sample count as a counter series.
  EXPECT_DOUBLE_EQ(store.window_sum(1, "r.dist"), 2.0);
  ASSERT_NE(store.find(1, "r.hist"), nullptr);
  EXPECT_EQ(store.find(1, "r.hist")->kind, SeriesKind::kHistogram);
  EXPECT_EQ(store.find(1, "r.hist")->windows[0].count, 1u);
}

TEST(TimeSeriesStoreTest, MergeCombinesDisjointNodeSets) {
  const auto schema = scalar_schema();
  TimeSeriesStore a({.window = 1000, .retention = 8});
  a.ingest(0, schema, scalar_snap(500, 3.0, 1.0));
  TimeSeriesStore b({.window = 1000, .retention = 8});
  b.ingest(2, schema, scalar_snap(500, 5.0, 2.0));

  a.merge(b);
  EXPECT_EQ(a.nodes(), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_DOUBLE_EQ(a.window_sum(0, "t.total"), 3.0);
  EXPECT_DOUBLE_EQ(a.window_sum(2, "t.total"), 5.0);
}

TEST(TimeSeriesStoreTest, DumpIsByteStable) {
  const auto build = [] {
    TimeSeriesStore store({.window = 1000, .retention = 8});
    const auto schema = scalar_schema();
    store.ingest(1, schema, scalar_snap(500, 4.0, 2.0));
    store.ingest(0, schema, scalar_snap(500, 2.0, 1.0));
    store.ingest(0, schema, scalar_snap(1500, 6.0, 3.0));
    std::vector<AlertEvent> alerts = {
        {1500, "r", 0, true, 2.5, 1.0}};
    std::ostringstream os;
    write_timeseries_json(os, store, alerts);
    return os.str();
  };
  const std::string first = build();
  EXPECT_EQ(first, build());
  EXPECT_NE(first.find("\"schema\": \"dcs-timeseries-v1\""), std::string::npos);
  EXPECT_NE(first.find("\"alerts\""), std::string::npos);
  // Node 0 must dump before node 1 regardless of ingest order.
  EXPECT_LT(first.find("\"node\": 0"), first.find("\"node\": 1"));
}

/// Runs scenario "a" (touching x.a) when `with_a`, then scenario "b"
/// (touching x.b), and returns b's registry object as its dcs-bench-v1 file
/// prints it.
std::string registry_of_b(bool with_a) {
  obs::HarnessOptions opts;
  opts.bench_json = ::testing::TempDir() + "/obs_harness_ab.json";
  obs::Harness h("ab", opts);
  if (with_a) {
    h.run("a", [](obs::Scenario&) {
      trace::Registry::global().counter("x.a").add(1);
    });
  }
  h.run("b", [](obs::Scenario&) {
    trace::Registry::global().counter("x.b").add(2);
  });
  EXPECT_EQ(h.finish(), 0);
  const trace::inspect::Json doc =
      trace::inspect::parse_json_file(opts.bench_json);
  const trace::inspect::Json* b = doc.find("scenarios")->find("b");
  if (b == nullptr) return "no scenario b";
  std::string out;
  for (const auto& [name, value] : b->find("registry")->fields) {
    out += name + "=" + value.raw + ";";
  }
  return out;
}

TEST(HarnessTest, SnapshotListsOnlyWhatItsScenarioTouched) {
  const std::string after_a = registry_of_b(true);
  EXPECT_EQ(after_a, "x.b=2;");  // no zero-valued x.a left over from "a"
  EXPECT_EQ(after_a, registry_of_b(false));
}

sim::Task<void> no_op() { co_return; }

/// Awaits `n` child tasks, one timer apart: n frames in the run phase.
sim::Task<void> await_children(sim::Engine& eng, int n) {
  for (int i = 0; i < n; ++i) {
    co_await no_op();
    co_await eng.delay(1);
  }
}

/// The "frames" field of scenario "s" in the wall file `h` wrote.
std::string wall_frames(obs::Harness& h, const std::string& path) {
  EXPECT_EQ(h.finish(), 0);
  const trace::inspect::Json doc = trace::inspect::parse_json_file(path);
  const trace::inspect::Json* frames =
      doc.find("scenarios")->find("s")->find("frames");
  return frames != nullptr ? frames->raw : "missing";
}

TEST(HarnessTest, WallFramesCountTheRunPhaseOnly) {
  // The root is spawned before run(), so only its 5 children count.
  obs::HarnessOptions opts;
  opts.wall_json = ::testing::TempDir() + "/obs_harness_frames.wall.json";
  obs::Harness h("frames", opts);
  h.run("s", [](obs::Scenario& s) {
    s.engine().spawn(await_children(s.engine(), 5));
    s.engine().run();
  });
  EXPECT_EQ(wall_frames(h, opts.wall_json), "5");
}

TEST(HarnessTest, ShardedWallFramesSumEveryWorker) {
  // 4 partitions, each running 3 children: 12 frames for any worker count.
  for (const std::uint32_t workers : {1u, 2u}) {
    obs::HarnessOptions opts;
    opts.wall_json = ::testing::TempDir() + "/obs_harness_frames_" +
                     std::to_string(workers) + ".wall.json";
    obs::Harness h("frames", opts);
    h.run_sharded(
        "s", {.partitions = 4, .workers = workers, .lookahead = 10},
        [](sim::Shard& shard) {
          shard.engine().spawn(await_children(shard.engine(), 3));
        },
        [](obs::ShardedScenario&) {});
    EXPECT_EQ(wall_frames(h, opts.wall_json), "12") << workers << " workers";
  }
}

TEST(SloRulesTest, ParsesEveryRuleKind) {
  std::istringstream in(
      "# latency and budget rules\n"
      "rule lat p99 series=t.lat threshold=200000 quantile=95 windows=6\n"
      "rule frac rate series=t.slow total=t.total max=0.05 windows=3\n"
      "rule budget burn series=t.slow total=t.total budget=0.01 fast=2 "
      "slow=8 fast_burn=4 slow_burn=2 postmortem\n");
  std::string error;
  const auto rules = obs::parse_slo_rules(in, &error);
  ASSERT_EQ(error, "");
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].kind, SloKind::kP99Ceiling);
  EXPECT_DOUBLE_EQ(rules[0].threshold, 200000.0);
  EXPECT_DOUBLE_EQ(rules[0].quantile, 95.0);
  EXPECT_EQ(rules[0].windows, 6u);
  EXPECT_EQ(rules[1].kind, SloKind::kRateCeiling);
  EXPECT_EQ(rules[1].total, "t.total");
  EXPECT_DOUBLE_EQ(rules[1].threshold, 0.05);
  EXPECT_EQ(rules[2].kind, SloKind::kBurnRate);
  EXPECT_EQ(rules[2].fast_windows, 2u);
  EXPECT_EQ(rules[2].slow_windows, 8u);
  EXPECT_TRUE(rules[2].trip_postmortem);
}

TEST(SloRulesTest, RejectsMalformedInputWithLineNumbers) {
  std::string error;
  {
    std::istringstream in("rule ok rate series=a total=b max=0.1\nwat\n");
    EXPECT_TRUE(obs::parse_slo_rules(in, &error).empty());
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  }
  {
    std::istringstream in("rule r rate total=b max=0.1\n");
    EXPECT_TRUE(obs::parse_slo_rules(in, &error).empty());
    EXPECT_NE(error.find("series"), std::string::npos) << error;
  }
  {
    std::istringstream in("# only comments\n\n");
    EXPECT_TRUE(obs::parse_slo_rules(in, &error).empty());
    EXPECT_NE(error.find("no rules"), std::string::npos) << error;
  }
}

/// Feeds (t.slow, t.total) counter windows into a store: each window adds
/// `slow` bad events out of 100 total, keeping the cumulative scrape state
/// (counters are monotonic on the wire — the store ingests the deltas).
class PairFeeder {
 public:
  explicit PairFeeder(TimeSeriesStore& store) : store_(store) {}

  void window(double slow) {
    slow_ += slow;
    total_ += 100.0;
    TelemetrySnapshot snap;
    snap.scraped_at = at_;
    snap.values = {{"t.slow", slow_}, {"t.total", total_}};
    store_.ingest(0, schema_, snap);
    at_ += 1000;
  }

 private:
  TimeSeriesStore& store_;
  TelemetrySchema schema_{std::vector<TelemetrySchema::Entry>{
      {"t.slow", MetricKind::kCounter}, {"t.total", MetricKind::kCounter}}};
  SimNanos at_ = 500;
  double slow_ = 0.0;
  double total_ = 0.0;
};

TEST(SloEngineTest, RateRuleFiresAndResolves) {
  TimeSeriesStore store({.window = 1000, .retention = 16});
  PairFeeder feed(store);
  SloEngine slo(store);
  SloRule rule;
  rule.name = DCS_SLO_NAME("slow-frac");
  rule.kind = SloKind::kRateCeiling;
  rule.series = DCS_SERIES("t.slow");
  rule.total = DCS_SERIES("t.total");
  rule.threshold = 0.05;
  rule.windows = 2;
  slo.add_rule(rule);

  feed.window(2.0);  // 2% < 5%: quiet
  slo.evaluate(1000);
  EXPECT_TRUE(slo.alerts().empty());
  EXPECT_TRUE(slo.firing().empty());

  feed.window(40.0);  // 21% over the last 2 windows
  slo.evaluate(2000);
  ASSERT_EQ(slo.alerts().size(), 1u);
  EXPECT_TRUE(slo.alerts()[0].firing);
  EXPECT_EQ(slo.alerts()[0].rule, "slow-frac");
  EXPECT_GT(slo.alerts()[0].value, 0.05);
  ASSERT_EQ(slo.firing().size(), 1u);

  // Re-evaluating while still firing adds no duplicate transition.
  slo.evaluate(2500);
  EXPECT_EQ(slo.alerts().size(), 1u);

  // Two quiet windows push the breach out of the evaluation horizon.
  feed.window(0.0);
  feed.window(0.0);
  slo.evaluate(4000);
  ASSERT_EQ(slo.alerts().size(), 2u);
  EXPECT_FALSE(slo.alerts()[1].firing);
  EXPECT_TRUE(slo.firing().empty());
}

TEST(SloEngineTest, BurnRateUsesFastAndSlowWindows) {
  // budget 10%, fast=1 window at 4x, slow=4 windows at 2x.
  SloRule rule;
  rule.name = DCS_SLO_NAME("burn");
  rule.kind = SloKind::kBurnRate;
  rule.series = DCS_SERIES("t.slow");
  rule.total = DCS_SERIES("t.total");
  rule.threshold = 0.10;
  rule.fast_windows = 1;
  rule.slow_windows = 4;
  rule.fast_burn = 4.0;
  rule.slow_burn = 2.0;

  {
    // 30% bad in one window: fast burn 3 < 4, slow burn diluted: quiet.
    TimeSeriesStore store({.window = 1000, .retention = 16});
    PairFeeder feed(store);
    SloEngine slo(store);
    slo.add_rule(rule);
    for (const double s : {0.0, 0.0, 0.0, 30.0}) feed.window(s);
    slo.evaluate(4000);
    EXPECT_TRUE(slo.alerts().empty());
  }
  {
    // 60% bad in the newest window: fast burn 6/4 = 1.5 > 1 fires even
    // though the slow window is still mostly quiet.
    TimeSeriesStore store({.window = 1000, .retention = 16});
    PairFeeder feed(store);
    SloEngine slo(store);
    slo.add_rule(rule);
    for (const double s : {0.0, 0.0, 0.0, 60.0}) feed.window(s);
    slo.evaluate(4000);
    ASSERT_EQ(slo.alerts().size(), 1u);
    EXPECT_TRUE(slo.alerts()[0].firing);
    EXPECT_DOUBLE_EQ(slo.alerts()[0].value, 1.5);
    EXPECT_DOUBLE_EQ(slo.alerts()[0].threshold, 1.0);
  }
  {
    // Sustained 25% bad: each fast window burns at 2.5 < 4, but the slow
    // window burns at 2.5/2 = 1.25 > 1 — the low-grade leak case.
    TimeSeriesStore store({.window = 1000, .retention = 16});
    PairFeeder feed(store);
    SloEngine slo(store);
    slo.add_rule(rule);
    for (int i = 0; i < 4; ++i) feed.window(25.0);
    slo.evaluate(4000);
    ASSERT_EQ(slo.alerts().size(), 1u);
    EXPECT_DOUBLE_EQ(slo.alerts()[0].value, 1.25);
  }
}

TEST(SloEngineTest, P99RuleJudgesHistogramQuantile) {
  TimeSeriesStore store({.window = 1000, .retention = 16});
  const auto schema = hist_schema();
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.add(1000);
  store.ingest(0, schema, hist_snap(500, h));
  SloEngine slo(store);
  SloRule rule;
  rule.name = DCS_SLO_NAME("lat-p99");
  rule.kind = SloKind::kP99Ceiling;
  rule.series = DCS_SERIES("t.lat");
  rule.threshold = 10000.0;
  slo.add_rule(rule);
  slo.evaluate(1000);
  EXPECT_TRUE(slo.alerts().empty());

  for (int i = 0; i < 10; ++i) h.add(1000000);  // new 9% tail over threshold
  store.ingest(0, schema, hist_snap(1500, h));
  slo.evaluate(2000);
  ASSERT_EQ(slo.alerts().size(), 1u);
  EXPECT_TRUE(slo.alerts()[0].firing);
  EXPECT_GT(slo.alerts()[0].value, 10000.0);
}

TEST(SloEngineTest, FiringTransitionLogsFlightAndTripsPostmortem) {
  sim::Engine eng;
  const std::string dir = ::testing::TempDir();
  trace::FlightRecorder flight(
      eng, trace::FlightConfig{.postmortem_dir = dir, .prefix = "obs_test"});

  TimeSeriesStore store({.window = 1000, .retention = 16});
  SloEngine slo(store);
  SloRule rule;
  rule.name = DCS_SLO_NAME("tripping");
  rule.kind = SloKind::kRateCeiling;
  rule.series = DCS_SERIES("t.slow");
  rule.total = DCS_SERIES("t.total");
  rule.threshold = 0.05;
  rule.windows = 1;
  rule.trip_postmortem = true;
  slo.add_rule(rule);
  slo.set_flight(&flight);

  PairFeeder feed(store);
  feed.window(50.0);
  slo.evaluate(1000);
  ASSERT_EQ(slo.alerts().size(), 1u);
  EXPECT_EQ(flight.trips(), 1u);
  EXPECT_EQ(flight.last_reason(), "slo");
  std::ifstream dump(dir + "/obs_test.slo.1.postmortem.json");
  EXPECT_TRUE(dump.good());
}

TEST(SloEngineTest, AbsorbKeepsTheStreamSorted) {
  TimeSeriesStore store({.window = 1000, .retention = 16});
  SloEngine slo(store);
  slo.absorb({{2000, "b", 0, true, 1.0, 1.0}});
  slo.absorb({{1000, "a", 1, true, 1.0, 1.0}, {2000, "a", 0, false, 0.0, 1.0}});
  ASSERT_EQ(slo.alerts().size(), 3u);
  EXPECT_EQ(slo.alerts()[0].rule, "a");
  EXPECT_EQ(slo.alerts()[0].time, 1000);
  EXPECT_EQ(slo.alerts()[1].rule, "a");  // (2000, a) before (2000, b)
  EXPECT_EQ(slo.alerts()[2].rule, "b");
}

TEST(SloEngineTest, AlertStreamFormatIsByteStable) {
  std::ostringstream os;
  obs::write_alert_stream(
      os, {{161200, "serve-slow-burn", 3, true, 10.0, 1.0},
           {200000, "serve-slow-burn", 3, false, 0.5, 1.0}});
  EXPECT_EQ(os.str(),
            "ALERT 161200 serve-slow-burn node=3 firing value=10.000 "
            "threshold=1.000\n"
            "ALERT 200000 serve-slow-burn node=3 resolved value=0.500 "
            "threshold=1.000\n");
}

TEST(TopTest, SelfCheckAcceptsRealDumpAndRejectsBadSchema) {
  const std::string good = ::testing::TempDir() + "/obs_top_good.json";
  {
    TimeSeriesStore store({.window = 1000, .retention = 8});
    store.ingest(0, scalar_schema(), scalar_snap(500, 5.0, 1.0));
    std::ofstream os(good);
    write_timeseries_json(os, store, {});
  }
  obs::TopOptions self_check;
  self_check.self_check = true;
  std::ostringstream out, err;
  EXPECT_EQ(obs::run_top(good, self_check, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("self-check ok"), std::string::npos) << out.str();

  const std::string bad = ::testing::TempDir() + "/obs_top_bad.json";
  {
    std::ofstream os(bad);
    os << "{\"schema\": \"dcs-bench-v1\"}\n";
  }
  std::ostringstream out2, err2;
  EXPECT_EQ(obs::run_top(bad, self_check, out2, err2), 2);
  EXPECT_EQ(obs::run_top("/nonexistent/x.json", {}, out2, err2), 2);
}

TEST(TopTest, RendersTablesAndFiringAlerts) {
  const std::string path = ::testing::TempDir() + "/obs_top_render.json";
  {
    TimeSeriesStore store({.window = 1000, .retention = 8});
    store.ingest(0, scalar_schema(), scalar_snap(500, 5.0, 1.0));
    store.ingest(1, scalar_schema(), scalar_snap(500, 9.0, 2.0));
    std::ofstream os(path);
    write_timeseries_json(os, store,
                          {{1000, "hot", 1, true, 2.0, 1.0}});
  }
  std::ostringstream out, err;
  ASSERT_EQ(obs::run_top(path, {}, out, err), 0) << err.str();
  // Tables aggregate by node and by layer (the prefix before the dot).
  EXPECT_NE(out.str().find("cluster health"), std::string::npos);
  EXPECT_NE(out.str().find("node     series"), std::string::npos);
  EXPECT_NE(out.str().find("layer"), std::string::npos);
  EXPECT_NE(out.str().find("FIRING hot node=1"), std::string::npos)
      << out.str();

  // --node filters to one node's series.
  obs::TopOptions one_node;
  one_node.node = 0;
  std::ostringstream out1, err1;
  ASSERT_EQ(obs::run_top(path, one_node, out1, err1), 0);
  EXPECT_LT(out1.str().size(), out.str().size());
}

TEST(FlameTest, ExportsSelfTimeStacksFromChromeTrace) {
  const std::string path = ::testing::TempDir() + "/obs_flame_trace.json";
  {
    std::ofstream os(path);
    os << "{\"traceEvents\": [\n"
          " {\"ph\": \"X\", \"cat\": \"request\", \"name\": \"get\", "
          "\"dur\": 10.000, \"args\": {\"request\": 7}},\n"
          " {\"ph\": \"X\", \"cat\": \"dlm\", \"name\": \"lock\", "
          "\"dur\": 10.000, \"args\": {\"request\": 7, \"span\": 1}},\n"
          " {\"ph\": \"X\", \"cat\": \"verbs\", \"name\": \"cas\", "
          "\"dur\": 4.000, \"args\": {\"request\": 7, \"span\": 2, "
          "\"parent\": 1}}\n"
          "]}\n";
  }
  std::ostringstream out, err;
  ASSERT_EQ(obs::run_flame(path, out, err), 0) << err.str();
  const std::string profile = out.str();
  EXPECT_NE(profile.find("speedscope"), std::string::npos);
  EXPECT_NE(profile.find("request:get"), std::string::npos);
  EXPECT_NE(profile.find("dlm.lock"), std::string::npos);
  EXPECT_NE(profile.find("verbs.cas"), std::string::npos);
  // Parent self time = 10000ns - 4000ns child; the leaf keeps its 4000ns.
  EXPECT_NE(profile.find("6000"), std::string::npos);
  EXPECT_NE(profile.find("4000"), std::string::npos);
  // Byte-stable across repeated export.
  std::ostringstream out2, err2;
  ASSERT_EQ(obs::run_flame(path, out2, err2), 0);
  EXPECT_EQ(profile, out2.str());

  std::ostringstream out3, err3;
  EXPECT_EQ(obs::run_flame("/nonexistent/trace.json", out3, err3), 2);
  const std::string not_trace = ::testing::TempDir() + "/obs_flame_bad.json";
  {
    std::ofstream os(not_trace);
    os << "{\"schema\": \"dcs-bench-v1\"}\n";
  }
  EXPECT_EQ(obs::run_flame(not_trace, out3, err3), 2);
}

}  // namespace
}  // namespace dcs
