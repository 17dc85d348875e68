// The attribution layer's single-process contracts: the DCS_HOT macro and
// its ambient sink, the space-saving top-K sketch against an exact-count
// oracle under Zipf keys, the exemplar store's grouping-independent merge,
// sampled vs trigger-armed full flight capture, the SloEngine arm/disarm
// transitions, and `dcs explain --self-check` over generated documents.  The
// sharded byte-identity side lives in hot_shard_test.cpp.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/zipf.hpp"
#include "monitor/telemetry_schema.hpp"
#include "obs/explain.hpp"
#include "obs/heavy.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/engine.hpp"
#include "trace/exemplar.hpp"
#include "trace/flight.hpp"
#include "trace/hot.hpp"

namespace dcs {
namespace {

using monitor::MetricKind;
using monitor::TelemetrySchema;
using monitor::TelemetrySnapshot;
using obs::HeavyHitters;
using obs::HotEntry;
using obs::SloEngine;
using obs::SloKind;
using obs::SloRule;
using obs::TimeSeriesStore;
using trace::ExemplarStore;

// --- HeavyHitters: the space-saving sketch --------------------------------

TEST(HeavyHittersTest, ExactWhenUnderCapacity) {
  HeavyHitters hh(8);
  hh.record_hot("d", 1, 3);
  hh.record_hot("d", 2, 1);
  hh.record_hot("d", 1, 2);
  const auto top = hh.top("d", 8);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], (HotEntry{1, 5, 0}));
  EXPECT_EQ(top[1], (HotEntry{2, 1, 0}));
  EXPECT_EQ(hh.total("d"), 6u);
  EXPECT_EQ(hh.domains(), (std::vector<std::string>{"d"}));
}

TEST(HeavyHittersTest, SketchBoundsHoldAgainstExactOracleUnderZipf) {
  // A capacity-8 sketch over 64 Zipf-distributed keys: every reported
  // count must bracket the true count (count - error <= true <= count),
  // any key with true weight > total/capacity must be present, and the
  // sum of sketch counts must equal the offered total (the space-saving
  // invariant `dcs explain --self-check` re-verifies from the dump).
  constexpr std::size_t kCapacity = 8;
  constexpr std::size_t kKeys = 64;
  constexpr int kSamples = 2000;
  HeavyHitters hh(kCapacity);
  std::map<std::uint64_t, std::uint64_t> exact;
  Rng rng(99);
  ZipfSampler zipf(kKeys, 0.9);
  for (int i = 0; i < kSamples; ++i) {
    const auto key = static_cast<std::uint64_t>(zipf.sample(rng));
    hh.record_hot("zipf", key, 1);
    ++exact[key];
  }
  const auto top = hh.top("zipf", kCapacity);
  ASSERT_LE(top.size(), kCapacity);
  EXPECT_EQ(hh.total("zipf"), static_cast<std::uint64_t>(kSamples));
  std::uint64_t count_sum = 0;
  for (const auto& e : top) {
    count_sum += e.count;
    const auto it = exact.find(e.key);
    const std::uint64_t truth = it == exact.end() ? 0 : it->second;
    EXPECT_LE(truth, e.count) << "key " << e.key;
    EXPECT_GE(truth, e.count - e.error) << "key " << e.key;
  }
  EXPECT_EQ(count_sum, static_cast<std::uint64_t>(kSamples));
  // The classic guarantee: keys heavier than total/capacity are present.
  for (const auto& [key, truth] : exact) {
    if (truth <= kSamples / kCapacity) continue;
    bool present = false;
    for (const auto& e : top) present = present || e.key == key;
    EXPECT_TRUE(present) << "heavy key " << key << " (" << truth
                         << ") evicted";
  }
}

TEST(HeavyHittersTest, SameStreamProducesByteIdenticalDumps) {
  const auto feed = [](HeavyHitters& hh) {
    Rng rng(7);
    ZipfSampler zipf(32, 0.8);
    for (int i = 0; i < 500; ++i) {
      hh.record_hot("obj", static_cast<std::uint64_t>(zipf.sample(rng)), 1);
      if (i % 3 == 0) hh.record_hot("lock", i % 5, 1);
    }
  };
  HeavyHitters a(4), b(4);
  feed(a);
  feed(b);
  std::ostringstream da, db;
  obs::write_hotset_section(da, a);
  obs::write_hotset_section(db, b);
  EXPECT_EQ(da.str(), db.str());
  EXPECT_NE(da.str().find("\"domain\": \"obj\""), std::string::npos);
}

TEST(HeavyHittersTest, MergeOfDisjointPartitionsEqualsTheUnion) {
  // The sharded-bench discipline: each observation lands in exactly one
  // per-partition sketch; merging in partition order must reproduce the
  // whole-stream sketch when no partition overflows.
  HeavyHitters whole(16), p0(16), p1(16);
  for (std::uint64_t k = 0; k < 8; ++k) {
    whole.record_hot("d", k, k + 1);
    (k % 2 == 0 ? p0 : p1).record_hot("d", k, k + 1);
  }
  HeavyHitters merged(16);
  merged.merge(p0);
  merged.merge(p1);
  std::ostringstream dw, dm;
  obs::write_hotset_section(dw, whole);
  obs::write_hotset_section(dm, merged);
  EXPECT_EQ(dm.str(), dw.str());
  EXPECT_EQ(merged.total("d"), whole.total("d"));
}

// --- DCS_HOT and the ambient sink -----------------------------------------

TEST(HotSinkTest, MacroIsInertWithNoSinkAndRoutesWhenScoped) {
  HeavyHitters hh(4);
  DCS_HOT("t.obj", 1, 1);  // no sink armed: must not touch anything
  EXPECT_TRUE(hh.domains().empty());
  {
    trace::ScopedHotSink scope(&hh);
    EXPECT_EQ(trace::current_hot_sink(), &hh);
    DCS_HOT("t.obj", 1, 2);
    DCS_HOT("t.obj", 1, 0);  // zero weight: dropped, not a key
  }
  EXPECT_EQ(trace::current_hot_sink(), nullptr);
  DCS_HOT("t.obj", 2, 5);  // disarmed again
  const auto top = hh.top("t.obj", 4);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], (HotEntry{1, 2, 0}));
}

TEST(HotSinkTest, ScopedSinksNestAndRestore) {
  HeavyHitters outer(4), inner(4);
  trace::ScopedHotSink a(&outer);
  {
    trace::ScopedHotSink b(&inner);
    DCS_HOT("n", 1, 1);
  }
  DCS_HOT("n", 2, 1);
  EXPECT_EQ(inner.total("n"), 1u);
  EXPECT_EQ(outer.total("n"), 1u);
  ASSERT_EQ(outer.top("n", 4).size(), 1u);
  EXPECT_EQ(outer.top("n", 4)[0].key, 2u);
}

// --- ExemplarStore --------------------------------------------------------

std::array<SimNanos, trace::kCostCategories> split_of(SimNanos host,
                                                      SimNanos wire) {
  std::array<SimNanos, trace::kCostCategories> s{};
  s[static_cast<std::size_t>(trace::Cost::kHostCpu) - 1] = host;
  s[static_cast<std::size_t>(trace::Cost::kWire) - 1] = wire;
  return s;
}

TEST(ExemplarStoreTest, KeepsTheMaxLatencyRequestPerBucket) {
  ExemplarStore store;
  store.record(0, "lat", 1100, /*request=*/7, split_of(600, 500));
  store.record(0, "lat", 1500, /*request=*/9, split_of(900, 600));
  store.record(0, "lat", 1200, /*request=*/8, split_of(700, 500));
  const auto all = store.all();
  ASSERT_EQ(all.size(), 1u);
  ASSERT_EQ(all[0].buckets.size(), 1u);  // 1024..2047 share log2 bucket 11
  const auto& b = all[0].buckets[0];
  EXPECT_EQ(b.bucket, LogHistogram::bucket_of(1500));
  EXPECT_EQ(b.count, 3u);
  EXPECT_EQ(b.max_ns, 1500u);
  EXPECT_EQ(b.request, 9u);
  EXPECT_EQ(b.cost_ns, split_of(900, 600));
}

TEST(ExemplarStoreTest, TiesBreakTowardTheSmallerRequestId) {
  ExemplarStore store;
  store.record(0, "lat", 1000, 20, split_of(1000, 0));
  store.record(0, "lat", 1000, 10, split_of(0, 1000));
  ASSERT_EQ(store.all()[0].buckets.size(), 1u);
  EXPECT_EQ(store.all()[0].buckets[0].request, 10u);
}

TEST(ExemplarStoreTest, MergeIsGroupingIndependent) {
  // The same observation stream split into 1, 2 and 3 stores must merge to
  // byte-identical `exemplars` sections — the property that makes the
  // sharded document independent of --shards.
  struct Obs {
    std::uint32_t node;
    SimNanos ns;
    std::uint64_t req;
  };
  std::vector<Obs> obs;
  Rng rng(5);
  for (std::uint64_t r = 1; r <= 60; ++r) {
    obs.push_back({static_cast<std::uint32_t>(r % 3),
                   100 + rng.uniform(std::uint64_t{0}, std::uint64_t{40000}),
                   r});
  }
  const auto dump_of = [&obs](std::size_t parts) {
    std::vector<ExemplarStore> stores(parts);
    for (std::size_t i = 0; i < obs.size(); ++i) {
      stores[i % parts].record(obs[i].node, "serve", obs[i].ns, obs[i].req,
                               split_of(obs[i].ns / 2, obs[i].ns / 4));
    }
    ExemplarStore merged;
    for (const auto& s : stores) merged.merge(s);
    std::ostringstream os;
    trace::write_exemplar_section(os, merged);
    return os.str();
  };
  const std::string oracle = dump_of(1);
  EXPECT_NE(oracle.find("\"name\": \"serve\""), std::string::npos);
  EXPECT_EQ(dump_of(2), oracle);
  EXPECT_EQ(dump_of(3), oracle);
}

// --- Sampled vs full flight capture ---------------------------------------

TEST(FlightCaptureTest, SampledCaptureKeepsEveryNthOfferedRecord) {
  sim::Engine eng;
  trace::FlightRecorder fr(eng, {.ring_capacity = 64, .sample_period = 4});
  for (int i = 0; i < 8; ++i) fr.log("t", "tick", 1);
  // Offered 0..7; kept at offered = 0 and 4.
  EXPECT_EQ(fr.offered_records(1), 8u);
  EXPECT_EQ(fr.total_records(1), 2u);
  // Violations bypass sampling (always kept).
  fr.violation("checker");
  EXPECT_EQ(fr.total_records(0), 1u);
}

TEST(FlightCaptureTest, FullCaptureBypassesSamplingAndLogsTransitions) {
  sim::Engine eng;
  trace::FlightRecorder fr(eng, {.ring_capacity = 64, .sample_period = 8});
  fr.log("t", "tick", 1);      // offered 0: kept
  fr.log("t", "tick", 1);      // offered 1: sampled away
  fr.set_full_capture(true);   // transition record on node 0
  fr.set_full_capture(true);   // idempotent: no second record
  for (int i = 0; i < 5; ++i) fr.log("t", "tick", 1);
  fr.set_full_capture(false);
  fr.log("t", "tick", 1);  // offered 7: sampled away again
  fr.log("t", "tick", 1);  // offered 8: kept (period boundary)
  EXPECT_EQ(fr.offered_records(1), 9u);
  EXPECT_EQ(fr.total_records(1), 1u + 5u + 1u);
  const auto node0 = fr.records(0);
  ASSERT_EQ(node0.size(), 2u);
  EXPECT_STREQ(node0[0].layer, "flight");
  EXPECT_STREQ(node0[0].opcode, "capture.full");
  EXPECT_STREQ(node0[1].opcode, "capture.sampled");
  EXPECT_EQ(node0[0].a0, 8u);  // the sampling period being bypassed
}

// --- SloEngine trigger-armed capture --------------------------------------

/// obs_test.cpp's PairFeeder: cumulative (t.slow, t.total) counter windows.
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

SloRule burn_rule() {
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
  rule.arm_fraction = 0.5;
  return rule;
}

TEST(SloArmTest, ArmsBeforeTheBreachAndDisarmsOnRecovery) {
  sim::Engine eng;
  trace::FlightRecorder flight(eng, {.ring_capacity = 64, .sample_period = 8});
  TimeSeriesStore store({.window = 1000, .retention = 16});
  PairFeeder feed(store);
  SloEngine slo(store);
  slo.add_rule(burn_rule());
  slo.set_flight(&flight);

  // Three quiet windows then 25% bad: the fast window burns at 2.5/4 =
  // 0.625 of the firing threshold — past the arm point (0.5) but short of
  // the breach (1.0), and the slow window is still diluted.  Deep capture
  // arms; no alert fires.
  for (const double s : {0.0, 0.0, 0.0, 25.0}) feed.window(s);
  slo.evaluate(4000);
  EXPECT_TRUE(slo.alerts().empty());
  ASSERT_EQ(slo.capture_events().size(), 1u);
  EXPECT_TRUE(slo.capture_events()[0].firing);
  EXPECT_DOUBLE_EQ(slo.capture_events()[0].value, 0.625);
  EXPECT_DOUBLE_EQ(slo.capture_events()[0].threshold, 0.5);
  EXPECT_EQ(slo.armed_count(), 1u);
  EXPECT_TRUE(flight.full_capture());

  // Quiet windows dilute the burn under the arm threshold: disarm,
  // sampling resumes.
  for (int i = 0; i < 4; ++i) feed.window(0.0);
  slo.evaluate(8000);
  EXPECT_TRUE(slo.alerts().empty());
  ASSERT_EQ(slo.capture_events().size(), 2u);
  EXPECT_FALSE(slo.capture_events()[1].firing);
  EXPECT_EQ(slo.armed_count(), 0u);
  EXPECT_FALSE(flight.full_capture());

  // The flight ring shows the whole arc on node 0, in order: armed (with
  // the capture.full transition first, so the armed record itself is
  // captured), then disarmed, then capture.sampled.
  std::vector<std::string> ops;
  for (const auto& rec : flight.records(0)) {
    ops.push_back(std::string(rec.layer) + "/" + rec.opcode);
  }
  EXPECT_EQ(ops, (std::vector<std::string>{
                     "flight/capture.full", "obs/capture.armed",
                     "obs/capture.disarmed", "flight/capture.sampled"}));
}

TEST(SloArmTest, FullCaptureIsOnBeforeTheFiringRecordLands) {
  sim::Engine eng;
  trace::FlightRecorder flight(eng, {.ring_capacity = 64, .sample_period = 8});
  TimeSeriesStore store({.window = 1000, .retention = 16});
  PairFeeder feed(store);
  SloEngine slo(store);
  slo.add_rule(burn_rule());
  slo.set_flight(&flight);

  // 60% bad: fast burn 6.0 blows straight past arm (2.0) and fire (4.0)
  // in one evaluation.  Arming is processed first, so the alert.firing
  // ring record is written under full capture.
  feed.window(60.0);
  slo.evaluate(1000);
  ASSERT_EQ(slo.alerts().size(), 1u);
  EXPECT_TRUE(slo.alerts()[0].firing);
  EXPECT_EQ(slo.armed_count(), 1u);
  std::vector<std::string> ops;
  for (const auto& rec : flight.records(0)) {
    ops.push_back(std::string(rec.layer) + "/" + rec.opcode);
  }
  EXPECT_EQ(ops, (std::vector<std::string>{"flight/capture.full",
                                           "obs/capture.armed",
                                           "obs/alert.firing"}));
}

TEST(SloArmTest, ZeroArmFractionDisablesArming) {
  sim::Engine eng;
  trace::FlightRecorder flight(eng, {.ring_capacity = 64, .sample_period = 8});
  TimeSeriesStore store({.window = 1000, .retention = 16});
  PairFeeder feed(store);
  SloEngine slo(store);
  auto rule = burn_rule();
  rule.arm_fraction = 0.0;
  slo.add_rule(rule);
  slo.set_flight(&flight);
  feed.window(60.0);
  slo.evaluate(1000);
  ASSERT_EQ(slo.alerts().size(), 1u);
  EXPECT_TRUE(slo.capture_events().empty());
  EXPECT_FALSE(flight.full_capture());
}

TEST(SloArmTest, RuleFileParsesArmFraction) {
  std::string error;
  std::istringstream in(
      "rule b burn series=t.slow total=t.total budget=0.1 arm=0.25\n"
      "rule r rate series=t.slow total=t.total max=0.05 arm=0\n");
  const auto rules = obs::parse_slo_rules(in, &error);
  ASSERT_EQ(rules.size(), 2u) << error;
  EXPECT_DOUBLE_EQ(rules[0].arm_fraction, 0.25);
  EXPECT_DOUBLE_EQ(rules[1].arm_fraction, 0.0);
}

// --- dcs explain ----------------------------------------------------------

std::string write_temp(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream os(path);
  os << body;
  return path;
}

TEST(ExplainTest, SelfCheckValidatesGeneratedDumps) {
  TimeSeriesStore store({.window = 1000, .retention = 16});
  PairFeeder feed(store);
  feed.window(25.0);

  HeavyHitters hh(4);
  Rng rng(3);
  ZipfSampler zipf(16, 0.9);
  for (int i = 0; i < 300; ++i) {
    hh.record_hot("obj", static_cast<std::uint64_t>(zipf.sample(rng)), 1);
  }
  ExemplarStore ex;
  ex.record(0, "lat", 1500, 42, split_of(900, 600));
  ex.record(0, "lat", 90000, 43, split_of(80000, 10000));

  std::ostringstream ts;
  obs::write_timeseries_json(ts, store, {}, hh, ex);
  const std::string doc = write_temp("explain_ts.json", ts.str());
  obs::ExplainOptions opts;
  opts.self_check = true;
  std::ostringstream out, err;
  EXPECT_EQ(obs::run_explain(doc, opts, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("self-check ok"), std::string::npos);

  // The report path names the sketch's hot keys in greppable rows.
  opts.self_check = false;
  std::ostringstream report;
  EXPECT_EQ(obs::run_explain(doc, opts, report, err), 0);
  EXPECT_NE(report.str().find("hot obj"), std::string::npos);
  EXPECT_NE(report.str().find("key=0 "), std::string::npos);
  EXPECT_NE(report.str().find("request=43"), std::string::npos);
}

TEST(ExplainTest, SelfCheckRejectsCorruptHotset) {
  TimeSeriesStore store({.window = 1000, .retention = 16});
  PairFeeder feed(store);
  feed.window(1.0);
  std::ostringstream ts;
  obs::write_timeseries_json(ts, store, {}, HeavyHitters(4), ExemplarStore{});
  // The document up to the end of its alerts, then the sections under test.
  const std::string full = ts.str();
  const std::string head = full.substr(0, full.find(",\n  \"hotset\""));
  const auto doc = [&head](const std::string& hotset,
                           const std::string& exemplars) {
    return head + ",\n  \"hotset\": " + hotset + ",\n  \"exemplars\": " +
           exemplars + "\n}\n";
  };
  const std::string good_hot = "{\"capacity\": 4, \"domains\": []}";
  const struct {
    std::string body;
    std::string error;
  } cases[] = {
      // Sketch invariant broken: entry counts (3) do not sum to total (99).
      {doc("{\"capacity\": 4, \"domains\": [{ \"domain\": \"d\", "
           "\"total\": 99,\n  \"entries\": [{ \"key\": 1, \"count\": 3, "
           "\"error\": 0 }] }]}",
           "[]"),
       "hotset: entry counts do not sum to total in d"},
      // Bucket invariant broken: 1500 ns lies in log2 bucket 11, not 3.
      {doc(good_hot,
           "[{\"node\": 0, \"name\": \"lat\", \"buckets\": [{ \"bucket\": 3, "
           "\"count\": 1, \"max_ns\": 1500, \"request\": 42, "
           "\"critical_path_ns\": {\"host-cpu\": 1500, \"attributed\": 1500} "
           "}]}]"),
       "exemplars: exemplar latency outside its bucket in lat"},
      // A document without its attribution sections.
      {head + "\n}\n", "hotset: missing section"},
  };
  for (const auto& c : cases) {
    obs::ExplainOptions opts;
    opts.self_check = true;
    std::ostringstream out, err;
    EXPECT_EQ(obs::run_explain(write_temp("explain_bad.json", c.body), opts,
                               out, err),
              1)
        << c.error;
    EXPECT_NE(err.str().find(c.error), std::string::npos) << err.str();
  }
}

TEST(ExplainTest, UnknownSchemaIsALoadError) {
  obs::ExplainOptions opts;
  std::ostringstream out, err;
  const auto path = write_temp("explain_unknown.json",
                               "{\"schema\": \"dcs-bench-v1\"}\n");
  EXPECT_EQ(obs::run_explain(path, opts, out, err), 2);
}

}  // namespace
}  // namespace dcs
