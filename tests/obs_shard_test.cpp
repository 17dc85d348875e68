// The health plane under the sharded runner: a TelemetryScraper sweeping a
// per-partition registry mid-run, at conservative-window boundaries, must
// (a) never observe torn counter/histogram pairs — a serve observation
// updates total, slow and the latency histogram in one instant, and the
// exporter's kernel-context mirror is atomic with respect to it — (b)
// charge the scraped node zero target CPU, and (c) produce byte-identical
// merged dcs-timeseries-v1 dumps for every --shards worker count.  Also
// pins collect_shard_registries' sorted-enumeration contract (the
// sortedness assert added with the obs layer), and that each worker
// context arms a flight recorder of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fabric/fabric.hpp"
#include "monitor/telemetry.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/shard.hpp"
#include "trace/flight.hpp"
#include "trace/shard_metrics.hpp"
#include "trace/trace.hpp"
#include "verbs/verbs.hpp"

namespace dcs {
namespace {

using monitor::MetricKind;
using monitor::TelemetrySchema;
using sim::Shard;
using sim::ShardedEngine;
using sim::ShardMsg;

constexpr sim::Time kLookahead = 1300;  // the fabric wire latency
constexpr std::uint32_t kPartitions = 4;
// Scrape/window cadence: a multiple of the lookahead, so every scrape
// lands exactly on a conservative-window boundary — the adversarial spot
// for torn reads in a conservatively synchronized run.
constexpr SimNanos kWindow = 4 * kLookahead;
constexpr int kMutations = 48;
constexpr int kScrapes = 12;

TelemetrySchema pair_schema() {
  return TelemetrySchema(std::vector<TelemetrySchema::Entry>{
      {"pair.lat", MetricKind::kHistogram},
      {"pair.remote", MetricKind::kCounter},
      {"pair.slow", MetricKind::kCounter},
      {"pair.total", MetricKind::kCounter}});
}

/// What one partition's scrape loop observed, compared across worker
/// counts after the run.
struct PartResult {
  std::string dump;
  std::uint64_t torn = 0;
  std::uint64_t export_busy_ns = 0;
  std::uint64_t scrapes = 0;
};

/// One partition's world: a 2-node fabric (node 0 exports, node 1 is the
/// scraping front-end) and the partition-owned registry the serve path
/// writes — explicit, not the worker context's, so the exported page is a
/// function of the partition and never of the worker layout.
struct Plane {
  Plane(Shard& shard)
      : fab(shard.engine(), fabric::FabricParams{},
            {.num_nodes = 2, .cores_per_node = 1}),
        net(fab),
        exporter(net, /*node=*/0, pair_schema(), kWindow, &reg),
        scraper(net, /*frontend=*/1),
        store({.window = kWindow, .retention = 8}) {
    scraper.attach(exporter);
  }

  fabric::Fabric fab;
  verbs::Network net;
  trace::Registry reg;
  monitor::TelemetryExporter exporter;
  monitor::TelemetryScraper scraper;
  obs::TimeSeriesStore store;
};

/// The mutating serve path: every observation bumps total, conditionally
/// slow, and records a latency sample IN THE SAME INSTANT, then pings the
/// next partition (so cross-shard traffic shapes the schedule).  A torn
/// scrape would catch slow > total or a histogram count off its counter.
sim::Task<void> mutate(Shard& shard, std::shared_ptr<Plane> plane) {
  auto& eng = shard.engine();
  for (int k = 0; k < kMutations; ++k) {
    co_await eng.delay(211 + 37 * (shard.index() % 3));
    plane->reg.counter("pair.total").add(1);
    if (k % 3 == 0) plane->reg.counter("pair.slow").add(1);
    plane->reg.histogram("pair.lat").record(
        static_cast<std::uint64_t>(100 * (k + 1)));
    shard.send((shard.index() + 1) % shard.partitions(), /*tag=*/0, k);
  }
}

/// The front-end sweep: scrape node 0 at every window boundary, check the
/// pair invariants, and ingest into the partition's store.
sim::Task<void> scrape_loop(Shard& shard, std::shared_ptr<Plane> plane,
                            PartResult* out) {
  auto& eng = shard.engine();
  SimNanos next = kWindow;
  for (int i = 0; i < kScrapes; ++i) {
    if (eng.now() < next) co_await eng.delay(next - eng.now());
    next += kWindow;
    const auto snap = co_await plane->scraper.scrape(0);
    const double total = snap.value("pair.total");
    const double slow = snap.value("pair.slow");
    const auto* lat = snap.hist("pair.lat");
    std::uint64_t bucket_sum = 0;
    if (lat != nullptr) {
      for (const std::uint64_t b : lat->buckets) bucket_sum += b;
    }
    const bool consistent = lat != nullptr && slow <= total &&
                            static_cast<double>(lat->count) == total &&
                            bucket_sum == lat->count;
    if (!consistent) ++out->torn;
    plane->store.ingest(shard.index(), plane->exporter.schema(), snap);
  }
  out->scrapes = plane->scraper.scrapes();
  out->export_busy_ns = plane->fab.node(0).busy_ns();
  std::ostringstream os;
  obs::write_timeseries_json(os, plane->store, {});
  out->dump = os.str();
}

std::vector<PartResult> run_grid(std::uint32_t workers) {
  std::vector<PartResult> results(kPartitions);
  ShardedEngine sharded(
      {.partitions = kPartitions, .workers = workers, .lookahead = kLookahead});
  sharded.setup([&results](Shard& shard) {
    auto plane = std::make_shared<Plane>(shard);
    shard.set_handler([plane](Shard&, const ShardMsg&) {
      plane->reg.counter("pair.remote").add(1);
    });
    plane->exporter.start(/*passes=*/kScrapes + 2);
    shard.engine().spawn(mutate(shard, plane));
    shard.engine().spawn(scrape_loop(shard, plane, &results[shard.index()]));
    shard.keep_alive(plane);
  });
  sharded.run();
  return results;
}

TEST(ObsShardTest, ScrapesAreNeverTornAndCostTheTargetNothing) {
  const auto results = run_grid(2);
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    EXPECT_EQ(results[p].torn, 0u) << "partition " << p;
    EXPECT_EQ(results[p].export_busy_ns, 0u) << "partition " << p;
    EXPECT_EQ(results[p].scrapes, static_cast<std::uint64_t>(kScrapes));
    // The scrape actually saw traffic: the dump carries real windows.
    EXPECT_NE(results[p].dump.find("pair.total"), std::string::npos);
    EXPECT_NE(results[p].dump.find("\"kind\": \"histogram\""),
              std::string::npos);
  }
}

TEST(ObsShardTest, DumpsAreByteIdenticalForEveryWorkerCount) {
  const auto oracle = run_grid(1);
  for (const std::uint32_t workers : {2u, 4u}) {
    const auto results = run_grid(workers);
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      EXPECT_EQ(results[p].dump, oracle[p].dump)
          << "workers=" << workers << " partition=" << p;
      EXPECT_EQ(results[p].torn, 0u);
    }
  }
}

sim::Task<void> count_into_global(Shard& shard) {
  auto& reg = trace::Registry::global();
  reg.counter("z.last").add(shard.index() + 1);
  reg.counter("a.first").add(1);
  reg.histogram("m.mid").record(std::uint64_t{64} << shard.index());
  co_return;
}

TEST(ObsShardTest, CollectedShardRegistriesEnumerateSortedAndByteStable) {
  const auto run = [](std::uint32_t workers) {
    // Reset before the run: worker 0 is this thread, so its partitions
    // record straight into this registry during run().
    trace::Registry::global().reset();
    ShardedEngine sharded({.partitions = kPartitions,
                           .workers = workers,
                           .lookahead = kLookahead});
    sharded.setup([](Shard& shard) {
      shard.engine().spawn(count_into_global(shard));
    });
    sharded.run();
    trace::collect_shard_registries(sharded);
    const auto names = trace::Registry::global().names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    std::ostringstream os;
    trace::Registry::global().write_json(os);
    trace::Registry::global().reset();
    return os.str();
  };
  const std::string oracle = run(1);
  EXPECT_NE(oracle.find("a.first"), std::string::npos);
  EXPECT_EQ(run(2), oracle);
  EXPECT_EQ(run(4), oracle);
}

sim::Task<void> log_partition(Shard& shard) {
  for (std::uint64_t k = 0; k < 3; ++k) {
    co_await shard.engine().delay(100 * (k + 1));
    DCS_LOG("test", "part", shard.index(), shard.index(), k);
  }
}

TEST(ObsShardTest, EachWorkerContextArmsItsOwnFlightRecorder) {
  constexpr std::uint32_t kParts = 2;
  std::vector<trace::FlightRecorder*> recorders(kParts, nullptr);
  std::vector<trace::FlightRecorder*> current(kParts, nullptr);
  {
    // One partition per worker, so each recorder arms the record stream of
    // its own worker's context.
    ShardedEngine sharded(
        {.partitions = kParts, .workers = kParts, .lookahead = kLookahead});
    sharded.setup([&recorders](Shard& shard) {
      auto fr = std::make_shared<trace::FlightRecorder>(
          shard.engine(), trace::FlightConfig{.ring_capacity = 16});
      fr->install();
      recorders[shard.index()] = fr.get();
      shard.engine().spawn(log_partition(shard));
      shard.keep_alive(fr);  // torn down, so uninstalled, in its context
    });
    sharded.run();
    sharded.for_each_worker([&current](std::uint32_t w) {
      current[w] = trace::FlightRecorder::current();
    });
    for (std::uint32_t p = 0; p < kParts; ++p) {
      ASSERT_NE(recorders[p], nullptr);
      EXPECT_EQ(current[p], recorders[p]) << "worker " << p;
      // Only the partition's own DCS_LOG records reach its ring.
      EXPECT_EQ(recorders[p]->nodes(), std::vector<std::uint32_t>{p});
      const auto recs = recorders[p]->records(p);
      ASSERT_EQ(recs.size(), 3u) << "partition " << p;
      for (std::size_t k = 0; k < recs.size(); ++k) {
        EXPECT_STREQ(recs[k].opcode, "part");
        EXPECT_EQ(recs[k].a0, p);
        EXPECT_EQ(recs[k].a1, k);
      }
    }
  }
  EXPECT_EQ(trace::FlightRecorder::current(), nullptr);
}

}  // namespace
}  // namespace dcs
