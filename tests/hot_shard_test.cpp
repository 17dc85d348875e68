// Attribution under the sharded runner: per-partition HeavyHitters and
// ExemplarStore instances fed explicitly from the serve path (never the
// partition's ambient hot sink, whose DDSS, verbs and N-CoSED sites would
// add domains to the pinned sections), merged on the main thread in
// partition order, must produce the dcs-timeseries-v1 document's `hotset`
// and `exemplars` sections byte-identical for every worker count.
// Mirrors what bench_datacenter_scale hands to obs::Harness
// (ShardedScenario::health) under --timeseries-out.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "obs/heavy.hpp"
#include "sim/shard.hpp"
#include "trace/exemplar.hpp"

namespace dcs {
namespace {

using sim::Shard;
using sim::ShardedEngine;
using sim::ShardMsg;

constexpr sim::Time kLookahead = 1300;
constexpr std::uint32_t kPartitions = 4;
constexpr int kServes = 48;
constexpr std::size_t kKeys = 64;  // global key space for the Zipf stream

/// One partition's attribution slice, written only by its owning
/// partition's strands and read by the main thread after the run.
struct Slice {
  obs::HeavyHitters hot{8};
  trace::ExemplarStore exemplars;
  std::uint64_t serves = 0;
};

/// The serve loop: Zipf-keyed "requests" whose heat and latency exemplars
/// feed the partition's EXPLICIT sketches.  Cross-shard pings after each
/// serve give the conservative runner real merge work, so worker count
/// reshuffles execution interleaving without touching the per-partition
/// streams.
sim::Task<void> serve_loop(Shard& shard, Slice* slice) {
  auto& eng = shard.engine();
  Rng rng(11 + shard.index());
  ZipfSampler zipf(kKeys, 0.9);
  for (int k = 0; k < kServes; ++k) {
    co_await eng.delay(173 + 31 * (shard.index() % 3));
    const auto key = static_cast<std::uint64_t>(zipf.sample(rng));
    const SimNanos latency =
        1000 + 500 * key + rng.uniform(std::uint64_t{0}, std::uint64_t{900});
    slice->hot.record_hot("serve.key", key, 1);
    slice->hot.record_hot("serve.home", key % kPartitions, 1);
    // Request ids are globally unique and deterministic: the partition's
    // serve order is virtual-time order, independent of the worker count.
    const std::uint64_t rid =
        (std::uint64_t{shard.index() + 1} << 32) | ++slice->serves;
    std::array<SimNanos, trace::kCostCategories> split{};
    split[static_cast<std::size_t>(trace::Cost::kHostCpu) - 1] = latency / 2;
    split[static_cast<std::size_t>(trace::Cost::kWire) - 1] =
        latency - latency / 2;
    slice->exemplars.record(shard.index(), "serve.latency_ns", latency, rid,
                            split);
    shard.send((shard.index() + 1) % shard.partitions(), /*tag=*/0, key);
  }
}

struct Sections {
  std::string hotset;
  std::string exemplars;
};

Sections run_grid(std::uint32_t workers) {
  std::vector<Slice> slices(kPartitions);
  ShardedEngine sharded(
      {.partitions = kPartitions, .workers = workers, .lookahead = kLookahead});
  sharded.setup([&slices](Shard& shard) {
    shard.set_handler([](Shard&, const ShardMsg&) {});
    shard.engine().spawn(serve_loop(shard, &slices[shard.index()]));
  });
  sharded.run();
  // Main-thread merge in partition order 0..P-1, the same discipline as
  // the harness's merge of bench_datacenter_scale's partition slices.
  obs::HeavyHitters hot(8);
  trace::ExemplarStore exemplars;
  for (const Slice& s : slices) {
    hot.merge(s.hot);
    exemplars.merge(s.exemplars);
  }
  Sections d;
  std::ostringstream oh, oe;
  obs::write_hotset_section(oh, hot);
  trace::write_exemplar_section(oe, exemplars);
  d.hotset = oh.str();
  d.exemplars = oe.str();
  return d;
}

TEST(HotShardTest, MergedAttributionDumpsAreByteIdenticalAcrossWorkers) {
  const Sections oracle = run_grid(1);
  EXPECT_NE(oracle.hotset.find("\"domain\": \"serve.key\""),
            std::string::npos);
  EXPECT_NE(oracle.exemplars.find("\"name\": \"serve.latency_ns\""),
            std::string::npos);
  // Zipf mass concentrates at rank 0: the merged sketch must name it.
  EXPECT_NE(oracle.hotset.find("\"key\": 0"), std::string::npos);
  for (const std::uint32_t workers : {2u, 4u}) {
    const Sections d = run_grid(workers);
    EXPECT_EQ(d.hotset, oracle.hotset) << "workers=" << workers;
    EXPECT_EQ(d.exemplars, oracle.exemplars) << "workers=" << workers;
  }
}

TEST(HotShardTest, PartitionStreamsStayDisjoint) {
  // Every rid encodes its partition; the merged exemplar store must carry
  // one series per partition index and rids only from that partition.
  std::vector<Slice> slices(kPartitions);
  ShardedEngine sharded(
      {.partitions = kPartitions, .workers = 2, .lookahead = kLookahead});
  sharded.setup([&slices](Shard& shard) {
    shard.set_handler([](Shard&, const ShardMsg&) {});
    shard.engine().spawn(serve_loop(shard, &slices[shard.index()]));
  });
  sharded.run();
  trace::ExemplarStore merged;
  for (const Slice& s : slices) merged.merge(s.exemplars);
  const auto all = merged.all();
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kPartitions));
  for (const auto& series : all) {
    EXPECT_EQ(series.name, "serve.latency_ns");
    for (const auto& b : series.buckets) {
      EXPECT_EQ(b.request >> 32, series.node + 1u)
          << "exemplar crossed partitions";
    }
  }
}

}  // namespace
}  // namespace dcs
