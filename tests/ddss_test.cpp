// Tests for the Distributed Data Sharing Substrate: allocation/release,
// placement, all coherence models (parameterized), versioning, delta rings,
// temporal caching, locking, multi-writer safety and batched put/get.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <span>

#include "ddss/ddss.hpp"
#include "trace/trace.hpp"

namespace dcs::ddss {
namespace {

std::vector<std::byte> value_bytes(std::uint8_t fill, std::size_t n = 64) {
  return std::vector<std::byte>(n, static_cast<std::byte>(fill));
}

struct DdssFixture : ::testing::Test {
  sim::Engine eng;
  fabric::Fabric fab{eng, fabric::FabricParams{},
                     {.num_nodes = 4, .cores_per_node = 2,
                      .mem_per_node = 1u << 20}};
  verbs::Network net{fab};
  Ddss ddss{net};

  void SetUp() override { ddss.start(); }
};

TEST_F(DdssFixture, AllocatePlacesOnRequestedHome) {
  Allocation local, remote;
  eng.spawn([](Ddss& d, Allocation& l, Allocation& r) -> sim::Task<void> {
    auto c = d.client(2);
    l = co_await c.allocate(128, Coherence::kNull, Placement::kLocal);
    r = co_await c.allocate(128, Coherence::kNull, Placement::kRemote);
  }(ddss, local, remote));
  eng.run();
  EXPECT_EQ(local.home, 2u);
  EXPECT_NE(remote.home, 2u);
  EXPECT_TRUE(local.valid());
  EXPECT_NE(local.key, remote.key);
}

TEST_F(DdssFixture, RoundRobinSpreadsHomes) {
  std::vector<NodeId> homes;
  eng.spawn([](Ddss& d, std::vector<NodeId>& out) -> sim::Task<void> {
    auto c = d.client(0);
    for (int i = 0; i < 8; ++i) {
      auto a = co_await c.allocate(64, Coherence::kNull,
                                   Placement::kRoundRobin);
      out.push_back(a.home);
    }
  }(ddss, homes));
  eng.run();
  EXPECT_EQ(homes, (std::vector<NodeId>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST_F(DdssFixture, LeastLoadedPrefersEmptiestNode) {
  Allocation probe;
  eng.spawn([](Ddss& d, Allocation& out) -> sim::Task<void> {
    auto c = d.client(0);
    // Fill node 0..2 with ballast so node 3 is emptiest.
    for (NodeId n = 0; n < 3; ++n) {
      auto c2 = d.client(n);
      (void)co_await c2.allocate(200000, Coherence::kNull, Placement::kLocal);
    }
    out = co_await c.allocate(64, Coherence::kNull, Placement::kLeastLoaded);
  }(ddss, probe));
  eng.run();
  EXPECT_EQ(probe.home, 3u);
}

TEST_F(DdssFixture, ReleaseReturnsMemory) {
  eng.spawn([](Ddss& d, fabric::Fabric& f) -> sim::Task<void> {
    auto c = d.client(1);
    const auto before = f.node(1).memory().used();
    auto a = co_await c.allocate(4096, Coherence::kNull);
    co_await c.release(a);
    const auto after = f.node(1).memory().used();
    if (before != after) throw std::runtime_error("leak");
  }(ddss, fab));
  EXPECT_NO_THROW(eng.run());
}

TEST_F(DdssFixture, AllocationFailureThrows) {
  bool threw = false;
  eng.spawn([](Ddss& d, bool& t) -> sim::Task<void> {
    auto c = d.client(0);
    try {
      (void)co_await c.allocate(64u << 20, Coherence::kNull);  // > capacity
    } catch (const DdssError&) {
      t = true;
    }
  }(ddss, threw));
  eng.run();
  EXPECT_TRUE(threw);
}

// Parameterized over all coherence models: basic put/get round trip from a
// remote node.
class DdssCoherence : public ::testing::TestWithParam<Coherence> {};

TEST_P(DdssCoherence, PutThenGetRoundTrips) {
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 3, .mem_per_node = 1u << 20});
  verbs::Network net(fab);
  Ddss ddss(net);
  ddss.start();
  std::vector<std::byte> got(64);
  eng.spawn([](Ddss& d, Coherence c, std::vector<std::byte>& out)
                -> sim::Task<void> {
    auto writer = d.client(1);
    auto reader = d.client(2);
    auto a = co_await writer.allocate(64, c, Placement::kLocal);
    co_await writer.put(a, value_bytes(0x5A));
    co_await reader.get(a, out);
  }(ddss, GetParam(), got));
  eng.run();
  EXPECT_EQ(got, value_bytes(0x5A));
}

TEST_P(DdssCoherence, SecondPutOverwrites) {
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 2, .mem_per_node = 1u << 20});
  verbs::Network net(fab);
  Ddss ddss(net);
  ddss.start();
  std::vector<std::byte> got(32);
  eng.spawn([](Ddss& d, Coherence c, std::vector<std::byte>& out)
                -> sim::Task<void> {
    auto cl = d.client(0);
    auto a = co_await cl.allocate(32, c, Placement::kRemote);
    co_await cl.put(a, value_bytes(0x11, 32));
    co_await cl.put(a, value_bytes(0x22, 32));
    // Temporal caching may serve the first value within the TTL; wait it out.
    if (c == Coherence::kTemporal) {
      co_await d.engine().delay(d.config().temporal_ttl + 1);
    }
    co_await cl.get(a, out);
  }(ddss, GetParam(), got));
  eng.run();
  EXPECT_EQ(got, value_bytes(0x22, 32));
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, DdssCoherence,
    ::testing::Values(Coherence::kNull, Coherence::kRead, Coherence::kWrite,
                      Coherence::kStrict, Coherence::kVersion,
                      Coherence::kDelta, Coherence::kTemporal),
    [](const auto& param_info) { return to_string(param_info.param); });

TEST_F(DdssFixture, VersionBumpsOnEveryPut) {
  std::uint64_t v = 0;
  eng.spawn([](Ddss& d, std::uint64_t& out) -> sim::Task<void> {
    auto c = d.client(0);
    auto a = co_await c.allocate(16, Coherence::kVersion);
    for (int i = 0; i < 5; ++i) co_await c.put(a, value_bytes(i, 16));
    out = co_await c.version(a);
  }(ddss, v));
  eng.run();
  EXPECT_EQ(v, 5u);
}

TEST_F(DdssFixture, GetVersionedReturnsMatchingPair) {
  std::uint64_t ver = 0;
  std::vector<std::byte> got(16);
  eng.spawn([](Ddss& d, std::uint64_t& v, std::vector<std::byte>& out)
                -> sim::Task<void> {
    auto c = d.client(1);
    auto a = co_await c.allocate(16, Coherence::kVersion,
                                 Placement::kRemote);
    co_await c.put(a, value_bytes(0xAB, 16));
    co_await c.put(a, value_bytes(0xCD, 16));
    v = co_await c.get_versioned(a, out);
  }(ddss, ver, got));
  eng.run();
  EXPECT_EQ(ver, 2u);
  EXPECT_EQ(got, value_bytes(0xCD, 16));
}

TEST_F(DdssFixture, DeltaRetainsHistory) {
  std::vector<std::byte> cur(8), old1(8), old2(8);
  eng.spawn([](Ddss& d, std::vector<std::byte>& c0, std::vector<std::byte>& c1,
               std::vector<std::byte>& c2) -> sim::Task<void> {
    auto c = d.client(0);
    auto a = co_await c.allocate(8, Coherence::kDelta);
    for (std::uint8_t i = 1; i <= 3; ++i) co_await c.put(a, value_bytes(i, 8));
    co_await c.get_delta(a, 0, c0);
    co_await c.get_delta(a, 1, c1);
    co_await c.get_delta(a, 2, c2);
  }(ddss, cur, old1, old2));
  eng.run();
  EXPECT_EQ(cur, value_bytes(3, 8));
  EXPECT_EQ(old1, value_bytes(2, 8));
  EXPECT_EQ(old2, value_bytes(1, 8));
}

TEST_F(DdssFixture, DeltaRingWrapsAroundAndKeepsNewest) {
  std::vector<std::byte> cur(8), oldest(8);
  eng.spawn([](Ddss& d, std::vector<std::byte>& c0, std::vector<std::byte>& c3)
                -> sim::Task<void> {
    auto c = d.client(0);
    auto a = co_await c.allocate(8, Coherence::kDelta);
    for (std::uint8_t i = 1; i <= 9; ++i) co_await c.put(a, value_bytes(i, 8));
    co_await c.get_delta(a, 0, c0);
    co_await c.get_delta(a, 3, c3);  // ring depth 4: oldest retained
  }(ddss, cur, oldest));
  eng.run();
  EXPECT_EQ(cur, value_bytes(9, 8));
  EXPECT_EQ(oldest, value_bytes(6, 8));
}

TEST_F(DdssFixture, DeltaGetBeforePutThrows) {
  bool threw = false;
  eng.spawn([](Ddss& d, bool& t) -> sim::Task<void> {
    auto c = d.client(0);
    auto a = co_await c.allocate(8, Coherence::kDelta);
    std::vector<std::byte> buf(8);
    try {
      co_await c.get_delta(a, 0, buf);
    } catch (const DdssError&) {
      t = true;
    }
  }(ddss, threw));
  eng.run();
  EXPECT_TRUE(threw);
}

TEST_F(DdssFixture, TemporalGetServedFromCacheWithinTtl) {
  // Second get within the TTL must be far cheaper than the first.
  SimNanos first = 0, second = 0;
  eng.spawn([](Ddss& d, sim::Engine& e, SimNanos& t1, SimNanos& t2)
                -> sim::Task<void> {
    auto c = d.client(1);
    auto a = co_await c.allocate(64, Coherence::kTemporal,
                                 Placement::kRemote);
    co_await c.put(a, value_bytes(7));
    std::vector<std::byte> buf(64);
    auto t0 = e.now();
    co_await c.get(a, buf);
    t1 = e.now() - t0;
    t0 = e.now();
    co_await c.get(a, buf);
    t2 = e.now() - t0;
  }(ddss, eng, first, second));
  eng.run();
  EXPECT_GT(first, microseconds(2));
  EXPECT_EQ(second, 0u);  // pure local cache hit
}

TEST_F(DdssFixture, TemporalCacheExpiresAfterTtl) {
  std::vector<std::byte> got(8);
  eng.spawn([](Ddss& d, std::vector<std::byte>& out) -> sim::Task<void> {
    auto reader = d.client(1);
    auto writer = d.client(2);
    auto a = co_await writer.allocate(8, Coherence::kTemporal,
                                      Placement::kLocal);
    co_await writer.put(a, value_bytes(1, 8));
    std::vector<std::byte> buf(8);
    co_await reader.get(a, buf);          // caches value 1 at node 1
    co_await writer.put(a, value_bytes(2, 8));
    co_await reader.get(a, buf);          // still within TTL: stale is OK
    if (buf != value_bytes(1, 8)) throw std::runtime_error("expected stale");
    co_await d.engine().delay(d.config().temporal_ttl + 1);
    co_await reader.get(a, out);          // TTL passed: fresh value
  }(ddss, got));
  eng.run();
  EXPECT_EQ(got, value_bytes(2, 8));
}

TEST_F(DdssFixture, StrictWritersSerializeUnderContention) {
  // Concurrent strict-mode writers must not interleave inside the critical
  // section; the final value must be one writer's complete pattern.
  std::vector<std::byte> got(32);
  Allocation shared_alloc;
  eng.spawn([](Ddss& d, Allocation& a) -> sim::Task<void> {
    auto c = d.client(0);
    a = co_await c.allocate(32, Coherence::kStrict);
  }(ddss, shared_alloc));
  eng.run();
  for (NodeId n = 0; n < 4; ++n) {
    eng.spawn([](Ddss& d, NodeId self, const Allocation& a) -> sim::Task<void> {
      auto c = d.client(self);
      for (int i = 0; i < 5; ++i) {
        co_await c.put(a, value_bytes(static_cast<std::uint8_t>(self), 32));
      }
    }(ddss, n, shared_alloc));
  }
  eng.run();
  eng.spawn([](Ddss& d, const Allocation& a, std::vector<std::byte>& out)
                -> sim::Task<void> {
    auto c = d.client(0);
    co_await c.get(a, out);
  }(ddss, shared_alloc, got));
  eng.run();
  // All 32 bytes must be the same writer id.
  for (std::size_t i = 1; i < got.size(); ++i) EXPECT_EQ(got[i], got[0]);
}

TEST_F(DdssFixture, LockExcludesSecondLocker) {
  std::vector<int> order;
  Allocation shared_alloc;
  eng.spawn([](Ddss& d, Allocation& a) -> sim::Task<void> {
    auto c = d.client(0);
    a = co_await c.allocate(8, Coherence::kNull);
  }(ddss, shared_alloc));
  eng.run();
  for (int id = 0; id < 3; ++id) {
    eng.spawn([](Ddss& d, int self, const Allocation& a, std::vector<int>& out)
                  -> sim::Task<void> {
      auto c = d.client(static_cast<NodeId>(self));
      co_await c.lock(a);
      out.push_back(self);
      co_await d.engine().delay(microseconds(50));
      out.push_back(self);
      co_await c.unlock(a);
    }(ddss, id, shared_alloc, order));
  }
  eng.run();
  ASSERT_EQ(order.size(), 6u);
  for (std::size_t i = 0; i < order.size(); i += 2) {
    EXPECT_EQ(order[i], order[i + 1]) << "critical sections interleaved";
  }
}

TEST_F(DdssFixture, IpcProcessesShareTheSubstrate) {
  std::vector<std::byte> got(16);
  eng.spawn([](Ddss& d, std::vector<std::byte>& out) -> sim::Task<void> {
    auto proc_a = d.client(0, /*process_id=*/1);
    auto proc_b = d.client(0, /*process_id=*/2);
    auto a = co_await proc_a.allocate(16, Coherence::kNull);
    co_await proc_a.put(a, value_bytes(0x77, 16));
    co_await proc_b.get(a, out);
  }(ddss, got));
  eng.run();
  EXPECT_EQ(got, value_bytes(0x77, 16));
}

TEST_F(DdssFixture, PutLatencyOrderingMatchesFig3aShape) {
  // Strict (lock + write + version + unlock) must cost more than Write
  // (lock + write + unlock), which costs more than Null (write only).
  auto measure = [&](Coherence c) {
    sim::Engine e2;
    fabric::Fabric f2(e2, fabric::FabricParams{},
                      {.num_nodes = 2, .mem_per_node = 1u << 20});
    verbs::Network n2(f2);
    Ddss d2(n2);
    d2.start();
    SimNanos lat = 0;
    e2.spawn([](Ddss& d, sim::Engine& e, Coherence ch, SimNanos& out)
                 -> sim::Task<void> {
      auto cl = d.client(0);
      auto a = co_await cl.allocate(64, ch, Placement::kRemote);
      const auto t0 = e.now();
      co_await cl.put(a, value_bytes(1));
      out = e.now() - t0;
    }(d2, e2, c, lat));
    e2.run();
    return lat;
  };
  const auto null_lat = measure(Coherence::kNull);
  const auto write_lat = measure(Coherence::kWrite);
  const auto strict_lat = measure(Coherence::kStrict);
  EXPECT_LT(null_lat, write_lat);
  EXPECT_LT(write_lat, strict_lat);
}

TEST_F(DdssFixture, ManyOpsRoundTripAcrossModelsAndHomes) {
  // Two allocations per model, spread round-robin over all four homes, so
  // every home's batch carries several models and the serial fallbacks
  // (Write/Strict/Delta/Temporal puts, Version/Strict/Delta/Temporal gets)
  // interleave with the batched ones.  Two rounds: the second overwrites.
  constexpr Coherence kModels[] = {
      Coherence::kNull,   Coherence::kRead,  Coherence::kWrite,
      Coherence::kStrict, Coherence::kVersion, Coherence::kDelta,
      Coherence::kTemporal};
  constexpr std::size_t kAllocs = 2 * std::size(kModels);
  std::vector<std::vector<std::byte>> got(kAllocs,
                                          std::vector<std::byte>(48));
  std::vector<NodeId> homes;
  eng.spawn([](Ddss& d, std::span<const Coherence> models,
               std::vector<std::vector<std::byte>>& out,
               std::vector<NodeId>& home_of) -> sim::Task<void> {
    auto c = d.client(0);
    std::vector<Allocation> allocs;
    for (int copy = 0; copy < 2; ++copy) {
      for (const Coherence m : models) {
        allocs.push_back(co_await c.allocate(48, m, Placement::kRoundRobin));
        home_of.push_back(allocs.back().home);
      }
    }
    for (std::uint8_t round = 1; round <= 2; ++round) {
      std::vector<std::vector<std::byte>> values;
      std::vector<Client::PutOp> puts;
      for (std::size_t i = 0; i < allocs.size(); ++i) {
        values.push_back(value_bytes(
            static_cast<std::uint8_t>(round * 0x40 + i), 48));
      }
      for (std::size_t i = 0; i < allocs.size(); ++i) {
        puts.push_back({&allocs[i], values[i]});
      }
      co_await c.put_many(puts);
      std::vector<Client::GetOp> gets;
      for (std::size_t i = 0; i < allocs.size(); ++i) {
        gets.push_back({&allocs[i], out[i]});
      }
      co_await c.get_many(gets);
      for (std::size_t i = 0; i < allocs.size(); ++i) {
        if (out[i] != values[i]) throw std::runtime_error("round-trip");
      }
    }
  }(ddss, kModels, got, homes));
  EXPECT_NO_THROW(eng.run());
  EXPECT_EQ(homes.size(), kAllocs);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_GE(std::count(homes.begin(), homes.end(), n), 2) << "home " << n;
  }
  for (std::size_t i = 0; i < kAllocs; ++i) {
    EXPECT_EQ(got[i],
              value_bytes(static_cast<std::uint8_t>(0x80 + i), 48))
        << to_string(kModels[i % std::size(kModels)]);
  }
}

/// The verbs registry counters a put or get can move.
constexpr const char* kVerbsCounters[] = {
    "verbs.read.ops",  "verbs.read.bytes", "verbs.write.ops",
    "verbs.write.bytes", "verbs.faa.ops",  "verbs.cas.ops"};
using VerbsCounts = std::array<std::uint64_t, std::size(kVerbsCounters)>;

VerbsCounts verbs_counts() {
  VerbsCounts out{};
  const auto& reg = trace::Registry::global();
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (const auto* c = reg.find_counter(kVerbsCounters[i])) out[i] = c->value;
  }
  return out;
}

VerbsCounts operator-(VerbsCounts a, const VerbsCounts& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
  return a;
}

// A one-op put_many / get_many of a batchable model stages the same verbs
// as put / get: the model's sequence is decided in one place.
TEST_F(DdssFixture, OneOpPutManyMovesTheSameVerbsAsPut) {
  for (const Coherence m :
       {Coherence::kNull, Coherence::kRead, Coherence::kVersion}) {
    VerbsCounts serial{}, batched{};
    eng.spawn([](Ddss& d, Coherence model, VerbsCounts& one,
                 VerbsCounts& many) -> sim::Task<void> {
      auto c = d.client(0);
      auto a = co_await c.allocate(64, model, Placement::kRemote);
      const auto value = value_bytes(0x3C);
      auto before = verbs_counts();
      co_await c.put(a, value);
      one = verbs_counts() - before;
      const Client::PutOp op{&a, value};
      before = verbs_counts();
      co_await c.put_many(std::span(&op, 1));
      many = verbs_counts() - before;
    }(ddss, m, serial, batched));
    eng.run();
    EXPECT_NE(serial, VerbsCounts{}) << to_string(m);
    EXPECT_EQ(serial, batched) << to_string(m);
  }
}

TEST_F(DdssFixture, OneOpGetManyMovesTheSameVerbsAsGet) {
  for (const Coherence m :
       {Coherence::kNull, Coherence::kWrite, Coherence::kRead}) {
    VerbsCounts serial{}, batched{};
    eng.spawn([](Ddss& d, Coherence model, VerbsCounts& one,
                 VerbsCounts& many) -> sim::Task<void> {
      auto c = d.client(0);
      auto a = co_await c.allocate(64, model, Placement::kRemote);
      co_await c.put(a, value_bytes(0x3C));
      std::vector<std::byte> out(64);
      auto before = verbs_counts();
      co_await c.get(a, out);
      one = verbs_counts() - before;
      const Client::GetOp op{&a, out};
      before = verbs_counts();
      co_await c.get_many(std::span(&op, 1));
      many = verbs_counts() - before;
    }(ddss, m, serial, batched));
    eng.run();
    EXPECT_NE(serial, VerbsCounts{}) << to_string(m);
    EXPECT_EQ(serial, batched) << to_string(m);
  }
}

TEST_F(DdssFixture, AllocationsServedCounted) {
  eng.spawn([](Ddss& d) -> sim::Task<void> {
    auto c = d.client(0);
    (void)co_await c.allocate(8, Coherence::kNull);
    (void)co_await c.allocate(8, Coherence::kNull);
  }(ddss));
  eng.run();
  EXPECT_EQ(ddss.allocations_served(), 2u);
}

}  // namespace
}  // namespace dcs::ddss
