// Tests for the Distributed Data Sharing Substrate: allocation/release,
// placement, all coherence models (parameterized), versioning, delta rings,
// temporal caching, locking, multi-writer safety and batched put/get, and
// the allocation lock's queue and per-node cohorts under contention.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <span>

#include "audit/audit.hpp"
#include "common/rng.hpp"
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

TEST_F(DdssFixture, ReplyTagsLeaveNoMailboxes) {
  // Every allocate/release receives its one reply on a fresh tag; the
  // tag's mailbox goes away with the reply.  The first pair lets the
  // long-lived daemon mailboxes appear before the count is taken.
  std::size_t before = 0;
  eng.spawn([](Ddss& d, verbs::Hca& hca,
               std::size_t& first) -> sim::Task<void> {
    auto c = d.client(1);
    for (int i = 0; i < 17; ++i) {
      co_await c.release(co_await c.allocate(64, Coherence::kNull,
                                             Placement::kRemote));
      if (i == 0) first = hca.mailbox_count();
    }
  }(ddss, net.hca(1), before));
  eng.run();
  EXPECT_GT(before, 0u);
  EXPECT_EQ(net.hca(1).mailbox_count(), before);
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

// --- the allocation lock: a queue lock with per-node cohorts ---

TEST_F(DdssFixture, UncontendedLockIsOneCasEachWay) {
  // Figure 3a's op counts: a Write put is the lock CAS, then one batch
  // holding the data write and the unlock CAS; no lock message is sent.
  VerbsCounts moved{};
  std::uint64_t sends = 0;
  eng.spawn([](Ddss& d, VerbsCounts& out,
               std::uint64_t& msgs) -> sim::Task<void> {
    auto c = d.client(1);
    auto a = co_await c.allocate(64, Coherence::kWrite, Placement::kRemote);
    const auto before = verbs_counts();
    const auto sent = d.network().hca(1).messages_sent();
    co_await c.put(a, value_bytes(0x11));
    out = verbs_counts() - before;
    msgs = d.network().hca(1).messages_sent() - sent;
  }(ddss, moved, sends));
  eng.run();
  EXPECT_EQ(moved, (VerbsCounts{0, 0, 1, 64, 0, 2}));
  EXPECT_EQ(sends, 0u);
  EXPECT_EQ(ddss.lock_cohorts(), 0u);
}

/// Eight nodes; the contention tests run one strand on each, and a second
/// strand on nodes 1..3 whose lock requests queue behind the first one's
/// in the node's cohort.
struct DdssLockFixture : ::testing::Test {
  static constexpr NodeId kNodes = 8;
  static constexpr NodeId kDoubled = 3;  // nodes 1..kDoubled run 2 strands

  sim::Engine eng;
  fabric::Fabric fab{eng, fabric::FabricParams{},
                     {.num_nodes = kNodes, .cores_per_node = 2,
                      .mem_per_node = 1u << 20}};
  verbs::Network net{fab};
  Ddss ddss{net};
  audit::Auditor auditor{eng};

  void SetUp() override {
    auditor.install();
    ddss.start();
  }

  Allocation allocate(Coherence model) {
    Allocation a;
    eng.spawn([](Ddss& d, Coherence m, Allocation& out) -> sim::Task<void> {
      out = co_await d.client(0).allocate(64, m);
      co_await d.client(0).put(out, value_bytes(0xEE));
    }(ddss, model, a));
    eng.run();
    return a;
  }

  std::string first_report() const {
    return auditor.report_count() > 0 ? auditor.reports()[0].message : "";
  }
};

std::uint64_t lock_cas_retries() {
  const auto* c =
      trace::Registry::global().find_counter("ddss.lock.cas_retries");
  return c != nullptr ? c->value : 0;
}

TEST_F(DdssLockFixture, GrantsInFifoOrderAcrossNodes) {
  for (const Coherence model : {Coherence::kWrite, Coherence::kStrict}) {
    const Allocation a = allocate(model);
    // Each strand logs its id on entering and on leaving its section.
    std::vector<int> log;
    const auto strand = [](Ddss& d, NodeId node, int id, SimNanos start,
                           const Allocation& alloc,
                           std::vector<int>& out) -> sim::Task<void> {
      co_await d.engine().delay(start);
      auto c = d.client(node);
      co_await c.lock(alloc);
      out.push_back(id);
      co_await d.engine().delay(microseconds(100));
      out.push_back(id);
      co_await c.unlock(alloc);
    };
    // First strands arrive 10 us apart, so all have queued before node 0
    // lets go.  The second strands arrive while their node's first strand
    // still waits, so they join the tail only after it has released: behind
    // node 7, in the order their nodes were granted.
    for (NodeId n = 0; n < kNodes; ++n) {
      eng.spawn(strand(ddss, n, static_cast<int>(n), microseconds(10) * n, a,
                       log));
    }
    for (NodeId n = 1; n <= kDoubled; ++n) {
      eng.spawn(strand(ddss, n, static_cast<int>(10 + n), microseconds(85),
                       a, log));
    }
    eng.run();
    std::vector<int> expected;
    for (const int id : {0, 1, 2, 3, 4, 5, 6, 7, 11, 12, 13}) {
      expected.insert(expected.end(), {id, id});
    }
    EXPECT_EQ(log, expected) << to_string(model);
    EXPECT_EQ(ddss.lock_cohorts(), 0u) << to_string(model);
  }
  EXPECT_EQ(auditor.report_count(), 0u) << first_report();
}

TEST_F(DdssLockFixture, ContendedPutsAndGetsStayCleanAndLeaveNothingBehind) {
  const std::array<Allocation, 2> allocs = {allocate(Coherence::kWrite),
                                            allocate(Coherence::kStrict)};
  std::vector<std::size_t> mailboxes(kNodes);
  for (NodeId n = 0; n < kNodes; ++n) {
    mailboxes[n] = net.hca(n).mailbox_count();
  }
  const std::uint64_t retries_before = lock_cas_retries();
  std::uint64_t acquisitions = 0;
  std::uint64_t torn = 0;
  // Puts to either allocation and Strict gets, back to back: every op takes
  // a lock, and each put writes one byte value throughout.
  const auto strand = [](Ddss& d, NodeId node, std::uint64_t seed,
                         const std::array<Allocation, 2>& as,
                         std::uint64_t& locks,
                         std::uint64_t& bad) -> sim::Task<void> {
    auto c = d.client(node);
    Rng rng(seed);
    std::vector<std::byte> out(64);
    for (int i = 0; i < 24; ++i) {
      const std::uint64_t op = rng.uniform(3);
      if (op < 2) {
        co_await c.put(as[op], value_bytes(static_cast<std::uint8_t>(seed)));
      } else {
        co_await c.get(as[1], out);
        bad += std::count(out.begin(), out.end(), out[0]) != 64 ? 1 : 0;
      }
      ++locks;
    }
  };
  for (NodeId n = 0; n < kNodes; ++n) {
    eng.spawn(strand(ddss, n, n + 1, allocs, acquisitions, torn));
  }
  for (NodeId n = 1; n <= kDoubled; ++n) {
    eng.spawn(strand(ddss, n, 100 + n, allocs, acquisitions, torn));
  }
  eng.run();
  EXPECT_EQ(acquisitions, 24u * (kNodes + kDoubled));
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(auditor.report_count(), 0u) << first_report();
  // No lock mailbox or cohort outlives the run.
  for (NodeId n = 0; n < kNodes; ++n) {
    EXPECT_EQ(net.hca(n).mailbox_count(), mailboxes[n]) << "node " << n;
  }
  EXPECT_EQ(ddss.lock_cohorts(), 0u);
  // A waiter retries its swap-in CAS only while its guess of the tail is
  // stale: once when it finds the lock held, again if the tail moved
  // meanwhile.  A spin lock retries every backoff for as long as it waits.
  const std::uint64_t retries = lock_cas_retries() - retries_before;
  EXPECT_GT(retries, 0u);
  EXPECT_LE(retries, 2 * acquisitions);
}

// --- Strict gets of one node share its tenure of the lock ---

/// Waits until `reads` more verbs reads have been posted than `base`: the
/// posts are counted when they leave, so those reads are in flight.
sim::Task<void> await_reads_posted(sim::Engine& eng, std::uint64_t base,
                                   std::uint64_t reads) {
  while (verbs_counts()[0] - base < reads) {
    co_await eng.delay(nanoseconds(100));
  }
}

TEST_F(DdssLockFixture, StrictGetsOfOneNodeShareOneLockHold) {
  const Allocation a = allocate(Coherence::kStrict);
  constexpr int kReaders = 4;
  std::vector<std::vector<std::byte>> got(kReaders,
                                          std::vector<std::byte>(64));
  const VerbsCounts before = verbs_counts();
  for (auto& out : got) {
    eng.spawn([](Ddss& d, const Allocation& alloc,
                 std::vector<std::byte>& buf) -> sim::Task<void> {
      co_await d.client(1).get(alloc, buf);
    }(ddss, a, out));
  }
  eng.run();
  const VerbsCounts moved = verbs_counts() - before;
  // One lock CAS and one unlock CAS for the four reads.
  EXPECT_EQ(moved, (VerbsCounts{kReaders, kReaders * 64, 0, 0, 0, 2}));
  for (const auto& out : got) EXPECT_EQ(out, value_bytes(0xEE));
  EXPECT_EQ(ddss.lock_cohorts(), 0u);
  EXPECT_EQ(auditor.report_count(), 0u) << first_report();
}

TEST_F(DdssLockFixture, GetBehindAQueuedPutWaitsForIt) {
  const Allocation a = allocate(Coherence::kStrict);
  std::vector<int> done;  // ids in completion order
  std::vector<std::byte> r2_got(64);
  const auto get = [](Ddss& d, int id, const Allocation& alloc,
                      std::vector<std::byte>& buf,
                      std::vector<int>& order) -> sim::Task<void> {
    co_await d.client(1).get(alloc, buf);
    order.push_back(id);
  };
  const auto put = [](Ddss& d, int id, const Allocation& alloc,
                      std::vector<int>& order) -> sim::Task<void> {
    co_await d.client(1).put(alloc, value_bytes(0x55));
    order.push_back(id);
  };
  // R1a and R1b hold node 1's read tenure; while their reads are in
  // flight, put W queues, then R2 arrives behind it.
  std::vector<std::byte> r1a(64), r1b(64);
  eng.spawn(get(ddss, 1, a, r1a, done));
  eng.spawn(get(ddss, 2, a, r1b, done));
  eng.spawn([](Ddss& d, std::uint64_t base, auto spawn_w,
               auto spawn_r2) -> sim::Task<void> {
    co_await await_reads_posted(d.engine(), base, 2);
    d.engine().spawn(spawn_w());
    d.engine().spawn(spawn_r2());
  }(ddss, verbs_counts()[0],
    [&] { return put(ddss, 3, a, done); },
    [&] { return get(ddss, 4, a, r2_got, done); }));
  eng.run();
  EXPECT_EQ(done, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(r1a, value_bytes(0xEE));
  EXPECT_EQ(r1b, value_bytes(0xEE));
  EXPECT_EQ(r2_got, value_bytes(0x55));  // R2 read W's value
  EXPECT_EQ(ddss.lock_cohorts(), 0u);
  EXPECT_EQ(auditor.report_count(), 0u) << first_report();
}

TEST_F(DdssLockFixture, MixedStrictOpsFromThreeNodesStayClean) {
  const Allocation a = allocate(Coherence::kStrict);
  constexpr NodeId kClients = 3;
  constexpr int kStrands = 4;
  std::uint64_t gets = 0;
  std::uint64_t bad = 0;
  // Each strand puts its own byte value; every get must return one
  // allocation-wide value that some put (or the initial 0xEE) wrote.
  const auto strand = [](Ddss& d, NodeId node, std::uint8_t fill,
                         const Allocation& alloc, std::uint64_t& reads,
                         std::uint64_t& wrong) -> sim::Task<void> {
    auto c = d.client(node);
    Rng rng(fill);
    std::vector<std::byte> out(64);
    for (int i = 0; i < 24; ++i) {
      co_await d.engine().delay(rng.uniform(nanoseconds(0), microseconds(2)));
      if (rng.uniform(4) == 0) {
        co_await c.put(alloc, value_bytes(fill));
        continue;
      }
      co_await c.get(alloc, out);
      ++reads;
      const auto v = std::to_integer<std::uint8_t>(out[0]);
      const bool written = v == 0xEE || (v >= 1 && v <= kClients * kStrands);
      wrong += !written || std::count(out.begin(), out.end(), out[0]) != 64;
    }
  };
  std::uint8_t fill = 1;
  for (NodeId n = 1; n <= kClients; ++n) {
    for (int k = 0; k < kStrands; ++k) {
      eng.spawn(strand(ddss, n, fill++, a, gets, bad));
    }
  }
  eng.run();
  EXPECT_GT(gets, 0u);
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(auditor.report_count(), 0u) << first_report();
  EXPECT_EQ(ddss.lock_cohorts(), 0u);
}

TEST_F(DdssFixture, ReleaseDropsAHeldLock) {
  eng.spawn([](Ddss& d) -> sim::Task<void> {
    auto c = d.client(1);
    auto a = co_await c.allocate(64, Coherence::kStrict);
    co_await c.lock(a);
    co_await c.release(a);
  }(ddss));
  eng.run();
  EXPECT_EQ(ddss.lock_cohorts(), 0u);
}

using DdssDeathTest = DdssFixture;

TEST_F(DdssDeathTest, UnlockByNonOwnerAborts) {
  Allocation a;
  eng.spawn([](Ddss& d, Allocation& out) -> sim::Task<void> {
    auto owner = d.client(0);
    out = co_await owner.allocate(64, Coherence::kWrite);
    co_await owner.lock(out);
  }(ddss, a));
  eng.run();
  // Node 0 holds the lock; node 1 neither holds nor waits for it.
  EXPECT_DEATH(
      {
        eng.spawn([](Ddss& d, const Allocation& alloc) -> sim::Task<void> {
          co_await d.client(1).unlock(alloc);
        }(ddss, a));
        eng.run();
      },
      "unlock by non-owner");
  // So does a second unlock by the node that held it.
  EXPECT_DEATH(
      {
        eng.spawn([](Ddss& d, const Allocation& alloc) -> sim::Task<void> {
          co_await d.client(0).unlock(alloc);
          co_await d.client(0).unlock(alloc);
        }(ddss, a));
        eng.run();
      },
      "unlock by non-owner");
}

TEST_F(DdssDeathTest, ReleaseUnderActiveReadersAborts) {
  Allocation a;
  eng.spawn([](Ddss& d, Allocation& out) -> sim::Task<void> {
    out = co_await d.client(0).allocate(64, Coherence::kStrict);
    co_await d.client(0).put(out, value_bytes(0x11));
  }(ddss, a));
  eng.run();
  // Two Strict gets of node 1 share its read tenure; node 1 releases the
  // allocation while both reads are in flight.
  EXPECT_DEATH(
      {
        const auto get = [](Ddss& d, const Allocation& alloc)
            -> sim::Task<void> {
          std::vector<std::byte> out(64);
          co_await d.client(1).get(alloc, out);
        };
        eng.spawn(get(ddss, a));
        eng.spawn(get(ddss, a));
        eng.spawn([](Ddss& d, const Allocation& alloc,
                     std::uint64_t base) -> sim::Task<void> {
          co_await await_reads_posted(d.engine(), base, 2);
          co_await d.client(1).release(alloc);
        }(ddss, a, verbs_counts()[0]));
        eng.run();
      },
      "release of an allocation whose lock is queued for or read");
}

}  // namespace
}  // namespace dcs::ddss
