// Tests for hardware multicast and DDSS temporal write-invalidation.
#include <gtest/gtest.h>

#include "ddss/ddss.hpp"
#include "verbs/verbs.hpp"
#include "verbs/wire.hpp"

namespace dcs {
namespace {

struct McFixture : ::testing::Test {
  sim::Engine eng;
  fabric::Fabric fab{eng, fabric::FabricParams{},
                     {.num_nodes = 6, .cores_per_node = 2,
                      .mem_per_node = 1u << 20}};
  verbs::Network net{fab};
};

TEST_F(McFixture, MulticastReachesEveryGroupMember) {
  const std::vector<fabric::NodeId> group = {1, 2, 3, 4};
  int received = 0;
  for (const auto member : group) {
    eng.spawn([](verbs::Network& n, fabric::NodeId self, int& count)
                  -> sim::Task<void> {
      auto msg = co_await n.hca(self).recv(0xCAFE);
      if (verbs::Decoder(msg.payload).u32() == 77) ++count;
    }(net, member, received));
  }
  eng.spawn([](verbs::Network& n, const std::vector<fabric::NodeId>& g)
                -> sim::Task<void> {
    co_await n.hca(0).multicast(g, 0xCAFE, verbs::Encoder().u32(77).take());
  }(net, group));
  eng.run();
  EXPECT_EQ(received, 4);
}

TEST_F(McFixture, MulticastSuppressesLoopback) {
  const std::vector<fabric::NodeId> group = {0, 1};
  eng.spawn([](verbs::Network& n, const std::vector<fabric::NodeId>& g)
                -> sim::Task<void> {
    co_await n.hca(0).multicast(g, 0xF00D, verbs::Encoder().u8(1).take());
  }(net, group));
  eng.run();
  EXPECT_TRUE(net.hca(1).try_recv(0xF00D).has_value());
  EXPECT_FALSE(net.hca(0).try_recv(0xF00D).has_value());
}

TEST_F(McFixture, MulticastCostsOneSerializationNotPerReceiver) {
  // Multicast to 4 receivers must cost about the same wire time as one
  // unicast send of the same payload, not 4x.
  const std::vector<fabric::NodeId> group = {1, 2, 3, 4};
  const std::vector<std::byte> payload(8192);
  eng.spawn([](verbs::Network& n, const std::vector<fabric::NodeId>& g,
               std::vector<std::byte> body) -> sim::Task<void> {
    co_await n.hca(0).multicast(g, 1, std::move(body));
  }(net, group, payload));
  eng.run();
  const auto multicast_time = eng.now();

  sim::Engine eng2;
  fabric::Fabric fab2(eng2, fabric::FabricParams{}, {.num_nodes = 6});
  verbs::Network net2(fab2);
  eng2.spawn([](verbs::Network& n, std::vector<std::byte> body)
                 -> sim::Task<void> {
    co_await n.hca(0).send(1, 1, std::move(body));
  }(net2, payload));
  eng2.run();
  const auto unicast_time = eng2.now();
  EXPECT_LT(multicast_time, 2 * unicast_time);
}


TEST_F(McFixture, LatencyFlatInGroupSize) {
  // Switch-level replication: delivering to 5 members must cost about the
  // same as delivering to 1 (unlike a unicast fan-out loop).
  auto mc_time = [](std::size_t members) {
    sim::Engine eng3;
    fabric::Fabric fab3(eng3, fabric::FabricParams{}, {.num_nodes = 6});
    verbs::Network net3(fab3);
    std::vector<fabric::NodeId> group;
    for (std::size_t m = 1; m <= members; ++m) {
      group.push_back(static_cast<fabric::NodeId>(m));
    }
    eng3.spawn([](verbs::Network& n, std::vector<fabric::NodeId> g)
                   -> sim::Task<void> {
      co_await n.hca(0).multicast(g, 5, std::vector<std::byte>(4096));
    }(net3, std::move(group)));
    eng3.run();
    return eng3.now();
  };
  EXPECT_EQ(mc_time(1), mc_time(5));
}

TEST_F(McFixture, BackToBackMulticastsSerializeAtSenderNic) {
  eng.spawn([](verbs::Network& n) -> sim::Task<void> {
    const std::vector<fabric::NodeId> group = {1, 2, 3};
    co_await n.hca(0).multicast(group, 6, std::vector<std::byte>(8192));
    co_await n.hca(0).multicast(group, 6, std::vector<std::byte>(8192));
  }(net));
  eng.run();
  // Each member got both frames, in order.
  for (fabric::NodeId m = 1; m <= 3; ++m) {
    int count = 0;
    while (net.hca(m).try_recv(6).has_value()) ++count;
    EXPECT_EQ(count, 2) << "member " << m;
  }
}

// The one serialization crosses the fabric, so the wire-byte count sees the
// frame once, however many members the group has.
TEST_F(McFixture, MulticastCountsItsWireBytesOnce) {
  const std::uint64_t before = fab.bytes_transferred();
  eng.spawn([](verbs::Network& n) -> sim::Task<void> {
    const std::vector<fabric::NodeId> group = {1, 2, 3, 4};
    co_await n.hca(0).multicast(group, 8, std::vector<std::byte>(8192));
  }(net));
  eng.run();
  EXPECT_EQ(fab.bytes_transferred() - before, 8192u + 32u)
      << "payload plus the transport header";
}

// A group of only the sender still puts the frame on its link (the switch
// drops the loopback copy): the full serialization and hop, no delivery.
TEST_F(McFixture, SenderOnlyGroupPaysTheWireAndDeliversNothing) {
  eng.spawn([](verbs::Network& n) -> sim::Task<void> {
    const std::vector<fabric::NodeId> group = {0};
    co_await n.hca(0).multicast(group, 8, std::vector<std::byte>(4096));
  }(net));
  eng.run();
  const auto& p = fab.params();
  EXPECT_EQ(eng.now(),
            p.send_post_overhead + p.wire_time(4096 + 32) + p.link_latency);
  EXPECT_FALSE(net.hca(0).try_recv(8).has_value());
}

// --- DDSS temporal write-invalidate ----------------------------------------

struct InvalidateFixture : ::testing::Test {
  sim::Engine eng;
  fabric::Fabric fab{eng, fabric::FabricParams{},
                     {.num_nodes = 4, .cores_per_node = 2,
                      .mem_per_node = 1u << 20}};
  verbs::Network net{fab};
  ddss::Ddss ddss{net, ddss::DdssConfig{.temporal_ttl = seconds(10),
                                        .temporal_write_invalidate = true}};

  void SetUp() override { ddss.start(); }
};

TEST_F(InvalidateFixture, CachedReaderSeesNewValueAfterPut) {
  // With a 10 s TTL, plain temporal coherence would serve the stale value;
  // write-invalidation must flush the reader's cache.
  std::vector<std::byte> got(8);
  eng.spawn([](ddss::Ddss& d, sim::Engine& e, std::vector<std::byte>& out)
                -> sim::Task<void> {
    auto writer = d.client(1);
    auto reader = d.client(2);
    auto a = co_await writer.allocate(8, ddss::Coherence::kTemporal,
                                      ddss::Placement::kLocal);
    co_await writer.put(a, std::vector<std::byte>(8, std::byte{0x11}));
    std::vector<std::byte> buf(8);
    co_await reader.get(a, buf);  // caches 0x11 at node 2
    co_await writer.put(a, std::vector<std::byte>(8, std::byte{0x22}));
    // Give the invalidation one moment to land (it is asynchronous).
    co_await e.delay(microseconds(50));
    co_await reader.get(a, out);
  }(ddss, eng, got));
  eng.run();
  EXPECT_EQ(got, std::vector<std::byte>(8, std::byte{0x22}));
}

TEST_F(InvalidateFixture, AllSharersInvalidatedWithOneMulticast) {
  int stale_reads = 0;
  eng.spawn([](ddss::Ddss& d, sim::Engine& e, int& stale) -> sim::Task<void> {
    auto writer = d.client(0);
    auto a = co_await writer.allocate(8, ddss::Coherence::kTemporal);
    co_await writer.put(a, std::vector<std::byte>(8, std::byte{1}));
    // Three distinct nodes cache the value.
    for (fabric::NodeId n = 1; n <= 3; ++n) {
      auto reader = d.client(n);
      std::vector<std::byte> buf(8);
      co_await reader.get(a, buf);
    }
    const auto msgs_before = d.network().hca(0).messages_sent();
    co_await writer.put(a, std::vector<std::byte>(8, std::byte{2}));
    // One multicast, not three unicasts.
    if (d.network().hca(0).messages_sent() - msgs_before != 1) stale = -100;
    co_await e.delay(microseconds(50));
    for (fabric::NodeId n = 1; n <= 3; ++n) {
      auto reader = d.client(n);
      std::vector<std::byte> buf(8);
      co_await reader.get(a, buf);
      if (buf != std::vector<std::byte>(8, std::byte{2})) ++stale;
    }
  }(ddss, eng, stale_reads));
  eng.run_until(seconds(1));
  EXPECT_EQ(stale_reads, 0);
}

TEST_F(InvalidateFixture, NoInvalidationTrafficWithoutSharers) {
  eng.spawn([](ddss::Ddss& d) -> sim::Task<void> {
    auto writer = d.client(0);
    auto a = co_await writer.allocate(8, ddss::Coherence::kTemporal);
    const auto msgs_before = d.network().hca(0).messages_sent();
    for (int i = 0; i < 5; ++i) {
      co_await writer.put(a, std::vector<std::byte>(8, std::byte{7}));
    }
    DCS_CHECK(d.network().hca(0).messages_sent() == msgs_before);
  }(ddss));
  EXPECT_NO_THROW(eng.run_until(seconds(1)));
}

TEST(InvalidateOffTest, DefaultTemporalStillTtlBased) {
  // Sanity: without the flag, a reader within the TTL serves stale data.
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 3, .mem_per_node = 1u << 20});
  verbs::Network net(fab);
  ddss::Ddss ddss(net, {.temporal_ttl = seconds(10)});
  ddss.start();
  std::vector<std::byte> got(8);
  eng.spawn([](ddss::Ddss& d, std::vector<std::byte>& out) -> sim::Task<void> {
    auto writer = d.client(1);
    auto reader = d.client(2);
    auto a = co_await writer.allocate(8, ddss::Coherence::kTemporal);
    co_await writer.put(a, std::vector<std::byte>(8, std::byte{0x11}));
    std::vector<std::byte> buf(8);
    co_await reader.get(a, buf);
    co_await writer.put(a, std::vector<std::byte>(8, std::byte{0x22}));
    co_await reader.get(a, out);  // within TTL: stale by contract
  }(ddss, got));
  eng.run();
  EXPECT_EQ(got, std::vector<std::byte>(8, std::byte{0x11}));
}

}  // namespace
}  // namespace dcs
