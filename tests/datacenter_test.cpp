// Tests for the multi-tier data-center harness: document integrity, backend
// service, proxy farm end-to-end, closed-loop clients, RUBiS mix.
#include <gtest/gtest.h>

#include "datacenter/backend.hpp"
#include "datacenter/clients.hpp"
#include "datacenter/webfarm.hpp"
#include "datacenter/workload.hpp"
#include "common/zipf.hpp"

namespace dcs::datacenter {
namespace {

TEST(DocumentStoreTest, ContentDeterministicAndVerifiable) {
  DocumentStore store({.num_docs = 10, .doc_bytes = 512});
  const auto a = store.content(3);
  const auto b = store.content(3);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(store.verify(3, a));
  EXPECT_FALSE(store.verify(4, a));
}

TEST(DocumentStoreTest, ContentMatchesClosedForm) {
  // Ids at and above 2^25 make id * 131 wrap in 32 bits.
  constexpr DocId kDocs = (1u << 26) + 1;
  for (const std::size_t size : {1, 255, 256, 257, 16384, 65537}) {
    const DocumentStore store({.num_docs = kDocs, .doc_bytes = size});
    for (const DocId id : {0u, 1u, 77u, 1u << 25, (1u << 25) + 3, kDocs - 1}) {
      const auto body = store.content(id);
      ASSERT_EQ(body.size(), size);
      for (std::size_t k = 0; k < size; ++k) {
        const auto want = static_cast<std::byte>(
            (std::uint64_t{id} * 131 + std::uint64_t{k} * 7) % 256);
        ASSERT_EQ(body[k], want) << "doc " << id << " size " << size
                                 << " byte " << k;
      }
    }
  }
}

TEST(DocumentStoreTest, CorruptionDetected) {
  DocumentStore store({.num_docs = 4, .doc_bytes = 256});
  auto body = store.content(1);
  body[0] = static_cast<std::byte>(~std::to_integer<unsigned>(body[0]));
  EXPECT_FALSE(store.verify(1, body));
}

TEST(RubisWorkloadTest, MixCoversAllOps) {
  const auto trace = make_rubis_trace(20000, 7);
  std::vector<int> counts(rubis_mix().size(), 0);
  for (const auto op : trace) {
    ASSERT_LT(op, rubis_mix().size());
    counts[op]++;
  }
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_GT(counts[i], 0) << rubis_mix()[i].name;
  }
  // Browse should dominate PlaceBid roughly per the weights (28 vs 5).
  EXPECT_GT(counts[1], 3 * counts[6]);
}

TEST(RubisWorkloadTest, TraceDeterministic) {
  EXPECT_EQ(make_rubis_trace(1000, 42), make_rubis_trace(1000, 42));
  EXPECT_NE(make_rubis_trace(1000, 42), make_rubis_trace(1000, 43));
}

TEST(RubisWorkloadTest, MeanCpuWithinMixBounds) {
  const auto mean = rubis_mean_cpu();
  EXPECT_GT(mean, microseconds(40));
  EXPECT_LT(mean, microseconds(1800));
}

struct TierFixture : ::testing::Test {
  // Nodes: 0 client, 1-2 proxies, 3 backend.
  sim::Engine eng;
  fabric::Fabric fab{eng, fabric::FabricParams{},
                     {.num_nodes = 4, .cores_per_node = 2}};
  sockets::TcpNetwork tcp{fab};
  DocumentStore store{{.num_docs = 50, .doc_bytes = 4096}};
  BackendService backend{tcp, store, {3}};
};

TEST_F(TierFixture, BackendFetchReturnsCorrectContent) {
  backend.start();
  bool ok = false;
  eng.spawn([](BackendService& b, const DocumentStore& s, bool& out)
                -> sim::Task<void> {
    auto body = co_await b.fetch(1, 7);
    out = s.verify(7, body);
  }(backend, store, ok));
  eng.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(backend.requests_served(), 1u);
}

TEST_F(TierFixture, BackendFetchCostsMillisecondScale) {
  backend.start();
  eng.spawn([](BackendService& b) -> sim::Task<void> {
    (void)co_await b.fetch(1, 0);
  }(backend));
  eng.run();
  // 4 KB dynamic doc: TCP RTTs + generation; far more than an RDMA read.
  EXPECT_GT(eng.now(), microseconds(50));
  EXPECT_LT(eng.now(), milliseconds(5));
}

TEST_F(TierFixture, EndToEndClientProxyBackend) {
  backend.start();
  WebFarm farm(tcp, {1, 2},
               [this](NodeId proxy, DocId id) {
                 return backend.fetch(proxy, id);
               });
  farm.start();
  ClientFarm clients(tcp, {0}, farm.proxies(), store, {.sessions = 4});
  dcs::ZipfTrace zipf(store.num_docs(), 0.75, 200, 11);
  eng.spawn(clients.run({zipf.requests().begin(), zipf.requests().end()}));
  eng.run();
  EXPECT_EQ(clients.stats().completed, 200u);
  EXPECT_EQ(clients.stats().integrity_failures, 0u);
  EXPECT_GT(clients.stats().tps(), 0.0);
  EXPECT_EQ(farm.requests_served(), 200u);
}

TEST_F(TierFixture, MoreSessionsRaiseThroughput) {
  backend.start();
  auto run_with = [&](std::size_t sessions) {
    // Fresh world per run for isolation.
    sim::Engine e2;
    fabric::Fabric f2(e2, fabric::FabricParams{},
                      {.num_nodes = 4, .cores_per_node = 4});
    sockets::TcpNetwork t2(f2);
    DocumentStore s2({.num_docs = 50, .doc_bytes = 4096});
    BackendService b2(t2, s2, {3});
    b2.start();
    WebFarm farm2(t2, {1, 2}, [&b2](NodeId proxy, DocId id) {
      return b2.fetch(proxy, id);
    });
    farm2.start();
    ClientFarm clients2(t2, {0}, farm2.proxies(), s2, {.sessions = sessions});
    dcs::ZipfTrace zipf(s2.num_docs(), 0.75, 300, 11);
    e2.spawn(clients2.run({zipf.requests().begin(), zipf.requests().end()}));
    e2.run();
    return clients2.stats().tps();
  };
  EXPECT_GT(run_with(8), run_with(1) * 1.5);
}

TEST_F(TierFixture, LatencyRecordedPerRequest) {
  backend.start();
  WebFarm farm(tcp, {1}, [this](NodeId proxy, DocId id) {
    return backend.fetch(proxy, id);
  });
  farm.start();
  ClientFarm clients(tcp, {0}, farm.proxies(), store, {.sessions = 2});
  eng.spawn(clients.run({1, 2, 3, 4, 5, 6}));
  eng.run();
  const auto& stats = clients.stats();
  EXPECT_EQ(stats.latency_us.count(), 6u);
  EXPECT_GT(stats.latency_us.mean(), 0.0);
}


struct SdpTierFixture : ::testing::Test {
  // Nodes: 0 client, 1-2 proxies, 3 backend.
  sim::Engine eng;
  fabric::Fabric fab{eng, fabric::FabricParams{},
                     {.num_nodes = 4, .cores_per_node = 2}};
  verbs::Network net{fab};
  sockets::TcpNetwork tcp{fab};
  DocumentStore store{{.num_docs = 50, .doc_bytes = 16384}};
};

TEST_F(SdpTierFixture, SdpTransportReturnsCorrectContent) {
  BackendService backend(tcp, net, store, {3},
                         {.transport = BackendTransport::kSdp});
  backend.start();
  bool ok = false;
  eng.spawn([](BackendService& b, const DocumentStore& s, bool& out)
                -> sim::Task<void> {
    for (DocId d = 0; d < 5; ++d) {
      auto body = co_await b.fetch(1, d);
      if (!s.verify(d, body)) co_return;
    }
    out = true;
  }(backend, store, ok));
  eng.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(backend.requests_served(), 5u);
}

TEST_F(SdpTierFixture, SdpTransportFasterAndCheaperThanTcp) {
  // Same document, same backend work: the SDP link must beat TCP on
  // latency and burn less CPU on the communication path.
  auto run_transport = [](BackendTransport transport) {
    sim::Engine e2;
    fabric::Fabric f2(e2, fabric::FabricParams{},
                      {.num_nodes = 4, .cores_per_node = 2});
    verbs::Network n2(f2);
    sockets::TcpNetwork t2(f2);
    DocumentStore s2({.num_docs = 50, .doc_bytes = 16384});
    BackendService b2(t2, n2, s2, {3}, {.transport = transport});
    b2.start();
    e2.spawn([](BackendService& b) -> sim::Task<void> {
      for (DocId d = 0; d < 20; ++d) (void)co_await b.fetch(1, d);
    }(b2));
    e2.run();
    // Communication CPU = total busy minus the (fixed) generation work.
    return std::pair<SimNanos, std::uint64_t>(e2.now(),
                                              f2.node(3).busy_ns());
  };
  const auto [tcp_time, tcp_cpu] = run_transport(BackendTransport::kTcp);
  const auto [sdp_time, sdp_cpu] = run_transport(BackendTransport::kSdp);
  EXPECT_LT(sdp_time, tcp_time);
  EXPECT_LT(sdp_cpu, tcp_cpu) << "SDP removes kernel per-message CPU";
}

}  // namespace
}  // namespace dcs::datacenter
