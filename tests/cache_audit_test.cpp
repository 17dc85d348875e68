// Directory-consistency audits for the cooperative cache, under churn,
// eviction pressure, drop_node_cache (repurposing), and across schemes.
#include <gtest/gtest.h>

#include "cache/coop_cache.hpp"
#include "common/rng.hpp"

namespace dcs::cache {
namespace {

struct AuditWorld {
  sim::Engine eng;
  fabric::Fabric fab;
  verbs::Network net;
  sockets::TcpNetwork tcp;
  datacenter::DocumentStore store;
  datacenter::BackendService backend;
  CoopCacheService cache;

  AuditWorld(Scheme scheme, std::size_t capacity)
      : fab(eng, fabric::FabricParams{},
            {.num_nodes = 6, .cores_per_node = 2}),
        net(fab),
        tcp(fab),
        store({.num_docs = 64, .doc_bytes = 4096}),
        backend(tcp, store, {5}),
        cache(net, backend, store, scheme, {1, 2}, {3, 4},
              {.capacity_per_node = capacity}) {
    backend.start();
  }

  void churn(int requests, std::uint64_t seed) {
    eng.spawn([](AuditWorld& w, int n, std::uint64_t s) -> sim::Task<void> {
      Rng rng(s);
      for (int i = 0; i < n; ++i) {
        const auto proxy = static_cast<fabric::NodeId>(1 + rng.uniform(2));
        const auto doc = static_cast<datacenter::DocId>(rng.uniform(64));
        (void)co_await w.cache.serve(proxy, doc);
      }
    }(*this, requests, seed));
    eng.run();
  }
};

class AuditAllSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(AuditAllSchemes, DirectoryConsistentAfterChurn) {
  AuditWorld w(GetParam(), 24 * 1024);  // 6 docs/node: constant eviction
  w.churn(400, 11);
  EXPECT_EQ(w.cache.audit(), "");
}

TEST_P(AuditAllSchemes, DirectoryConsistentAfterNodeDrop) {
  AuditWorld w(GetParam(), 64 * 1024);
  w.churn(200, 13);
  w.cache.drop_node_cache(1);  // repurpose proxy 1
  EXPECT_EQ(w.cache.audit(), "");
  EXPECT_EQ(w.cache.cached_bytes(1), 0u);
  // Service continues correctly after the drop.
  w.churn(100, 17);
  EXPECT_EQ(w.cache.audit(), "");
}

TEST_P(AuditAllSchemes, DirectoryConsistentWhenBodiesExceedCapacity) {
  // 4 KB documents never fit a 2 KB cache: no node may hold a copy, so the
  // directory must stay empty rather than name nodes that refused the body.
  AuditWorld w(GetParam(), 2 * 1024);
  w.churn(100, 19);
  EXPECT_EQ(w.cache.audit(), "");
  for (fabric::NodeId n = 1; n <= 4; ++n) {
    EXPECT_EQ(w.cache.cached_bytes(n), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, AuditAllSchemes,
                         ::testing::Values(Scheme::kBCC, Scheme::kCCWR,
                                           Scheme::kMTACC, Scheme::kHYBCC),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

TEST(CacheAuditTest, ConcurrentProxiesKeepDirectoryConsistent) {
  AuditWorld w(Scheme::kBCC, 24 * 1024);
  for (int c = 0; c < 4; ++c) {
    w.eng.spawn([](AuditWorld& world, int id) -> sim::Task<void> {
      Rng rng(50 + id);
      for (int i = 0; i < 80; ++i) {
        const auto proxy = static_cast<fabric::NodeId>(1 + (id % 2));
        (void)co_await world.cache.serve(
            proxy, static_cast<datacenter::DocId>(rng.uniform(64)));
        co_await world.eng.delay(microseconds(rng.uniform(1, 40)));
      }
    }(w, c));
  }
  w.eng.run();
  EXPECT_EQ(w.cache.audit(), "");
}

TEST(CacheAuditTest, CachedBytesTracksStores) {
  AuditWorld w(Scheme::kBCC, 64 * 1024);
  EXPECT_EQ(w.cache.cached_bytes(1), 0u);
  w.churn(50, 23);
  EXPECT_GT(w.cache.cached_bytes(1) + w.cache.cached_bytes(2), 0u);
  EXPECT_LE(w.cache.cached_bytes(1), 64u * 1024);
}

}  // namespace
}  // namespace dcs::cache
