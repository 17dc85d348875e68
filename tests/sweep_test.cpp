// Cross-module parameterized sweeps: correctness of every cache scheme at
// every file-size class, lock cascade invariants across waiter counts and
// schemes, STORM selectivity/record sweeps, and monitor scheme x load
// matrices.  These are the "does it stay correct across the whole
// parameter space" complement to the targeted unit tests.
#include <gtest/gtest.h>

#include <tuple>

#include "cache/coop_cache.hpp"
#include "common/zipf.hpp"
#include "monitor/monitor.hpp"
#include "scenarios/scenarios.hpp"

namespace dcs {
namespace {

// --- cache scheme x doc size correctness sweep ------------------------------

using CacheSweepParam = std::tuple<cache::Scheme, std::size_t>;

class CacheSweep : public ::testing::TestWithParam<CacheSweepParam> {};

TEST_P(CacheSweep, ZipfTrafficServedCorrectlyUnderEviction) {
  const auto [scheme, doc_bytes] = GetParam();
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 6, .cores_per_node = 2});
  verbs::Network net(fab);
  sockets::TcpNetwork tcp(fab);
  const std::size_t num_docs = 40;
  datacenter::DocumentStore store({.num_docs = num_docs,
                                   .doc_bytes = doc_bytes});
  datacenter::BackendService backend(tcp, store, {5});
  backend.start();
  // Capacity ~ 1/3 of the working set: heavy eviction everywhere.
  cache::CoopCacheService coop(net, backend, store, scheme, {1, 2}, {3, 4},
                               {.capacity_per_node = num_docs * doc_bytes / 6});
  int bad = 0;
  eng.spawn([](cache::CoopCacheService& c,
               const datacenter::DocumentStore& s, int& errors)
                -> sim::Task<void> {
    Rng rng(1000);
    ZipfSampler zipf(40, 0.8);
    for (int i = 0; i < 250; ++i) {
      const auto doc = static_cast<datacenter::DocId>(zipf.sample(rng));
      const auto proxy = static_cast<fabric::NodeId>(1 + rng.uniform(2));
      const auto body = co_await c.serve(proxy, doc);
      if (!s.verify(doc, body)) ++errors;
    }
  }(coop, store, bad));
  eng.run();
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(coop.audit(), "");
  EXPECT_GT(coop.stats().hit_rate(), 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CacheSweep,
    ::testing::Combine(::testing::Values(cache::Scheme::kAC,
                                         cache::Scheme::kBCC,
                                         cache::Scheme::kCCWR,
                                         cache::Scheme::kMTACC,
                                         cache::Scheme::kHYBCC),
                       ::testing::Values(std::size_t{2048},
                                         std::size_t{16384},
                                         std::size_t{65536})),
    [](const auto& param_info) {
      return std::string(cache::to_string(std::get<0>(param_info.param))) + "_" +
             std::to_string(std::get<1>(param_info.param) / 1024) + "k";
    });

// --- lock cascade invariants across schemes x waiter counts -----------------

using DlmSweepParam = std::tuple<dlm::Scheme, int>;

class DlmCascadeSweep : public ::testing::TestWithParam<DlmSweepParam> {};

TEST_P(DlmCascadeSweep, AllWaitersGrantedExactlyOnceAfterRelease) {
  const auto [scheme, waiters] = GetParam();
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 20, .cores_per_node = 2});
  verbs::Network net(fab);
  const auto mgr = dlm::make_lock_manager(scheme, net, 0);
  const auto r = scenarios::run_lock_cascade(eng, *mgr, dlm::LockMode::kShared,
                                             waiters);
  // Each waiter records its grant once; none is granted before the holder
  // released.
  ASSERT_NE(r.release_at, 0u);
  ASSERT_EQ(r.granted_at.size(), static_cast<std::size_t>(waiters));
  for (int i = 0; i < waiters; ++i) {
    EXPECT_GE(r.granted_at[static_cast<std::size_t>(i)], r.release_at)
        << "waiter " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DlmCascadeSweep,
    ::testing::Combine(::testing::Values(dlm::Scheme::kSrsl,
                                         dlm::Scheme::kDqnl,
                                         dlm::Scheme::kNcosed),
                       ::testing::Values(1, 3, 7, 15)),
    [](const auto& param_info) {
      std::string name = dlm::to_string(std::get<0>(param_info.param));
      std::erase(name, '-');
      return name + "_w" + std::to_string(std::get<1>(param_info.param));
    });

// --- STORM record-count sweep ------------------------------------------------

class StormSweep
    : public ::testing::TestWithParam<std::tuple<storm::ControlPlane,
                                                 std::uint64_t>> {};

TEST_P(StormSweep, ScanAccountingExactAtEveryScale) {
  const auto [plane, records] = GetParam();
  sim::Engine eng;
  scenarios::StormSite site(eng, plane);
  const storm::QueryResult result = site.query(records);
  EXPECT_EQ(result.records_scanned, records);
  const auto expected_hits = static_cast<std::uint64_t>(
      static_cast<double>(records) * 0.02);
  EXPECT_GE(result.records_returned, expected_hits / 2);
  EXPECT_LE(result.records_returned, expected_hits + 200);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StormSweep,
    ::testing::Combine(::testing::Values(storm::ControlPlane::kSockets,
                                         storm::ControlPlane::kDdss),
                       ::testing::Values(std::uint64_t{999},
                                         std::uint64_t{4096},
                                         std::uint64_t{50001})),
    [](const auto& param_info) {
      std::string name = storm::to_string(std::get<0>(param_info.param));
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name + "_" + std::to_string(std::get<1>(param_info.param));
    });

// --- monitor scheme x load-level matrix --------------------------------------

using MonSweepParam = std::tuple<monitor::MonScheme, int>;

class MonitorSweep : public ::testing::TestWithParam<MonSweepParam> {};

TEST_P(MonitorSweep, ReportedLoadWithinOneOfTruthAtSteadyState) {
  const auto [scheme, jobs] = GetParam();
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 2, .cores_per_node = 1});
  verbs::Network net(fab);
  sockets::TcpNetwork tcp(fab);
  monitor::ResourceMonitor mon(net, tcp, 0, {1}, scheme,
                               {.async_interval = milliseconds(2)});
  mon.start();
  // Steady load: `jobs` runnable tasks held constant for the whole run.
  for (int j = 0; j < jobs; ++j) {
    eng.spawn(fab.node(1).execute(seconds(1)));
  }
  std::uint64_t reported = 0;
  eng.spawn([](sim::Engine& e, monitor::ResourceMonitor& m,
               std::uint64_t& out) -> sim::Task<void> {
    co_await e.delay(milliseconds(50));  // steady state; async warmed up
    const auto s = co_await m.query(1);
    out = s.stats.runnable;
  }(eng, mon, reported));
  eng.run_until(milliseconds(120));
  // At steady state every scheme must be near-exact (staleness only bites
  // when load *changes*; Figure 8a covers the dynamic case).
  EXPECT_NEAR(static_cast<double>(reported), static_cast<double>(jobs), 1.0)
      << monitor::to_string(scheme) << " with " << jobs << " jobs";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MonitorSweep,
    ::testing::Combine(::testing::Values(monitor::MonScheme::kSocketSync,
                                         monitor::MonScheme::kSocketAsync,
                                         monitor::MonScheme::kRdmaSync,
                                         monitor::MonScheme::kRdmaAsync,
                                         monitor::MonScheme::kERdmaSync),
                       ::testing::Values(0, 2, 6)),
    [](const auto& param_info) {
      std::string name = monitor::to_string(std::get<0>(param_info.param));
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name + "_j" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace dcs
