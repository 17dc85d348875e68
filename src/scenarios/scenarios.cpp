#include "scenarios/scenarios.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/zipf.hpp"
#include "datacenter/clients.hpp"
#include "datacenter/webfarm.hpp"
#include "trace/trace.hpp"

namespace dcs::scenarios {

CoopSiteResult run_coop_site(sim::Engine& eng, const CoopSiteConfig& config) {
  const std::size_t num_proxies = config.proxies;
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 2 + num_proxies + 2 + 2,
                      .cores_per_node = 2, .mem_per_node = 64u << 20});
  verbs::Network net(fab);
  sockets::TcpNetwork tcp(fab);

  std::vector<fabric::NodeId> clients = {0, 1};
  std::vector<fabric::NodeId> proxies, donors, backends;
  for (std::size_t i = 0; i < num_proxies; ++i) {
    proxies.push_back(static_cast<fabric::NodeId>(2 + i));
  }
  donors = {static_cast<fabric::NodeId>(2 + num_proxies),
            static_cast<fabric::NodeId>(3 + num_proxies)};
  backends = {static_cast<fabric::NodeId>(4 + num_proxies),
              static_cast<fabric::NodeId>(5 + num_proxies)};

  const std::size_t num_docs = config.working_set_bytes / config.doc_bytes;
  datacenter::DocumentStore store(
      {.num_docs = num_docs, .doc_bytes = config.doc_bytes});
  datacenter::BackendService backend(tcp, store, backends);
  backend.start();

  cache::CoopCacheService coop(
      net, backend, store, config.scheme, proxies, donors,
      {.capacity_per_node = config.cache_bytes_per_node});
  datacenter::WebFarm farm(tcp, proxies, coop.handler());
  farm.start();

  datacenter::ClientFarm farm_clients(tcp, clients, proxies, store,
                                      {.sessions = 4 * num_proxies});
  ZipfTrace trace(num_docs, config.alpha, config.requests, config.trace_seed);
  eng.spawn(farm_clients.run(
      {trace.requests().begin(), trace.requests().end()}));
  eng.run();

  const datacenter::RunStats& stats = farm_clients.stats();
  return {.tps = stats.tps(),
          .mean_latency_us = stats.latency_us.mean(),
          .hit_rate = coop.stats().hit_rate(),
          .completed = stats.completed,
          .integrity_failures = stats.integrity_failures,
          .audit = coop.audit()};
}

double CascadeResult::cascade_us() const {
  DCS_CHECK(std::ranges::count(granted_at, 0) == 0);
  return to_micros(std::ranges::max(granted_at) - release_at);
}

CascadeResult run_lock_cascade(sim::Engine& eng, dlm::LockManager& mgr,
                               dlm::LockMode mode, int waiters) {
  DCS_CHECK(waiters >= 1);
  CascadeResult r;
  r.granted_at.assign(static_cast<std::size_t>(waiters), 0);
  eng.spawn([](sim::Engine& e, dlm::LockManager& m,
               SimNanos& rel) -> sim::Task<void> {
    co_await m.lock_exclusive(1, 0);
    co_await e.delay(milliseconds(2));
    rel = e.now();
    co_await m.unlock(1, 0);
  }(eng, mgr, r.release_at));
  for (int i = 0; i < waiters; ++i) {
    eng.spawn([](sim::Engine& e, dlm::LockManager& m, fabric::NodeId self,
                 dlm::LockMode md, SimNanos& granted) -> sim::Task<void> {
      co_await e.delay(microseconds(100 + 10 * self));
      {
        // Request root so --critical-path splits acquire latency into
        // lock-wait vs protocol cost.
        trace::Request req("dlm.acquire", self, self);
        co_await m.lock(self, 0, md);
      }
      granted = e.now();
      co_await m.unlock(self, 0);
    }(eng, mgr, static_cast<fabric::NodeId>(2 + i), mode,
                r.granted_at[static_cast<std::size_t>(i)]));
  }
  eng.run();
  return r;
}

StormSite::StormSite(sim::Engine& engine, storm::ControlPlane plane)
    : eng(engine),
      fab(eng, fabric::FabricParams{}, {.num_nodes = 5, .cores_per_node = 2}),
      net(fab),
      tcp(fab),
      cluster(net, tcp, plane, 0, 1, {2, 3, 4}) {
  eng.spawn(cluster.start());
  eng.run();
}

storm::QueryResult StormSite::query(std::uint64_t records) {
  storm::QueryResult result;
  eng.spawn([](storm::StormCluster& c, std::uint64_t n,
               storm::QueryResult& out) -> sim::Task<void> {
    out = co_await c.run_query(n);
  }(cluster, records, result));
  eng.run();
  return result;
}

}  // namespace dcs::scenarios
