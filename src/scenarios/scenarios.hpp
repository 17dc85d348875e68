// The paper workloads that more than one binary runs, each built once:
// the cooperative-cache site of Figure 6, the lock cascade of Figure 5 and
// the STORM site of Figure 3b.  The benches, the `dcs` run commands and the
// sweep tests all call these builders, so a reproduced figure and the
// interactive tool run the same workload.  Builders take the caller's
// engine and record nothing themselves: callers keep their own metrics and
// tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/coop_cache.hpp"
#include "dlm/lock_manager.hpp"
#include "storm/storm.hpp"

namespace dcs::scenarios {

// --- Figure 6: cooperative-cache site ----------------------------------------

/// The defaults are one Figure 6 cell.
struct CoopSiteConfig {
  cache::Scheme scheme = cache::Scheme::kHYBCC;
  std::size_t proxies = 2;
  std::size_t doc_bytes = 16384;
  std::size_t working_set_bytes = 12u << 20;
  std::size_t cache_bytes_per_node = 4u << 20;
  double alpha = 0.75;
  std::size_t requests = 4000;
  std::uint64_t trace_seed = 20260705;
};

struct CoopSiteResult {
  double tps = 0;
  double mean_latency_us = 0;
  double hit_rate = 0;
  std::uint64_t completed = 0;
  std::uint64_t integrity_failures = 0;
  std::string audit;  // CoopCacheService::audit(); empty when clean
};

/// Closed-loop clients replay a Zipf trace of `requests` documents through
/// `proxies` web proxies running `scheme` until the trace drains.  Layout:
/// nodes 0-1 clients, then the proxies, 2 cache donors and 2 backends; 2
/// cores and 64 MB per node; 4 client sessions per proxy.
CoopSiteResult run_coop_site(sim::Engine& eng, const CoopSiteConfig& config);

// --- Figure 5: lock cascade --------------------------------------------------

struct CascadeResult {
  SimNanos release_at = 0;           // when the holder released
  std::vector<SimNanos> granted_at;  // waiter i (node 2 + i); 0 = never

  /// Release to the last grant, in microseconds; every waiter must have
  /// been granted.
  double cascade_us() const;
};

/// Node 1 holds lock 0 exclusively for 2 ms; waiter i (node 2 + i) asks
/// for it in `mode` at 100 + 10·(2 + i) µs, so every waiter queues behind
/// the holder, and releases it once granted.  Runs the engine until the
/// cascade drains; needs `waiters` >= 1 and a fabric of at least
/// `waiters + 2` nodes.
CascadeResult run_lock_cascade(sim::Engine& eng, dlm::LockManager& mgr,
                               dlm::LockMode mode, int waiters);

// --- Figure 3b: STORM site ---------------------------------------------------

/// Five nodes: coordinator 0, metadata node 1, data nodes 2-4.  The
/// constructor starts the cluster and runs the engine until it is up.
struct StormSite {
  StormSite(sim::Engine& eng, storm::ControlPlane plane);

  /// Runs one `records`-record query to completion.  A caller that wants
  /// the query traced as a request spawns its own `cluster.run_query`.
  storm::QueryResult query(std::uint64_t records);

  sim::Engine& eng;
  fabric::Fabric fab;
  verbs::Network net;
  sockets::TcpNetwork tcp;
  storm::StormCluster cluster;
};

}  // namespace dcs::scenarios
