// E13 — Section 6 integrated evaluation (the paper's stated future work):
// cooperative caching + active monitoring + dynamic reconfiguration in one
// data-center.
//
// The paper warns that "blindly reallocating resources might have negative
// impacts on the proposed caching schemes due to cache corruption" and
// calls for evaluating the services together.  Here a batch site's load
// spike forces the reconfiguration manager to take one node away from the
// web/caching tier:
//
//   blind        first eligible donor — which is the HOTTEST cache in this
//                workload — so the move destroys the most valuable cached
//                bytes;
//   cache-aware  donor chosen by minimum cached bytes (the coop-cache
//                service's cached_bytes() feeds the manager's
//                RepurposeCost), sacrificing the coldest cache;
//   static       no reconfiguration at all: the web tier keeps its cache
//                but the batch site drowns.
//
// Reported: web-service hit rate and request latency after the move, plus
// batch-site completion time.
#include "cache/coop_cache.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "common/zipf.hpp"
#include "monitor/monitor.hpp"
#include "obs/harness.hpp"
#include "reconfig/reconfig.hpp"

namespace {

using namespace dcs;

enum class Policy { kStatic, kBlind, kCacheAware };
const char* name_of(Policy p) {
  switch (p) {
    case Policy::kStatic: return "no reconfiguration";
    case Policy::kBlind: return "blind reconfiguration";
    case Policy::kCacheAware: return "cache-aware reconfiguration";
  }
  return "?";
}

constexpr SimNanos kWarm = milliseconds(200);
constexpr SimNanos kEnd = milliseconds(900);

/// The web metrics cover the post-move window; a starved batch site is -1.
void policy_scenario(obs::Scenario& out, Policy policy) {
  auto& eng = out.engine();
  // Node 0: front-end/manager; 1..4: pool (web proxies / batch); 5 backend.
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 6, .cores_per_node = 1});
  verbs::Network net(fab);
  sockets::TcpNetwork tcp(fab);

  datacenter::DocumentStore store({.num_docs = 400, .doc_bytes = 16384});
  datacenter::BackendService backend(tcp, store, {5});
  backend.start();
  cache::CoopCacheService coop(net, backend, store, cache::Scheme::kBCC,
                               {1, 2, 3, 4}, {},
                               {.capacity_per_node = 2u << 20});

  monitor::ResourceMonitor mon(net, tcp, 0, {1, 2, 3, 4},
                               monitor::MonScheme::kRdmaSync);
  mon.start();
  // Two sites: 0 = web (all four nodes), 1 = batch (starts empty of load;
  // node 4 nominally assigned so the site exists).
  reconfig::ReconfigService svc(
      net, mon, 0, {1, 2, 3, 4}, 2,
      {.monitor_interval = milliseconds(20),
       .imbalance_threshold = 1.5,
       .history_window = 2,
       .node_repurpose_cost = milliseconds(20)},
      {}, {0, 0, 0, 1});

  if (policy == Policy::kCacheAware) {
    svc.set_repurpose_cost(
        [&coop](fabric::NodeId n) {
          return static_cast<double>(coop.cached_bytes(n));
        });
  }
  svc.set_repurpose_hook([&coop](fabric::NodeId n, std::uint32_t to_site) {
    // Repurposing a caching node destroys its cache contents.
    if (to_site != 0) coop.drop_node_cache(n);
  });
  if (policy != Policy::kStatic) svc.start();

  // Web traffic: skewed so nodes 1 and 2 accumulate the hottest caches
  // (sessions prefer low-numbered proxies for popular documents).
  RunningStat post_latency;
  std::uint64_t post_hits = 0, post_total = 0;
  for (int session = 0; session < 6; ++session) {
    eng.spawn([](sim::Engine& e, reconfig::ReconfigService& s,
                 cache::CoopCacheService& c, int id, RunningStat& lat,
                 std::uint64_t& hits, std::uint64_t& total)
                  -> sim::Task<void> {
      Rng rng(500 + id);
      ZipfSampler zipf(400, 0.8);
      while (e.now() < kEnd) {
        const auto servers = s.servers_of(0);
        const auto doc = static_cast<datacenter::DocId>(zipf.sample(rng));
        // Popular docs go to the first proxies -> their caches get hot.
        const auto proxy =
            servers[doc < 40 ? 0 : doc % servers.size()];
        const auto t0 = e.now();
        const auto before = c.stats();
        {
          trace::Request req("web.request", proxy, doc);
          (void)co_await c.serve(proxy, doc);
        }
        if (e.now() >= kWarm + milliseconds(100)) {
          lat.add(to_micros(e.now() - t0));
          const auto& after = c.stats();
          ++total;
          hits += (after.misses == before.misses);
        }
        co_await e.delay(microseconds(400));
      }
    }(eng, svc, coop, session, post_latency, post_hits, post_total));
  }

  // Batch site: a burst of jobs lands on site 1 at kWarm; with only one
  // node it is overloaded (imbalance the manager must fix).
  SimNanos batch_done = 0;
  eng.spawn([](sim::Engine& e, fabric::Fabric& f,
               reconfig::ReconfigService& s, SimNanos& done)
                -> sim::Task<void> {
    co_await e.delay(kWarm);
    // Open-loop arrivals: each job picks its server at its own arrival
    // time, so jobs arriving after a reconfiguration use the new node.
    std::size_t remaining = 120;
    for (int j = 0; j < 120; ++j) {
      e.spawn([](sim::Engine&, fabric::Fabric& fab2,
                 reconfig::ReconfigService& svc2,
                 std::size_t& left) -> sim::Task<void> {
        const auto server = co_await svc2.pick_server(1);
        co_await fab2.node(server).execute(microseconds(2000));
        --left;
      }(e, f, s, remaining));
      co_await e.delay(microseconds(1500));
    }
    while (remaining > 0) co_await e.delay(milliseconds(1));
    done = e.now();
  }(eng, fab, svc, batch_done));

  eng.run_until(kEnd + milliseconds(50));

  out.metric("web_hit_rate", post_total > 0
                                 ? static_cast<double>(post_hits) /
                                       static_cast<double>(post_total)
                                 : 0);
  out.metric("web_latency_us", post_latency.mean());
  out.metric("batch_makespan_ms",
           batch_done > 0 ? to_millis(batch_done - kWarm) : -1.0);
  out.metric("moves", static_cast<double>(svc.reconfigurations()));
}

void print_table(obs::Harness& h) {
  Table table({"policy", "web hit rate (post-move)", "web latency (us)",
               "batch makespan (ms)", "moves"});
  for (const Policy p :
       {Policy::kStatic, Policy::kBlind, Policy::kCacheAware}) {
    const char* label = p == Policy::kStatic    ? "policy/static"
                        : p == Policy::kBlind   ? "policy/blind"
                                                : "policy/cache-aware";
    const auto m =
        h.run(label, [p](obs::Scenario& s) { policy_scenario(s, p); });
    const double makespan = m.at("batch_makespan_ms");
    table.add_row(
        {name_of(p), fmt_fixed(100 * m.at("web_hit_rate"), 1) + " %",
         fmt_fixed(m.at("web_latency_us"), 0),
         makespan < 0 ? "starved" : fmt_fixed(makespan, 0),
         std::to_string(static_cast<std::uint64_t>(m.at("moves")))});
  }
  table.print(
      "Section 6 (integrated) — caching + monitoring + reconfiguration "
      "(cache-aware donor selection avoids corrupting the hottest cache)");
}

// Scenarios "two-sided" and "one-sided": the paper's Section 5.2 effect
// end to end — identical document fetches over the two-sided host-TCP
// path vs the one-sided SDP rendezvous, each fetch wrapped in a
// trace::Request so the critical-path analyzer attributes its latency
// (host-cpu share shrinks two-sided -> one-sided).
void run_transport(obs::Scenario& s, datacenter::BackendTransport t) {
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 4, .cores_per_node = 2});
  verbs::Network net(fab);
  sockets::TcpNetwork tcp(fab);
  datacenter::DocumentStore store({.num_docs = 64, .doc_bytes = 16384});
  datacenter::BackendService backend(tcp, net, store, {3},
                                     {.request_cpu = microseconds(20),
                                      .transport = t});
  backend.start();
  constexpr int kFetches = 30;
  eng.spawn([](sim::Engine& e, datacenter::BackendService& b,
               obs::Scenario& out) -> sim::Task<void> {
    for (datacenter::DocId d = 0; d < kFetches; ++d) {
      const auto t0 = e.now();
      {
        trace::Request req("web.request", 1, d);
        (void)co_await b.fetch(1, d);
      }
      out.latency_ns(static_cast<double>(e.now() - t0));
    }
  }(eng, backend, s));
  eng.run();
  s.metric("fetches", kFetches);
  s.metric("fetch_us_mean", to_micros(eng.now()) / kFetches);
  s.metric("backend_busy_us_per_fetch",
           to_micros(fab.node(3).busy_ns()) / kFetches);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::extract_harness_flags(argc, argv);
  obs::reject_unknown_args(argc, argv);
  obs::reject_unsupported("integrated", opts.batch != 0, "--batch");
  obs::Harness h("integrated", opts);
  h.run("two-sided", [](obs::Scenario& s) {
    run_transport(s, datacenter::BackendTransport::kTcp);
  });
  h.run("one-sided", [](obs::Scenario& s) {
    run_transport(s, datacenter::BackendTransport::kSdp);
  });
  print_table(h);
  return h.finish();
}
