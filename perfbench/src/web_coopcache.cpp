// web-coopcache: the paper's services layer from client to backend, in the
// shape of `dcs cache --scheme BCC --proxies 4`.
//
// Ten nodes with the default 64 MB of registered memory each: two client
// nodes, four BCC proxies with 4 MB caches, two idle donor nodes (used only
// by the MTACC scheme, kept so the cluster matches `dcs cache`) and two TCP
// backends.  A closed-loop ClientFarm of 16 sessions sends Zipf(0.75)
// requests for 16 KB documents over host TCP.  The caches start empty: the
// first quarter of the trace warms them, and the simulated metrics cover
// the rest, while host time covers the whole run.
#include <memory>
#include <string>
#include <vector>

#include "cache/coop_cache.hpp"
#include "common.hpp"
#include "common/zipf.hpp"
#include "datacenter/backend.hpp"
#include "datacenter/clients.hpp"
#include "datacenter/webfarm.hpp"
#include "fabric/fabric.hpp"
#include "sockets/tcp.hpp"
#include "trace/trace.hpp"
#include "verbs/verbs.hpp"

namespace perfbench {
namespace {

using namespace dcs;
using datacenter::DocId;
using fabric::NodeId;

constexpr std::size_t kDocBytes = 16u << 10;
constexpr std::size_t kWorkingSetBytes = 12u << 20;
constexpr std::size_t kCacheBytes = 4u << 20;
constexpr double kAlpha = 0.75;
constexpr std::size_t kSessions = 16;
constexpr std::uint64_t kDefaultLength = 60000;

const std::vector<NodeId> kClientNodes = {0, 1};
const std::vector<NodeId> kProxyNodes = {2, 3, 4, 5};
const std::vector<NodeId> kDonorNodes = {6, 7};
const std::vector<NodeId> kBackendNodes = {8, 9};

/// What the proxies' wrapped handler needs: the cache and the span log.
struct ServeCtx {
  cache::CoopCacheService* coop = nullptr;
  sim::Engine* eng = nullptr;
  SpanLog* log = nullptr;
  std::uint64_t requests = 0;
};

sim::Task<std::vector<std::byte>> timed_serve(ServeCtx* ctx, NodeId proxy,
                                              DocId id) {
  Scope span(ctx->log, *ctx->eng, "cache", "serve", "", proxy,
             ++ctx->requests, 0);
  co_return co_await ctx->coop->serve(proxy, id);
}

std::uint64_t busy_ns(fabric::Fabric& fab, const std::vector<NodeId>& nodes) {
  std::uint64_t sum = 0;
  for (const NodeId n : nodes) sum += fab.node(n).busy_ns();
  return sum;
}

/// State at the end of the warm-up prefix.
struct Warm {
  std::uint64_t completed = 0;
  std::uint64_t integrity_failures = 0;
  cache::CacheStats cache;
  std::uint64_t proxy_busy_ns = 0;
  std::uint64_t backend_busy_ns = 0;
};

sim::Task<void> drive(datacenter::ClientFarm* farm, std::vector<DocId> warm,
                      std::vector<DocId> measured, fabric::Fabric* fab,
                      const cache::CoopCacheService* coop, Warm* out) {
  co_await farm->run(std::move(warm));
  out->completed = farm->stats().completed;
  out->integrity_failures = farm->stats().integrity_failures;
  out->cache = coop->stats();
  out->proxy_busy_ns = busy_ns(*fab, kProxyNodes);
  out->backend_busy_ns = busy_ns(*fab, kBackendNodes);
  co_await farm->run(std::move(measured));
}

}  // namespace

Result run_web_coopcache(const Options& opts, std::uint64_t main_start_ns) {
  Result r;
  const std::uint64_t length = opts.length > 0 ? opts.length : kDefaultLength;
  const std::uint64_t warm_len = length / 4;
  std::map<std::string, double> setup;
  SpanLog spans;
  SpanLog* log = opts.trace ? &spans : nullptr;

  trace::Registry::global().reset();
  sim::Engine eng;
  trace::Tracer tracer(eng);
  if (opts.trace) tracer.install();

  std::unique_ptr<fabric::Fabric> fab;
  {
    SetupTimer t(log, setup, "fabric");
    fab = std::make_unique<fabric::Fabric>(
        eng, fabric::FabricParams{},
        fabric::ClusterSpec{.num_nodes = 10, .cores_per_node = 2});
  }
  std::unique_ptr<verbs::Network> net;
  {
    SetupTimer t(log, setup, "verbs");
    net = std::make_unique<verbs::Network>(*fab);
  }
  std::unique_ptr<sockets::TcpNetwork> tcp;
  {
    SetupTimer t(log, setup, "sockets");
    tcp = std::make_unique<sockets::TcpNetwork>(*fab);
  }
  std::unique_ptr<datacenter::DocumentStore> store;
  std::unique_ptr<datacenter::BackendService> backend;
  {
    SetupTimer t(log, setup, "datacenter");
    store = std::make_unique<datacenter::DocumentStore>(
        datacenter::DocumentStoreConfig{
            .num_docs = kWorkingSetBytes / kDocBytes, .doc_bytes = kDocBytes});
    backend = std::make_unique<datacenter::BackendService>(*tcp, *store,
                                                           kBackendNodes);
    backend->start();
  }
  std::unique_ptr<cache::CoopCacheService> coop;
  {
    SetupTimer t(log, setup, "cache");
    coop = std::make_unique<cache::CoopCacheService>(
        *net, *backend, *store, cache::Scheme::kBCC, kProxyNodes, kDonorNodes,
        cache::CacheConfig{.capacity_per_node = kCacheBytes});
  }
  ServeCtx ctx{.coop = coop.get(), .eng = &eng, .log = log};
  std::unique_ptr<datacenter::WebFarm> farm;
  std::unique_ptr<datacenter::ClientFarm> clients;
  std::vector<DocId> warm_trace, measured_trace;
  {
    SetupTimer t(log, setup, "datacenter");
    farm = std::make_unique<datacenter::WebFarm>(
        *tcp, kProxyNodes, [&ctx](NodeId proxy, DocId id) {
          return timed_serve(&ctx, proxy, id);
        });
    farm->start();
    clients = std::make_unique<datacenter::ClientFarm>(
        *tcp, kClientNodes, kProxyNodes, *store,
        datacenter::ClientFarmConfig{.sessions = kSessions});
    const ZipfTrace trace(store->num_docs(), kAlpha, length, opts.seed);
    const auto& reqs = trace.requests();
    warm_trace.assign(reqs.begin(),
                      reqs.begin() + static_cast<std::ptrdiff_t>(warm_len));
    measured_trace.assign(reqs.begin() + static_cast<std::ptrdiff_t>(warm_len),
                          reqs.end());
  }
  Warm warm;
  eng.spawn(drive(clients.get(), std::move(warm_trace),
                  std::move(measured_trace), fab.get(), coop.get(), &warm));

  r.setup_s = host_s_since(main_start_ns);
  // One thread runs the engine, so its CPU time is the run phase's host
  // cost, without the time it waited for a core.
  const std::uint64_t run_start = thread_cpu_ns();
  eng.run();
  r.run_s = thread_cpu_s_since(run_start);
  tracer.uninstall();

  // Outputs and correctness.
  const auto& st = clients->stats();
  r.attempted = length;
  r.host_ops = warm.completed + st.completed;
  r.check(r.host_ops == length,
          "web: " + std::to_string(r.host_ops) + " of " +
              std::to_string(length) + " requests completed");
  const std::uint64_t integrity = warm.integrity_failures +
                                  st.integrity_failures;
  for (std::uint64_t i = 0; i < integrity; ++i) {
    r.fail("web: document failed its integrity check");
  }
  const std::string audit = coop->audit();
  r.check(audit.empty(), "cache audit: " + audit);

  r.latency_us = st.latency_us;
  r.sim_ops = st.completed;
  r.sim_elapsed = st.finished_at - st.started_at;
  r.fingerprint = eng.dispatch_fingerprint();

  // Per-layer metrics over the measured part of the run.
  const auto& cs = coop->stats();
  const std::uint64_t reqs = cs.total() - warm.cache.total();
  const std::uint64_t hits = cs.local_hits + cs.remote_hits -
                             warm.cache.local_hits - warm.cache.remote_hits;
  r.layer_sim["cache.requests"] = {static_cast<double>(reqs), "count"};
  r.layer_sim["cache.remote_hits"] = {
      static_cast<double>(cs.remote_hits - warm.cache.remote_hits), "count"};
  r.layer_sim["cache.hit_ratio"] = {
      reqs > 0 ? static_cast<double>(hits) / static_cast<double>(reqs) : 0.0,
      "ratio"};
  r.layer_sim["fabric.busy_us.proxy"] = {
      static_cast<double>(busy_ns(*fab, kProxyNodes) - warm.proxy_busy_ns) /
          1e3,
      "us"};
  r.layer_sim["fabric.busy_us.backend"] = {
      static_cast<double>(busy_ns(*fab, kBackendNodes) -
                          warm.backend_busy_ns) /
          1e3,
      "us"};
  r.layer_sim["fabric.wire_bytes"] = {
      static_cast<double>(fab->bytes_transferred()), "bytes"};
  r.layer_sim["sim.events"] = {static_cast<double>(eng.events_dispatched()),
                               "count"};
  r.layer_host["sim.host_ns_per_event"] = {
      r.run_s * 1e9 / static_cast<double>(eng.events_dispatched()), "ns"};
  r.layer_sim["sockets.tcp.msgs"] = {counter("sockets.tcp.sends"), "count"};
  verbs_op_counts(r);
  for (const auto& [name, secs] : setup) r.layer_host[name] = {secs, "s"};

  if (opts.trace) {
    const std::vector<const SpanLog*> logs = {&spans};
    // Span request ids count serve calls; the first warm_len are warm-up.
    span_percentiles(r, logs, "cache", "serve", nullptr, "cache.serve_us",
                     warm_len);
    critical_path_metrics(r, trace::CriticalPath(tracer), warm_len);
    if (!opts.spans_out.empty() && !write_spans(opts.spans_out, logs)) {
      r.fail("cannot write " + opts.spans_out);
    }
  }
  return r;
}

}  // namespace perfbench
