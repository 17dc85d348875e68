// Datacenter-scale sharded benchmark (docs/SCALING.md).
//
// Partitions a 1024-node datacenter across `--partitions` engine shards and
// runs them on `--shards` workers (sim/shard.hpp).  Each partition
// hosts a real slice of the stack — a Fabric cluster with two-core nodes, a
// verbs network, a DDSS substrate and an N-CoSED lock manager — and a set
// of client strands issuing Zipf-distributed requests over the GLOBAL node
// space.  A request whose node lives in another partition crosses the shard
// boundary as a timestamped message; the remote side serves it (host CPU
// slices + a DDSS get) and replies, so the benchmark exercises the
// conservative-PDES merge under realistic request/response traffic with a
// hot partition (Zipf mass concentrates on low node ranks).
//
// The point of the exercise is the determinism oracle: the merged dispatch
// fingerprint printed at the end must be byte-identical for every
// `--shards` value.  `--shards=1` is the sequential oracle; any divergence
// at higher worker counts is a merge bug, not noise.
//
// The run is one harness scenario, `zipf/nodes=N` (obs::Harness::
// run_sharded), so every harness file flag works as in any bench: the
// harness traces and flight-records each partition in its own context.
// Its dcs-bench-v1 snapshot (the fingerprint, the per-partition event
// counts and the collected registry), its trace and its critical path are
// byte-identical for every `--shards` value.
#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "ddss/ddss.hpp"
#include "dlm/ncosed.hpp"
#include "fabric/fabric.hpp"
#include "monitor/telemetry.hpp"
#include "obs/harness.hpp"
#include "obs/heavy.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/shard.hpp"
#include "trace/exemplar.hpp"
#include "trace/flight.hpp"
#include "trace/trace.hpp"

namespace dcs {
namespace {

// Cross-shard message tags.
constexpr std::uint64_t kReq = 1;   // a = global node key, b = send time
constexpr std::uint64_t kResp = 2;  // a = global node key, b = original send time

constexpr std::size_t kAllocs = 8;       // DDSS allocations per partition
constexpr std::size_t kValueBytes = 64;  // payload size of every put/get

constexpr std::uint32_t kNoHotShard = ~0u;

// Caps on the count flags: every partition owns an engine, an execution
// context and a Fabric slice, and every worker beyond the first is a
// thread, so an unbounded value would exhaust memory or threads before
// the run starts.  A larger value exits 2 naming the flag.
constexpr std::uint64_t kMaxNodes = 4096;
constexpr std::uint64_t kMaxPartitions = 256;
constexpr std::uint64_t kMaxShards = 64;
constexpr std::uint64_t kMaxClients = 256;  // per partition
constexpr std::uint64_t kMaxOps = 1u << 20;  // per client strand
constexpr std::uint64_t kMaxScrapeUs = 1u << 20;
constexpr std::uint64_t kMaxScrapes = 1u << 16;
/// A served request slower than this counts against the slow-serve budget.
constexpr SimNanos kSlowServeNs = 20000;

struct ScaleConfig {
  std::size_t nodes = 1024;
  std::uint32_t partitions = 16;
  std::uint32_t shards = 1;
  std::uint64_t seed = 1;
  std::uint32_t clients = 4;  // client strands per partition
  std::uint32_t ops = 24;     // requests per client strand
  double alpha = 0.9;         // Zipf skew over the global node space
  /// Partition whose serve path gets extra CPU (an injected SLO breach);
  /// kNoHotShard disables the injection.
  std::uint32_t hot_shard = kNoHotShard;
  std::uint64_t scrape_us = 25;  // telemetry scrape cadence (virtual us)
  std::uint64_t scrapes = 20;    // scrape sweeps per partition
  /// --timeseries-out / --slo / --postmortem-dir: run the health plane
  /// and attribute the serve path (the hot-key and exemplar slices).
  bool observe = false;
};

/// Everything one partition owns: a Fabric slice of the datacenter plus the
/// services running on it.  Built by the setup factory in the partition's
/// context and parked there via Shard::keep_alive, so construction and
/// destruction both happen in that context (the per-partition-context
/// contract in sim/shard.hpp).  The Zipf sampler over the global node
/// space is the run's one read-only sampler, built on the calling thread
/// and shared by every partition (ZipfSampler::sample is const).
struct PartitionHost {
  PartitionHost(sim::Engine& eng, const ScaleConfig& cfg,
                const ZipfSampler& zipf_sampler)
      : fab(eng, fabric::FabricParams{},
            {.num_nodes = cfg.nodes / cfg.partitions,
             .cores_per_node = 2,
             .mem_per_node = 64u << 10}),
        net(fab),
        substrate(net),
        locks(net, /*home=*/0),
        zipf(zipf_sampler) {}

  fabric::Fabric fab;
  verbs::Network net;
  ddss::Ddss substrate;
  dlm::NcosedLockManager locks;
  const ZipfSampler& zipf;
  std::vector<ddss::Allocation> allocs;
  /// Per-partition serve-path registry: the telemetry exporter mirrors
  /// THIS registry (not the partition context's one, which every layer
  /// records into), so the exported page holds the serve path alone.
  trace::Registry serve_reg;
};

/// The telemetry page layout both sides agree on (docs/OBSERVABILITY.md):
/// serve-path throughput, the slow-serve budget counter and the serve
/// latency log-histogram.
monitor::TelemetrySchema serve_schema() {
  using monitor::MetricKind;
  return monitor::TelemetrySchema(
      std::vector<monitor::TelemetrySchema::Entry>{
          {DCS_SERIES("scale.serve.latency_ns"), MetricKind::kHistogram},
          {DCS_SERIES("scale.serve.slow"), MetricKind::kCounter},
          {DCS_SERIES("scale.serve.total"), MetricKind::kCounter}});
}

/// What one partition's health plane hands back to the main thread after
/// the run: its slice of the cluster time-series plus its alert stream.
struct PartitionDump {
  obs::TimeSeriesStore store;
  std::vector<obs::AlertEvent> alerts;
  std::uint64_t scrapes = 0;
  std::uint64_t firing = 0;  // (rule, node) pairs firing after the last sweep
  /// Attribution slice (the document's `hotset` and `exemplars` sections):
  /// the serve path feeds THESE sketches explicitly, never the partition's
  /// ambient hot sink, so the pinned sections hold the serve-path domains
  /// alone (the ambient DCS_HOT sites of every DDSS, verbs and N-CoSED op
  /// would add theirs).  Only the owning partition's strands touch its
  /// slot, and the run's closing barrier publishes the writes to the
  /// calling thread.
  obs::HeavyHitters hot;
  trace::ExemplarStore exemplars;
  std::uint64_t serves = 0;
};

/// Per-partition observability plane: an RDMA-Sync exporter/scraper pair
/// over the partition's serve registry, a windowed time-series store and
/// an SLO engine (the built-in burn rule plus the --slo rules) wired into
/// the flight recorder the harness armed in the partition's context under
/// --postmortem-dir.  Lives in the partition's context (Shard::keep_alive),
/// like PartitionHost.
struct ObsPlane {
  ObsPlane(PartitionHost& host, const ScaleConfig& cfg,
           const std::vector<obs::SloRule>& rules)
      : exporter(host.net, /*node=*/0, serve_schema(),
                 microseconds(cfg.scrape_us), &host.serve_reg),
        scraper(host.net, /*frontend=*/host.fab.size() > 1 ? 1 : 0),
        store({.window = microseconds(cfg.scrape_us), .retention = 64}),
        slo(store) {
    scraper.attach(exporter);
    obs::SloRule burn;
    burn.name = DCS_SLO_NAME("serve-slow-burn");
    burn.kind = obs::SloKind::kBurnRate;
    burn.series = DCS_SERIES("scale.serve.slow");
    burn.total = DCS_SERIES("scale.serve.total");
    burn.threshold = 0.05;  // 5% slow-serve budget
    burn.fast_windows = 2;
    burn.slow_windows = 8;
    burn.fast_burn = 4.0;
    burn.slow_burn = 2.0;
    burn.trip_postmortem = true;  // dumps only when --postmortem-dir is set
    slo.add_rule(std::move(burn));
    for (const obs::SloRule& rule : rules) slo.add_rule(rule);
    slo.set_flight(trace::FlightRecorder::current());
  }

  monitor::TelemetryExporter exporter;
  monitor::TelemetryScraper scraper;
  obs::TimeSeriesStore store;
  obs::SloEngine slo;
};

// Coroutines below are free functions taking the shared host by value: a
// coroutine must never be a capturing lambda (the closure dies at the end
// of the spawning full-expression, leaving the frame with dangling
// captures).

/// Serves one remote request on the partition that owns the node: host CPU
/// slices on the keyed node, a DDSS get, then the reply crosses back.  The
/// serve path feeds the partition's serve registry (throughput, slow-serve
/// budget, latency histogram) — the series the scraped health plane
/// judges.  On the --hot-shard partition every serve burns extra CPU, an
/// injected breach the SLO burn-rate rule must catch.
sim::Task<void> serve_request(sim::Shard& shard,
                              std::shared_ptr<PartitionHost> host,
                              ScaleConfig cfg, sim::ShardMsg msg,
                              std::vector<PartitionDump>* slots) {
  const auto t0 = shard.engine().now();
  const auto local_nodes = host->fab.size();
  const auto node = static_cast<fabric::NodeId>(msg.a % local_nodes);
  co_await host->fab.node(node).execute(microseconds(1) +
                                        (msg.a % 4) * nanoseconds(500));
  if (shard.index() == cfg.hot_shard) {
    co_await host->fab.node(node).execute(microseconds(40));
  }
  const SimNanos cpu_ns = shard.engine().now() - t0;
  DCS_CHECK_MSG(!host->allocs.empty(), "request arrived before boot finished");
  std::array<std::byte, kValueBytes> buf{};
  auto client = host->substrate.client(node);
  co_await client.get(host->allocs[msg.a % host->allocs.size()], buf);
  const SimNanos served_in = shard.engine().now() - t0;
  host->serve_reg.counter("scale.serve.total").add(1);
  if (served_in > kSlowServeNs) host->serve_reg.counter("scale.serve.slow").add(1);
  host->serve_reg.histogram("scale.serve.latency_ns")
      .record(static_cast<std::uint64_t>(served_in));
  if (cfg.observe) {
    PartitionDump& dump = (*slots)[shard.index()];
    dump.hot.record_hot("scale.serve.node", msg.a, 1);
    dump.hot.record_hot("scale.serve.object", msg.a % host->allocs.size(), 1);
    // Request ids are globally unique and deterministic: serves within a
    // partition execute in virtual-time order regardless of --shards, so
    // the per-partition sequence number is stable.
    const std::uint64_t rid =
        (std::uint64_t{shard.index() + 1} << 32) | ++dump.serves;
    std::array<SimNanos, trace::kCostCategories> split{};
    split[static_cast<std::size_t>(trace::Cost::kHostCpu) - 1] = cpu_ns;
    split[static_cast<std::size_t>(trace::Cost::kWire) - 1] =
        served_in - cpu_ns;
    dump.exemplars.record(shard.index(), "scale.serve.latency_ns", served_in,
                          rid, split);
  }
  shard.send(msg.src, kResp, msg.a, msg.b);
}

/// The health-plane strand: periodic RDMA-Sync sweeps of the partition's
/// telemetry page at virtual-time cadence (zero target CPU — the read is
/// one-sided), each sweep ingesting into the windowed store and
/// re-evaluating the SLO rules.  After the last sweep the partition's
/// slice of the cluster dump is parked in its result slot, keyed by
/// partition index, so the merged dump is independent of --shards.
sim::Task<void> scrape_strand(sim::Shard& shard,
                              std::shared_ptr<ObsPlane> obs, ScaleConfig cfg,
                              std::vector<PartitionDump>* slots) {
  auto& eng = shard.engine();
  const SimNanos interval = microseconds(cfg.scrape_us);
  // Offset by half a window so sweeps land strictly between the exporter's
  // periodic mirrors instead of racing them at equal timestamps.
  co_await eng.delay(interval / 2);
  // The batched scrape path: each sweep posts ONE work queue for every
  // attached page (one here — the partition exports a single registry
  // slice), so sweep cost scales with page count, not doorbell count.
  const std::vector<fabric::NodeId> targets = {0};
  for (std::uint64_t pass = 0; pass < cfg.scrapes; ++pass) {
    co_await eng.delay(interval);
    const auto snaps = co_await obs->scraper.scrape_many(targets);
    obs->store.ingest(shard.index(), obs->exporter.schema(), snaps[0]);
    obs->slo.evaluate(eng.now());
  }
  PartitionDump& slot = (*slots)[shard.index()];
  slot.store = obs->store;
  slot.alerts = obs->slo.alerts();
  slot.scrapes = obs->scraper.scrapes();
  slot.firing = obs->slo.firing().size();
}

/// One client strand: Zipf-keyed requests over the global node space.
/// Local keys run the full DDSS/DLM path inline; remote keys cross shards.
sim::Task<void> client_strand(sim::Shard& shard,
                              std::shared_ptr<PartitionHost> host,
                              ScaleConfig cfg, std::uint32_t idx) {
  auto& eng = shard.engine();
  auto& reg = trace::Registry::global();
  Rng rng(cfg.seed ^ (std::uint64_t{shard.index()} << 32) ^
          (std::uint64_t{idx} * 0x9E3779B97F4A7C15ULL));
  const auto local_nodes = host->fab.size();
  // Boot is deterministic and identical across partitions, so a fixed
  // settle delay guarantees every partition's allocations exist before the
  // first cross-shard request can arrive.
  co_await eng.delay(microseconds(50) + idx * nanoseconds(137));
  std::array<std::byte, kValueBytes> buf{};
  for (std::uint32_t op = 0; op < cfg.ops; ++op) {
    co_await eng.delay(rng.uniform(microseconds(1), microseconds(25)));
    const std::size_t key = host->zipf.sample(rng);  // global node rank
    const auto target = static_cast<std::uint32_t>(key / local_nodes);
    if (target != shard.index()) {
      shard.send(target, kReq, key, eng.now());
      reg.counter("scale.remote.req").add(1);
      continue;
    }
    const auto node = static_cast<fabric::NodeId>(key % local_nodes);
    auto client = host->substrate.client(node);
    const auto& alloc = host->allocs[key % host->allocs.size()];
    if (op % 3 == 0) {
      std::array<std::byte, kValueBytes> val{};
      val[0] = static_cast<std::byte>(op);
      co_await client.put(alloc, val);
    } else {
      co_await client.get(alloc, buf);
    }
    if (op % 8 == 0) {
      const auto lock_id = static_cast<dlm::LockId>(key % 16);
      co_await host->locks.lock(node, lock_id, dlm::LockMode::kExclusive);
      co_await host->fab.node(node).execute(microseconds(2));
      co_await host->locks.unlock(node, lock_id);
    }
    reg.counter("scale.local.ops").add(1);
  }
}

/// Boot strand: allocate the partition's DDSS working set, then launch the
/// clients.  Runs identically on every partition.
sim::Task<void> boot(sim::Shard& shard, std::shared_ptr<PartitionHost> host,
                     ScaleConfig cfg) {
  auto client = host->substrate.client(0);
  for (std::size_t i = 0; i < kAllocs; ++i) {
    host->allocs.push_back(
        co_await client.allocate(kValueBytes, ddss::Coherence::kWrite));
  }
  for (std::uint32_t c = 0; c < cfg.clients; ++c) {
    shard.engine().spawn(client_strand(shard, host, cfg, c));
  }
}

void setup_partition(sim::Shard& shard, const ScaleConfig& cfg,
                     const ZipfSampler& zipf, const obs::Harness& h,
                     std::vector<PartitionDump>* slots) {
  auto host = std::make_shared<PartitionHost>(shard.engine(), cfg, zipf);
  host->substrate.start();
  shard.set_handler([host, cfg, slots](sim::Shard& s,
                                       const sim::ShardMsg& msg) {
    auto& reg = trace::Registry::global();
    if (msg.tag == kReq) {
      reg.counter("scale.remote.served").add(1);
      s.engine().spawn(serve_request(s, host, cfg, msg, slots));
    } else {
      reg.counter("scale.remote.resp").add(1);
      reg.counter("scale.remote.rtt_total_ns").add(s.engine().now() - msg.b);
    }
  });
  shard.engine().spawn(boot(shard, host, cfg));
  shard.keep_alive(host);
  if (cfg.observe) {
    auto obs = std::make_shared<ObsPlane>(*host, cfg, h.slo_rules());
    obs->exporter.start(cfg.scrapes + 1);
    shard.engine().spawn(scrape_strand(shard, obs, cfg, slots));
    shard.keep_alive(obs);
  }
}

std::uint64_t counter_value(const char* name) {
  const auto* c = trace::Registry::global().find_counter(name);
  return c != nullptr ? c->value : 0;
}

/// Prints the header line, records the run's results once every
/// partition's registry is collected, and hands the partitions' health
/// planes, attribution slices included, to the harness in partition
/// order.  Node sets are disjoint (each partition ingests under its own
/// index), so — like the fingerprint — the document is byte-identical for
/// every --shards value.
void report(obs::ShardedScenario& s, const ScaleConfig& cfg,
            const std::vector<PartitionDump>& slots) {
  sim::ShardedEngine& sharded = s.engine();
  std::printf("datacenter_scale: nodes=%zu partitions=%u shards=%u seed=%" PRIu64
              "\n",
              cfg.nodes, cfg.partitions, sharded.workers(), cfg.seed);
  // A double holds 53 bits exactly: the fingerprint goes in two halves.
  const std::uint64_t fp = sharded.merged_fingerprint();
  s.metric("fingerprint.hi", static_cast<double>(fp >> 32));
  s.metric("fingerprint.lo", static_cast<double>(fp & 0xffffffffu));
  s.metric("events", static_cast<double>(sharded.events_dispatched()));
  s.metric("cross_messages", static_cast<double>(sharded.cross_messages()));
  s.metric("windows", static_cast<double>(sharded.windows()));
  s.metric("virtual_ns", static_cast<double>(sharded.now()));
  // Per-partition shares are deterministic and show the Zipf skew.
  const auto events = sharded.partition_events();
  for (std::size_t p = 0; p < events.size(); ++p) {
    s.metric("events.p" + std::to_string(p), static_cast<double>(events[p]));
  }
  const std::uint64_t resp = counter_value("scale.remote.resp");
  s.metric("local_ops", static_cast<double>(counter_value("scale.local.ops")));
  s.metric("remote_req",
           static_cast<double>(counter_value("scale.remote.req")));
  s.metric("remote_resp", static_cast<double>(resp));
  s.metric("rtt_mean_us",
           resp > 0 ? static_cast<double>(
                          counter_value("scale.remote.rtt_total_ns")) /
                          resp / 1e3
                    : 0.0);
  const auto thread_wall = sharded.worker_wall_ns();
  std::fprintf(stderr, "  wall             %.1f ms busiest thread\n",
               static_cast<double>(*std::max_element(thread_wall.begin(),
                                                     thread_wall.end())) /
                   1e6);

  std::uint64_t scrapes = 0, transitions = 0, firing = 0, serves = 0;
  for (const PartitionDump& slot : slots) {
    if (cfg.observe) {
      s.health(slot.store, slot.alerts, slot.hot, slot.exemplars);
    }
    scrapes += slot.scrapes;
    transitions += slot.alerts.size();
    firing += slot.firing;
    serves += slot.serves;
  }
  // Each trip of a partition's recorder counts in its registry (and prints
  // its dump path itself).
  const std::uint64_t trips = counter_value("flight.trips");
  if (cfg.observe) {
    std::fprintf(stderr,
                 "  health plane     %" PRIu64 " scrapes, %" PRIu64
                 " alert transition(s), %" PRIu64 " firing at end, %" PRIu64
                 " flight trip(s)\n",
                 scrapes, transitions, firing, trips);
    std::fprintf(stderr, "  attribution      %" PRIu64 " serve(s) attributed\n",
                 serves);
  }
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  using namespace dcs;
  const Args args(argc, argv);
  ScaleConfig cfg;
  cfg.nodes =
      args.count<std::size_t>("--nodes", 1, kMaxNodes).value_or(cfg.nodes);
  cfg.partitions = args.count<std::uint32_t>("--partitions", 0, kMaxPartitions)
                       .value_or(cfg.partitions);
  cfg.shards =
      args.count<std::uint32_t>("--shards", 0, kMaxShards).value_or(cfg.shards);
  cfg.seed = args.count<std::uint64_t>("--seed").value_or(cfg.seed);
  cfg.clients = args.count<std::uint32_t>("--clients", 0, kMaxClients)
                    .value_or(cfg.clients);
  cfg.ops = args.count<std::uint32_t>("--ops", 0, kMaxOps).value_or(cfg.ops);
  cfg.hot_shard =
      args.count<std::uint32_t>("--hot-shard").value_or(cfg.hot_shard);
  cfg.scrape_us = args.count<std::uint64_t>("--scrape-us", 1, kMaxScrapeUs)
                      .value_or(cfg.scrape_us);
  cfg.scrapes = args.count<std::uint64_t>("--scrapes", 0, kMaxScrapes)
                    .value_or(cfg.scrapes);
  const auto opts = obs::harness_flags(args);
  if (cfg.partitions == 0 || cfg.nodes % cfg.partitions != 0) {
    std::fprintf(stderr,
                 "datacenter_scale: --nodes must be a positive multiple of "
                 "--partitions\n");
    return 2;
  }
  if (cfg.hot_shard != kNoHotShard && cfg.hot_shard >= cfg.partitions) {
    std::fprintf(stderr, "datacenter_scale: --hot-shard out of range\n");
    return 2;
  }
  // Post-mortems and --slo rules need the health plane's store.
  cfg.observe = !opts.timeseries_out.empty() || !opts.slo_rules.empty() ||
                !opts.postmortem_dir.empty();
  obs::Harness h("datacenter_scale", opts);

  const ZipfSampler zipf(cfg.nodes, cfg.alpha);
  std::vector<PartitionDump> slots(cfg.partitions);
  const auto m = h.run_sharded(
      "zipf/nodes=" + std::to_string(cfg.nodes),
      {.partitions = cfg.partitions,
       .workers = cfg.shards,
       .lookahead = fabric::FabricParams{}.link_latency},
      [&](sim::Shard& shard) {
        setup_partition(shard, cfg, zipf, h, &slots);
      },
      [&](obs::ShardedScenario& s) { report(s, cfg, slots); });
  const auto count = [&](const char* name) {
    return static_cast<std::uint64_t>(m.at(name));
  };
  std::printf("  fingerprint      0x%016" PRIx64 "   <- identical for every --shards\n",
              count("fingerprint.hi") << 32 | count("fingerprint.lo"));
  std::printf("  events           %" PRIu64 " (%" PRIu64
              " cross msgs, %" PRIu64 " windows)\n",
              count("events"), count("cross_messages"), count("windows"));
  std::printf("  virtual time     %.3f ms\n", m.at("virtual_ns") / 1e6);
  std::printf("  local ops        %" PRIu64 "\n", count("local_ops"));
  std::printf("  remote req/resp  %" PRIu64 "/%" PRIu64 " (mean rtt %.2f us)\n",
              count("remote_req"), count("remote_resp"), m.at("rtt_mean_us"));
  return h.finish();
}
