// Datacenter-scale sharded benchmark (docs/SCALING.md).
//
// Partitions a 1024-node datacenter across `--partitions` engine shards and
// runs them on `--shards` worker threads (sim/shard.hpp).  Each partition
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
// `--bench-wall-json FILE` writes dcs-bench-wall-v1 telemetry with
// LIST-valued fields: `events` is per-partition (partition order) and
// `wall_ns` is per-worker (worker order), because a sharded run has no
// single meaningful scalar for either — workers overlap in wall time and
// partitions do unequal shares of the work.  tools/bench_compare.py reduces
// the lists (sum of events, max of wall_ns) when comparing.
#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
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
#include "trace/shard_metrics.hpp"
#include "trace/trace.hpp"

namespace dcs {
namespace {

// Cross-shard message tags.
constexpr std::uint64_t kReq = 1;   // a = global node key, b = send time
constexpr std::uint64_t kResp = 2;  // a = global node key, b = original send time

constexpr std::size_t kAllocs = 8;       // DDSS allocations per partition
constexpr std::size_t kValueBytes = 64;  // payload size of every put/get

constexpr std::uint32_t kNoHotShard = ~0u;
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
  bool observe = false;          // --timeseries-out / --slo requested
  bool attribute = false;        // --hotset-out / --exemplars-out / --hot-keys
};

/// Everything one partition owns: a Fabric slice of the datacenter plus the
/// services running on it.  Built by the setup factory on the partition's
/// owning worker and parked there via Shard::keep_alive, so construction
/// and destruction both happen on that worker's thread (the affinity
/// contract in sim/shard.hpp).
struct PartitionHost {
  PartitionHost(sim::Engine& eng, const ScaleConfig& cfg)
      : fab(eng, fabric::FabricParams{},
            {.num_nodes = cfg.nodes / cfg.partitions,
             .cores_per_node = 2,
             .mem_per_node = 64u << 10}),
        net(fab),
        substrate(net),
        locks(net, /*home=*/0),
        zipf(cfg.nodes, cfg.alpha) {}

  fabric::Fabric fab;
  verbs::Network net;
  ddss::Ddss substrate;
  dlm::NcosedLockManager locks;
  ZipfSampler zipf;
  std::vector<ddss::Allocation> allocs;
  /// Per-partition serve-path registry: the telemetry exporter mirrors
  /// THIS registry (not the worker's thread-local one), so the exported
  /// page is a function of the partition, never of the --shards layout.
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
  std::uint64_t publishes = 0;
  std::uint64_t flight_trips = 0;
  std::vector<std::string> dump_paths;
  /// Attribution slice (--hotset-out / --exemplars-out): the serve path
  /// feeds THESE sketches explicitly — never the worker's ambient hot
  /// sink — so their contents are a function of the partition alone and
  /// the merged dumps are byte-identical for every --shards value.  Only
  /// the owning partition's strands touch its slot, and worker join
  /// publishes the writes to the main thread.
  obs::HeavyHitters hot;
  trace::ExemplarStore exemplars;
  std::uint64_t serves = 0;
};

/// Per-partition observability plane: an RDMA-Sync exporter/scraper pair
/// over the partition's serve registry, a windowed time-series store and
/// an SLO engine wired into a flight recorder.  Lives on the partition's
/// owning worker (Shard::keep_alive), like PartitionHost.
struct ObsPlane {
  ObsPlane(sim::Shard& shard, PartitionHost& host, const ScaleConfig& cfg,
           const obs::HarnessOptions& opts,
           const std::vector<obs::SloRule>& extra_rules)
      : exporter(host.net, /*node=*/0, serve_schema(),
                 microseconds(cfg.scrape_us), &host.serve_reg),
        scraper(host.net, /*frontend=*/host.fab.size() > 1 ? 1 : 0),
        store({.window = microseconds(cfg.scrape_us), .retention = 64}),
        slo(store),
        flight(shard.engine(),
               trace::FlightConfig{
                   .postmortem_dir = opts.postmortem_dir,
                   .prefix = "datacenter_scale.p" +
                             std::to_string(shard.index())}) {
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
    for (const auto& rule : extra_rules) slo.add_rule(rule);
    slo.set_flight(&flight);
  }

  monitor::TelemetryExporter exporter;
  monitor::TelemetryScraper scraper;
  obs::TimeSeriesStore store;
  obs::SloEngine slo;
  trace::FlightRecorder flight;
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
  if (cfg.attribute) {
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
  slot.publishes = obs->exporter.publishes();
  slot.flight_trips = obs->flight.trips();
  slot.dump_paths = obs->flight.dump_paths();
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
                     const obs::HarnessOptions& opts,
                     const std::vector<obs::SloRule>& extra_rules,
                     std::vector<PartitionDump>* slots) {
  auto host = std::make_shared<PartitionHost>(shard.engine(), cfg);
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
    auto obs = std::make_shared<ObsPlane>(shard, *host, cfg, opts,
                                          extra_rules);
    obs->exporter.start(cfg.scrapes + 1);
    shard.engine().spawn(scrape_strand(shard, obs, cfg, slots));
    shard.keep_alive(obs);
  }
}

std::uint64_t counter_value(const char* name) {
  const auto* c = trace::Registry::global().find_counter(name);
  return c != nullptr ? c->value : 0;
}

bool parse_u64(const char* arg, const char* flag, std::uint64_t* out,
               std::uint64_t max = UINT64_MAX) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=') return false;
  *out = obs::count_flag(flag, arg + n + 1, 0, max);
  return true;
}

int run(const ScaleConfig& cfg, const obs::HarnessOptions& opts) {
  using Clock = std::chrono::steady_clock;
  trace::Registry::global().reset();
  std::vector<obs::SloRule> extra_rules;
  if (!opts.slo_rules.empty()) {
    std::string error;
    extra_rules = obs::parse_slo_rules_file(opts.slo_rules, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "datacenter_scale: %s\n", error.c_str());
      return 2;
    }
  }
  std::vector<PartitionDump> slots(cfg.partitions);
  const auto wall_start = Clock::now();
  sim::ShardedEngine sharded({.partitions = cfg.partitions,
                              .workers = cfg.shards,
                              .lookahead = fabric::FabricParams{}.link_latency});
  sharded.setup([&cfg, &opts, &extra_rules, &slots](sim::Shard& shard) {
    setup_partition(shard, cfg, opts, extra_rules, &slots);
  });
  sharded.run();
  const auto wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           wall_start)
          .count());
  trace::collect_shard_registries(sharded);

  const auto events = sharded.partition_events();
  const auto worker_wall = sharded.worker_wall_ns();
  const std::uint64_t total_events = sharded.events_dispatched();
  const std::uint64_t busiest_worker_ns =
      *std::max_element(worker_wall.begin(), worker_wall.end());
  const double secs = static_cast<double>(wall_ns) / 1e9;
  const double eps = secs > 0 ? static_cast<double>(total_events) / secs : 0;

  const std::uint64_t resp = counter_value("scale.remote.resp");
  const std::uint64_t rtt_total = counter_value("scale.remote.rtt_total_ns");
  std::printf("datacenter_scale: nodes=%zu partitions=%u shards=%u seed=%" PRIu64
              "\n",
              cfg.nodes, cfg.partitions, sharded.workers(), cfg.seed);
  std::printf("  fingerprint      0x%016" PRIx64 "   <- identical for every --shards\n",
              sharded.merged_fingerprint());
  std::printf("  events           %" PRIu64 " (%" PRIu64
              " cross msgs, %" PRIu64 " windows)\n",
              total_events, sharded.cross_messages(), sharded.windows());
  std::printf("  virtual time     %.3f ms\n",
              static_cast<double>(sharded.now()) / 1e6);
  std::printf("  local ops        %" PRIu64 "\n", counter_value("scale.local.ops"));
  std::printf("  remote req/resp  %" PRIu64 "/%" PRIu64 " (mean rtt %.2f us)\n",
              counter_value("scale.remote.req"), resp,
              resp > 0 ? static_cast<double>(rtt_total) / resp / 1e3 : 0.0);
  std::printf("  wall             %.1f ms total, %.1f ms busiest worker, "
              "%.0f events/sec\n",
              static_cast<double>(wall_ns) / 1e6,
              static_cast<double>(busiest_worker_ns) / 1e6, eps);

  bool ok = true;  // every requested dump was written

  if (cfg.observe) {
    // Merge the per-partition health planes in partition order.  Node sets
    // are disjoint (each partition ingests under its own index), so the
    // merged dump — like the fingerprint — is byte-identical for every
    // --shards value.
    obs::TimeSeriesStore merged(
        {.window = microseconds(cfg.scrape_us), .retention = 64});
    obs::SloEngine merged_slo(merged);
    std::uint64_t scrapes = 0, trips = 0;
    std::vector<std::string> dumps;
    for (const PartitionDump& slot : slots) {
      merged.merge(slot.store);
      merged_slo.absorb(slot.alerts);
      scrapes += slot.scrapes;
      trips += slot.flight_trips;
      dumps.insert(dumps.end(), slot.dump_paths.begin(),
                   slot.dump_paths.end());
    }
    std::map<std::pair<std::string, std::uint32_t>, bool> final_state;
    for (const auto& a : merged_slo.alerts()) {
      final_state[{a.rule, a.node}] = a.firing;
    }
    std::size_t firing = 0;
    for (const auto& [key, last] : final_state) {
      (void)key;
      if (last) ++firing;
    }
    std::printf("  health plane     %" PRIu64 " scrapes, %zu alert "
                "transition(s), %zu firing at end, %" PRIu64
                " flight trip(s)\n",
                scrapes, merged_slo.alerts().size(), firing, trips);
    for (const auto& path : dumps) std::printf("  postmortem: %s\n", path.c_str());
    if (!merged_slo.alerts().empty()) {
      std::ostringstream stream;
      obs::write_alert_stream(stream, merged_slo.alerts());
      std::fputs(stream.str().c_str(), stdout);
    }
    ok &= obs::write_dump(
        opts.timeseries_out, std::to_string(merged.all().size()) + " series",
        [&](std::ostream& os) {
          obs::write_timeseries_json(os, merged, merged_slo.alerts());
        });
  }

  if (cfg.attribute) {
    // Merge the per-partition attribution slices in partition order.  The
    // space-saving merge and the exemplar argmax are both
    // grouping-independent, so — like the fingerprint — the dumps are
    // byte-identical for every --shards value.
    obs::HeavyHitters hot;
    trace::ExemplarStore exemplars;
    std::uint64_t serves = 0;
    for (const PartitionDump& slot : slots) {
      hot.merge(slot.hot);
      exemplars.merge(slot.exemplars);
      serves += slot.serves;
    }
    std::printf("  attribution      %" PRIu64 " serve(s) attributed\n", serves);
    if (opts.hot_keys > 0) {
      for (const char* domain : {"scale.serve.node", "scale.serve.object"}) {
        const auto entries = hot.top(domain, opts.hot_keys);
        std::uint64_t total = 0;
        for (const auto& e : entries) total += e.count;
        std::printf("  hot %s (top %zu of %" PRIu64 "):\n", domain,
                    entries.size(), total);
        for (const auto& e : entries) {
          std::printf("    key=%" PRIu64 " count=%" PRIu64 " error=%" PRIu64
                      "\n",
                      e.key, e.count, e.error);
        }
      }
    }
    ok &= obs::write_dump(opts.hotset_out, "hotset", [&](std::ostream& os) {
      obs::write_hotset_json(os, hot);
    });
    ok &= obs::write_dump(opts.exemplars_out, "exemplars",
                          [&](std::ostream& os) {
                            trace::write_exemplar_json(os, exemplars);
                          });
  }

  // dcs-bench-wall-v1 with list-valued events (per partition) and wall_ns
  // (per worker); consumers reduce with sum / max respectively.
  ok &= obs::write_dump(opts.wall_json, "wall telemetry",
                        [&](std::ostream& os) {
    char fp[32];
    std::snprintf(fp, sizeof fp, "0x%016" PRIx64, sharded.merged_fingerprint());
    os << "{\n  \"schema\": \"dcs-bench-wall-v1\",\n"
       << "  \"bench\": \"datacenter_scale\",\n"
       << "  \"peak_rss_mb\": " << fmt_fixed(obs::peak_rss_mb(), 3)
       << ",\n  \"scenarios\": {\n"
       << "    \"zipf/nodes=" << cfg.nodes << "\": {\n"
       << "      \"virtual_ns\": " << sharded.now() << ",\n"
       << "      \"fingerprint\": \"" << fp << "\",\n"
       << "      \"partitions\": " << cfg.partitions << ",\n"
       << "      \"shards\": " << sharded.workers() << ",\n"
       << "      \"cross_messages\": " << sharded.cross_messages() << ",\n"
       << "      \"events\": [";
    for (std::size_t i = 0; i < events.size(); ++i) {
      os << (i ? ", " : "") << events[i];
    }
    os << "],\n      \"wall_ns\": [";
    for (std::size_t i = 0; i < worker_wall.size(); ++i) {
      os << (i ? ", " : "") << worker_wall[i];
    }
    const double npe =
        total_events > 0 ? static_cast<double>(wall_ns) / total_events : 0.0;
    os << "],\n      \"events_per_sec\": " << fmt_fixed(eps, 3) << ",\n"
       << "      \"ns_per_event\": " << fmt_fixed(npe, 3)
       << "\n    }\n  }\n}\n";
  });
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  auto opts = dcs::obs::extract_harness_flags(argc, argv);
  dcs::ScaleConfig cfg;
  std::uint64_t v = 0;
  for (int i = 1; i < argc; ++i) {
    if (dcs::parse_u64(argv[i], "--nodes", &v)) {
      cfg.nodes = static_cast<std::size_t>(v);
    } else if (dcs::parse_u64(argv[i], "--partitions", &v, UINT32_MAX)) {
      cfg.partitions = static_cast<std::uint32_t>(v);
    } else if (dcs::parse_u64(argv[i], "--shards", &v, UINT32_MAX)) {
      cfg.shards = static_cast<std::uint32_t>(v);
    } else if (dcs::parse_u64(argv[i], "--seed", &v)) {
      cfg.seed = v;
    } else if (dcs::parse_u64(argv[i], "--clients", &v, UINT32_MAX)) {
      cfg.clients = static_cast<std::uint32_t>(v);
    } else if (dcs::parse_u64(argv[i], "--ops", &v, UINT32_MAX)) {
      cfg.ops = static_cast<std::uint32_t>(v);
    } else if (dcs::parse_u64(argv[i], "--hot-shard", &v, UINT32_MAX)) {
      cfg.hot_shard = static_cast<std::uint32_t>(v);
    } else if (dcs::parse_u64(argv[i], "--scrape-us", &v)) {
      cfg.scrape_us = v;
    } else if (dcs::parse_u64(argv[i], "--scrapes", &v)) {
      cfg.scrapes = v;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--nodes=N] [--partitions=P] [--shards=W] "
                   "[--seed=S] [--clients=C] [--ops=K] [--hot-shard=P] "
                   "[--scrape-us=U] [--scrapes=K] [--bench-wall-json FILE] "
                   "[--timeseries-out FILE] [--slo FILE] "
                   "[--postmortem-dir DIR] [--hotset-out FILE] "
                   "[--exemplars-out FILE] [--hot-keys N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cfg.partitions == 0 || cfg.nodes % cfg.partitions != 0) {
    std::fprintf(stderr,
                 "datacenter_scale: --nodes must be a positive multiple of "
                 "--partitions\n");
    return 2;
  }
  if (cfg.hot_shard != dcs::kNoHotShard && cfg.hot_shard >= cfg.partitions) {
    std::fprintf(stderr, "datacenter_scale: --hot-shard out of range\n");
    return 2;
  }
  cfg.observe = !opts.timeseries_out.empty() || !opts.slo_rules.empty();
  // Flags this bench has no sink for exit 2 rather than write nothing.
  // Post-mortems come from the SLO plane, which only runs when observed.
  const std::pair<bool, const char*> unsupported[] = {
      {!opts.bench_json.empty(), "--bench-json"},
      {!opts.critical_path.empty(), "--critical-path"},
      {!opts.trace_out.empty(), "--trace-out"},
      {!opts.metrics_out.empty(), "--metrics-out"},
      {opts.batch != 0, "--batch"},
      {!opts.postmortem_dir.empty() && !cfg.observe,
       "--postmortem-dir without --timeseries-out or --slo"},
  };
  for (const auto& [given, flag] : unsupported) {
    dcs::obs::reject_unsupported("datacenter_scale", given, flag);
  }
  cfg.attribute = opts.attribution_mode();
  return dcs::run(cfg, opts);
}
