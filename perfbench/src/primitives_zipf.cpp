// primitives-zipf: the paper's primitives layer on the sharded engine, in
// the shape of bench_datacenter_scale.
//
// 1024 two-core nodes with 64 KB of registered memory each, in 16 partitions
// of 64 nodes on a sim::ShardedEngine.  Each partition runs DDSS and an
// N-CoSED lock manager, and four closed-loop client strands (on nodes 1..4)
// draw Zipf(0.9) keys over the global node space.  A key owned by another
// partition becomes a cross-partition request whose reply the strand waits
// for (the server spends 0.5-2.5 us of CPU on it, then does a DDSS get);
// a local key runs a DDSS put, get or batched get_many (depth 4) on an
// allocation of the Null, Write, Strict or Version model, and one op in
// eight also takes an exclusive N-CoSED lock.  Locks are always taken from
// the strand's own node: N-CoSED allows one holding strand per node per
// lock, and each strand has a node of its own.
//
// Every DDSS value is self-certifying (a token word plus words derived from
// it and the allocation key), so each read can be checked to hold bytes
// that some put wrote.
//
// The process, coordinator and workers alike, runs on one CPU.  Each PDES
// window hands off between the threads (about 190k wakeups a run); on a
// shared 4-vCPU VM a wakeup on another vCPU waits until the host runs that
// vCPU, which made a run take 1.6 to 8 s from one minute to the next.  On one
// CPU the host cost is the threads' work and their handoffs, not the host's
// scheduling.
#include <sched.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "ddss/ddss.hpp"
#include "dlm/ncosed.hpp"
#include "fabric/fabric.hpp"
#include "sim/shard.hpp"
#include "sim/sync.hpp"
#include "trace/shard_metrics.hpp"
#include "trace/trace.hpp"

namespace perfbench {
namespace {

using namespace dcs;
using fabric::NodeId;

constexpr std::size_t kNodes = 1024;
constexpr std::uint32_t kPartitions = 16;
constexpr std::size_t kLocalNodes = kNodes / kPartitions;
constexpr std::uint32_t kClients = 4;  // strands per partition, nodes 1..4
constexpr double kAlpha = 0.9;
constexpr std::size_t kValueBytes = 64;
constexpr std::size_t kValueWords = kValueBytes / 8;
constexpr std::size_t kAllocsPerModel = 4;
constexpr std::size_t kBatch = 4;  // get_many depth
constexpr dlm::LockId kLocks = 16;
constexpr std::uint64_t kDefaultLength = 48000;

constexpr std::uint64_t kReq = 1;   // a = global key, b = request id
constexpr std::uint64_t kResp = 2;  // a = global key, b = request id

constexpr std::array<ddss::Coherence, 4> kModels = {
    ddss::Coherence::kNull, ddss::Coherence::kWrite, ddss::Coherence::kStrict,
    ddss::Coherence::kVersion};
constexpr std::array<const char*, 4> kModelNames = {"null", "write", "strict",
                                                    "version"};

struct Config {
  std::uint64_t seed = 1;
  std::uint64_t ops_per_client = 0;
  bool traced = false;
};

/// Request ids name (partition, strand, op) so a reply can be matched to
/// the one strand waiting for it.
std::uint64_t request_id(std::uint32_t partition, std::uint32_t strand,
                         std::uint64_t op) {
  return (std::uint64_t{partition} << 48) | (std::uint64_t{strand} << 32) |
         (op + 1);
}

std::uint64_t value_word(std::uint64_t token, std::uint64_t key,
                         std::size_t i) {
  std::uint64_t s = token ^ (key * 0x9E3779B97F4A7C15ULL) ^ i;
  return splitmix64(s);
}

void fill_value(std::span<std::byte> out, std::uint64_t token,
                std::uint64_t key) {
  std::array<std::uint64_t, kValueWords> w{};
  w[0] = token;
  for (std::size_t i = 1; i < kValueWords; ++i) w[i] = value_word(token, key, i);
  std::memcpy(out.data(), w.data(), kValueBytes);
}

bool valid_value(std::span<const std::byte> v, std::uint64_t key) {
  std::array<std::uint64_t, kValueWords> w{};
  std::memcpy(w.data(), v.data(), kValueBytes);
  if (w[0] == 0) return false;
  for (std::size_t i = 1; i < kValueWords; ++i) {
    if (w[i] != value_word(w[0], key, i)) return false;
  }
  return true;
}

/// Host CPU a cross-partition request costs its server: 0.5-2.5 us, drawn
/// per request from the seed, so reply latency is not a handful of fixed
/// values.
SimNanos serve_demand(std::uint64_t seed, std::uint64_t request) {
  std::uint64_t s = seed ^ (request * 0xD1B54A32D192ED03ULL);
  return nanoseconds(500) + splitmix64(s) % nanoseconds(2001);
}

/// What one partition hands back; only its owning worker writes it.
struct PartitionOut {
  explicit PartitionOut(std::uint32_t p) : spans((std::uint64_t{p} + 1) << 40) {}

  std::vector<SimNanos> latency;  // client-op latencies
  SimNanos first_start = ~SimNanos{0};
  SimNanos last_end = 0;
  std::uint64_t ops = 0;
  std::uint64_t remote_req = 0;
  std::uint64_t remote_resp = 0;
  std::uint64_t served = 0;
  std::uint64_t locks = 0;
  Result checks;  // failures only
  std::map<std::string, double> setup;
  SpanLog spans;
};

/// A strand waiting for the reply to its cross-partition request.
struct Waiter {
  explicit Waiter(sim::Engine& eng) : done(eng) {}
  sim::Event done;
  std::uint64_t expect = 0;  // request id; 0 = not waiting
};

/// Everything one partition owns, built and destroyed on its worker.
struct PartitionHost {
  PartitionHost(sim::Shard& shard, PartitionOut& o, const Config& cfg)
      : out(o), log(cfg.traced ? &o.spans : nullptr), seed(cfg.seed),
        booted(shard.engine()), zipf(kNodes, kAlpha) {
    auto& eng = shard.engine();
    {
      SetupTimer t(log, out.setup, "fabric");
      fab = std::make_unique<fabric::Fabric>(
          eng, fabric::FabricParams{},
          fabric::ClusterSpec{.num_nodes = kLocalNodes,
                              .cores_per_node = 2,
                              .mem_per_node = 64u << 10});
    }
    {
      SetupTimer t(log, out.setup, "verbs");
      net = std::make_unique<verbs::Network>(*fab);
    }
    {
      SetupTimer t(log, out.setup, "ddss");
      substrate = std::make_unique<ddss::Ddss>(*net);
      substrate->start();
    }
    {
      SetupTimer t(log, out.setup, "dlm");
      locks = std::make_unique<dlm::NcosedLockManager>(*net, /*home=*/0);
    }
    for (std::uint32_t c = 0; c < kClients; ++c) {
      waiters.push_back(std::make_unique<Waiter>(eng));
    }
  }

  PartitionOut& out;
  SpanLog* log;
  std::uint64_t seed;
  sim::Event booted;
  ZipfSampler zipf;
  std::unique_ptr<fabric::Fabric> fab;
  std::unique_ptr<verbs::Network> net;
  std::unique_ptr<ddss::Ddss> substrate;
  std::unique_ptr<dlm::NcosedLockManager> locks;
  std::vector<ddss::Allocation> allocs;  // model-major, kAllocsPerModel each
  std::vector<std::unique_ptr<Waiter>> waiters;
};

// Coroutines are free functions taking shared state by pointer or value: a
// capturing lambda coroutine would outlive its closure.

/// Allocates the partition's DDSS working set, writes a valid first value
/// into every allocation, then releases the clients and the serve path.
sim::Task<void> boot(std::shared_ptr<PartitionHost> h) {
  auto client = h->substrate->client(0);
  std::array<std::byte, kValueBytes> val{};
  for (std::size_t m = 0; m < kModels.size(); ++m) {
    for (std::size_t j = 0; j < kAllocsPerModel; ++j) {
      h->allocs.push_back(co_await client.allocate(
          kValueBytes, kModels[m], ddss::Placement::kRoundRobin));
      fill_value(val, 1, h->allocs.back().key);
      co_await client.put(h->allocs.back(), val);
    }
  }
  h->booted.set();
}

/// Serves a cross-partition request on the node the key names: host CPU,
/// a checked DDSS get, then the reply.
sim::Task<void> serve(sim::Shard& shard, std::shared_ptr<PartitionHost> h,
                      sim::ShardMsg msg) {
  co_await h->booted.wait();
  auto& eng = shard.engine();
  const auto node = static_cast<NodeId>(msg.a % kLocalNodes);
  co_await h->fab->node(node).execute(serve_demand(h->seed, msg.b));
  const std::size_t m = msg.a % kModels.size();
  const auto& alloc = h->allocs[m * kAllocsPerModel + msg.a % kAllocsPerModel];
  std::array<std::byte, kValueBytes> buf{};
  {
    Scope s(h->log, eng, "ddss", "get", kModelNames[m], node, msg.b, 0);
    co_await h->substrate->client(node).get(alloc, buf);
  }
  h->out.checks.check(valid_value(buf, alloc.key),
                      "ddss: served read holds bytes no put wrote");
  ++h->out.served;
  shard.send(msg.src, kResp, msg.a, msg.b);
}

/// One local op: a DDSS put, get or get_many, sometimes under a lock.
sim::Task<void> local_op(sim::Engine& eng, PartitionHost* h, Rng& rng,
                         NodeId self, std::size_t key, std::uint64_t request,
                         std::uint64_t parent) {
  auto client = h->substrate->client(self);
  const std::size_t m = rng.uniform(kModels.size());
  const ddss::Allocation* group = &h->allocs[m * kAllocsPerModel];
  const ddss::Allocation& alloc = group[key % kAllocsPerModel];
  const char* model = kModelNames[m];
  std::array<std::byte, kValueBytes> buf{};
  switch (rng.uniform(3)) {
    case 0: {
      fill_value(buf, request, alloc.key);
      Scope s(h->log, eng, "ddss", "put", model, self, request, parent);
      co_await client.put(alloc, buf);
      break;
    }
    case 1: {
      {
        Scope s(h->log, eng, "ddss", "get", model, self, request, parent);
        co_await client.get(alloc, buf);
      }
      h->out.checks.check(valid_value(buf, alloc.key),
                          "ddss: get returned bytes no put wrote");
      break;
    }
    default: {
      std::array<std::array<std::byte, kValueBytes>, kBatch> outs{};
      std::array<ddss::Client::GetOp, kBatch> ops{};
      for (std::size_t j = 0; j < kBatch; ++j) {
        ops[j] = {.alloc = &group[j], .out = outs[j]};
      }
      {
        Scope s(h->log, eng, "ddss", "get_many", model, self, request, parent);
        co_await client.get_many(ops);
      }
      for (std::size_t j = 0; j < kBatch; ++j) {
        h->out.checks.check(valid_value(outs[j], group[j].key),
                            "ddss: get_many returned bytes no put wrote");
      }
      break;
    }
  }
  if (rng.uniform(8) == 0) {
    const auto lock = static_cast<dlm::LockId>(key % kLocks);
    {
      Scope s(h->log, eng, "dlm", "lock", "exclusive", self, request, parent);
      co_await h->locks->lock(self, lock, dlm::LockMode::kExclusive);
    }
    ++h->out.locks;
    co_await h->fab->node(self).execute(microseconds(2));
    co_await h->locks->unlock(self, lock);
  }
}

/// One closed-loop client strand on node 1 + idx.
sim::Task<void> client_strand(sim::Shard& shard,
                              std::shared_ptr<PartitionHost> h, Config cfg,
                              std::uint32_t idx) {
  auto& eng = shard.engine();
  PartitionOut& out = h->out;
  Rng rng(cfg.seed ^ (std::uint64_t{shard.index()} << 32) ^
          (std::uint64_t{idx} * 0x9E3779B97F4A7C15ULL));
  const auto self = static_cast<NodeId>(1 + idx);
  Waiter& waiter = *h->waiters[idx];
  co_await h->booted.wait();
  for (std::uint64_t op = 0; op < cfg.ops_per_client; ++op) {
    co_await eng.delay(rng.uniform(microseconds(1), microseconds(25)));
    const std::size_t key = h->zipf.sample(rng);  // global node rank
    const auto target = static_cast<std::uint32_t>(key / kLocalNodes);
    const std::uint64_t request = request_id(shard.index(), idx, op);
    const SimNanos t0 = eng.now();
    if (target != shard.index()) {
      Scope s(h->log, eng, "client", "remote", "", self, request, 0);
      waiter.expect = request;
      waiter.done.reset();
      ++out.remote_req;
      shard.send(target, kReq, key, request);
      co_await waiter.done.wait();
    } else {
      std::optional<trace::Request> root;
      if (cfg.traced && shard.index() == 0) {
        root.emplace("zipf.local", self, key);
      }
      Scope s(h->log, eng, "client", "local", "", self, request, 0);
      co_await local_op(eng, h.get(), rng, self, key, request, s.id());
    }
    out.latency.push_back(eng.now() - t0);
    out.first_start = std::min(out.first_start, t0);
    out.last_end = eng.now();
    ++out.ops;
  }
}

void on_message(sim::Shard& shard, const std::shared_ptr<PartitionHost>& host,
                const sim::ShardMsg& msg) {
  if (msg.tag == kReq) {
    shard.engine().spawn(serve(shard, host, msg));
    return;
  }
  PartitionHost& h = *host;
  const auto strand = static_cast<std::uint32_t>((msg.b >> 32) & 0xFFFF);
  const bool mine = (msg.b >> 48) == shard.index() && strand < kClients &&
                    msg.a / kLocalNodes == msg.src;
  Waiter* w = mine ? h.waiters[strand].get() : nullptr;
  if (w == nullptr || w->expect != msg.b) {
    h.out.checks.fail("shard: reply matches no waiting request");
    return;
  }
  w->expect = 0;
  ++h.out.remote_resp;
  w->done.set();
}

/// Pins the calling thread, and so every thread it starts later, to the
/// highest-numbered CPU it may run on.  Leaves the affinity as it is if it
/// cannot be read or set.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

}  // namespace

Result run_primitives_zipf(const Options& opts, std::uint64_t main_start_ns) {
  Result r;
  pin_to_one_cpu();
  const std::uint64_t length = opts.length > 0 ? opts.length : kDefaultLength;
  const std::uint64_t strands = std::uint64_t{kPartitions} * kClients;
  Config cfg{.seed = opts.seed,
             .ops_per_client = (length + strands - 1) / strands,
             .traced = opts.trace};

  trace::Registry::global().reset();
  std::vector<PartitionOut> outs;
  outs.reserve(kPartitions);
  for (std::uint32_t p = 0; p < kPartitions; ++p) outs.emplace_back(p);
  // The tracer binds to one engine's clock, so only partition 0's local
  // ops open trace::Request roots; the other partitions its worker runs
  // record spans with no request, which the analyzer ignores.
  std::unique_ptr<trace::Tracer> tracer;

  sim::ShardedEngine sharded({.partitions = kPartitions,
                              .workers = opts.workers,
                              .lookahead = fabric::FabricParams{}.link_latency});
  sharded.setup([&](sim::Shard& shard) {
    PartitionOut& out = outs[shard.index()];
    if (cfg.traced && shard.index() == 0) {
      tracer = std::make_unique<trace::Tracer>(shard.engine());
      tracer->install();
    }
    auto host = std::make_shared<PartitionHost>(shard, out, cfg);
    shard.set_handler([host](sim::Shard& s, const sim::ShardMsg& msg) {
      on_message(s, host, msg);
    });
    shard.engine().spawn(boot(host));
    for (std::uint32_t c = 0; c < kClients; ++c) {
      shard.engine().spawn(client_strand(shard, host, cfg, c));
    }
    shard.keep_alive(host);
  });

  r.setup_s = host_s_since(main_start_ns);
  const std::uint64_t run_start = host_ns();
  sharded.run();
  r.run_s = host_s_since(run_start);
  trace::collect_shard_registries(sharded);
  if (tracer) {
    critical_path_metrics(r, trace::CriticalPath(*tracer), 0);
    sharded.for_each_worker([&](std::uint32_t) { tracer->uninstall(); });
  }

  // Merge partitions in partition order: the result is independent of the
  // worker count.
  std::uint64_t remote_req = 0, remote_resp = 0, served = 0, locks = 0;
  SimNanos first = ~SimNanos{0}, last = 0;
  // Partitions are set up by worker p % workers; a layer's share of
  // setup_s is its largest per-worker sum.
  std::vector<std::map<std::string, double>> setup(sharded.workers());
  std::vector<const SpanLog*> logs;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    const PartitionOut& o = outs[p];
    for (const SimNanos ns : o.latency) {
      r.latency_us.add(static_cast<double>(ns) / 1e3);
    }
    r.host_ops += o.ops;
    remote_req += o.remote_req;
    remote_resp += o.remote_resp;
    served += o.served;
    locks += o.locks;
    first = std::min(first, o.first_start);
    last = std::max(last, o.last_end);
    r.failed += o.checks.failed;
    for (const auto& f : o.checks.failures) {
      if (r.failures.size() < 16) r.failures.push_back(f);
    }
    for (const auto& [name, secs] : o.setup) {
      setup[p % sharded.workers()][name] += secs;
    }
    logs.push_back(&o.spans);
  }
  r.attempted = cfg.ops_per_client * strands;
  r.check(r.host_ops == r.attempted,
          "zipf: " + std::to_string(r.host_ops) + " of " +
              std::to_string(r.attempted) + " client ops completed");
  r.check(remote_resp == remote_req && served == remote_req,
          "shard: " + std::to_string(remote_req) + " requests, " +
              std::to_string(served) + " served, " +
              std::to_string(remote_resp) + " replies");
  r.sim_ops = r.host_ops;
  r.sim_elapsed = last > first ? last - first : 0;
  r.fingerprint = sharded.merged_fingerprint();

  const auto events = sharded.events_dispatched();
  const auto walls = sharded.worker_wall_ns();
  const double busiest =
      static_cast<double>(*std::max_element(walls.begin(), walls.end())) / 1e9;
  double working = 0;  // the workers share one CPU, so their times add up
  for (const std::uint64_t ns : walls) working += static_cast<double>(ns) / 1e9;
  r.layer_sim["sim.events"] = {static_cast<double>(events), "count"};
  r.layer_sim["sim.shard.windows"] = {static_cast<double>(sharded.windows()),
                                      "count"};
  r.layer_sim["sim.shard.cross_messages"] = {
      static_cast<double>(sharded.cross_messages()), "count"};
  r.layer_host["sim.host_ns_per_event"] = {
      r.run_s * 1e9 / static_cast<double>(events), "ns"};
  r.layer_host["sim.shard.busiest_worker_s"] = {busiest, "s"};
  r.layer_host["sim.shard.sync_s"] = {r.run_s - working, "s"};
  r.layer_sim["dlm.locks"] = {static_cast<double>(locks), "count"};
  verbs_op_counts(r);
  for (const auto& worker : setup) {
    for (const auto& [name, secs] : worker) {
      r.layer_host[name].value = std::max(r.layer_host[name].value, secs);
      r.layer_host[name].unit = "s";
    }
  }

  if (opts.trace) {
    for (const char* op : {"get", "put", "get_many"}) {
      span_percentiles(r, logs, "ddss", op, nullptr,
                       std::string("ddss.") + op + "_us");
      for (const char* model : kModelNames) {
        span_percentiles(r, logs, "ddss", op, model,
                         std::string("ddss.") + model + "." + op + "_us");
      }
    }
    span_percentiles(r, logs, "dlm", "lock", nullptr, "dlm.lock_us");
    if (!opts.spans_out.empty() && !write_spans(opts.spans_out, logs)) {
      r.fail("cannot write " + opts.spans_out);
    }
  }
  return r;
}

}  // namespace perfbench
