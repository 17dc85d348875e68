// DDSS operation microbenchmarks beyond Figure 3a: get() latency per
// coherence model, the IPC-virtualization overhead, placement policies,
// the global memory aggregator's striping bandwidth, and puts and Strict
// gets that contend for Write/Strict allocation locks.
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/zipf.hpp"
#include "ddss/aggregator.hpp"
#include "ddss/ddss.hpp"
#include "obs/harness.hpp"

namespace {

using namespace dcs;

const std::vector<ddss::Coherence> kModels = {
    ddss::Coherence::kNull,    ddss::Coherence::kRead,
    ddss::Coherence::kWrite,   ddss::Coherence::kStrict,
    ddss::Coherence::kVersion, ddss::Coherence::kDelta,
    ddss::Coherence::kTemporal};

/// 20 timed reads by process `process` of node 0, each a trace::Request: a
/// get() of one allocation, or (batched) one get_many of `depth`.  Latency
/// samples are amortized per op, so "get/<model>/batch=K" compares with
/// "get/<model>".
void get_scenario(obs::Scenario& s, ddss::Coherence model, std::size_t bytes,
                  std::uint32_t process = 0, std::size_t depth = 1,
                  bool batched = false) {
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 2, .mem_per_node = 4u << 20});
  verbs::Network net(fab);
  ddss::Ddss substrate(net);
  substrate.start();
  double get_us = 0;
  eng.spawn([](sim::Engine& e, ddss::Ddss& d, ddss::Coherence m,
               std::size_t n, std::uint32_t proc, std::size_t k,
               bool use_batch, obs::Scenario& out,
               double& mean_us) -> sim::Task<void> {
    auto writer = d.client(0);
    auto reader = d.client(0, proc);
    std::vector<std::byte> value(n, std::byte{1});
    std::vector<ddss::Allocation> allocs;
    allocs.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      allocs.push_back(
          co_await writer.allocate(n, m, ddss::Placement::kRemote));
      co_await writer.put(allocs.back(), value);
    }
    std::vector<std::vector<std::byte>> bufs(k);
    std::vector<ddss::Client::GetOp> ops;
    ops.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      bufs[j].resize(n);
      ops.push_back({&allocs[j], bufs[j]});
    }
    co_await reader.get_many(ops);  // warm (temporal: populates the cache)
    constexpr int kIters = 20;
    const auto start = e.now();
    for (int i = 0; i < kIters; ++i) {
      const auto t0 = e.now();
      {
        trace::Request req(use_batch ? "ddss.get_many" : "ddss.get", 0,
                           static_cast<std::uint64_t>(i));
        if (use_batch) {
          co_await reader.get_many(ops);
        } else {
          co_await reader.get(allocs[0], bufs[0]);
        }
      }
      const double per_op =
          static_cast<double>(e.now() - t0) / static_cast<double>(k);
      for (std::size_t j = 0; j < k; ++j) out.latency_ns(per_op);
    }
    mean_us = to_micros(e.now() - start) / kIters;
  }(eng, substrate, model, bytes, process, depth, batched, s, get_us));
  eng.run();
  s.metric("get_bytes", static_cast<double>(bytes));
  s.metric("get_us", get_us);
}

/// The 4096 B row keeps its historical scenario names, "get/<model>".
void print_get_table(obs::Harness& h) {
  std::vector<std::string> header = {"msg size"};
  for (const auto m : kModels) header.push_back(ddss::to_string(m));
  Table table(header);
  for (const std::size_t size : {64ul, 4096ul, 65536ul}) {
    std::vector<double> row;
    for (const auto m : kModels) {
      std::string name = std::string("get/") + ddss::to_string(m);
      if (size != 4096) name += "/" + std::to_string(size) + "B";
      row.push_back(h.run(name, [m, size](obs::Scenario& s) {
                       get_scenario(s, m, size);
                     }).at("get_us"));
    }
    table.add_row(std::to_string(size) + " B", row, 2);
  }
  table.print(
      "DDSS get() latency (us) per coherence model "
      "(Temporal ~0: served from the local TTL cache)");
}

void print_ipc_table(obs::Harness& h) {
  const auto get_us = [&h](const char* name, std::uint32_t process) {
    return h.run(name, [process](obs::Scenario& s) {
              get_scenario(s, ddss::Coherence::kNull, 1024, process);
            }).at("get_us");
  };
  Table table({"accessor", "get latency (us)", "overhead"});
  const double owner = get_us("ipc/owner", 0);
  const double other = get_us("ipc/other-process", 7);
  table.add_row({"substrate-owner process", fmt_fixed(owner, 2), "-"});
  table.add_row({"other local process (IPC hop)", fmt_fixed(other, 2),
                 "+" + fmt_fixed(other - owner, 2) + " us"});
  table.print("DDSS IPC management — per-op cost of process virtualization");
}

void print_placement_table(obs::Harness& h) {
  Table table({"policy", "allocation latency (us)", "homes used (of 4)"});
  for (const auto policy :
       {ddss::Placement::kLocal, ddss::Placement::kRemote,
        ddss::Placement::kRoundRobin, ddss::Placement::kLeastLoaded}) {
    const char* name = policy == ddss::Placement::kLocal      ? "local"
                       : policy == ddss::Placement::kRemote   ? "remote"
                       : policy == ddss::Placement::kRoundRobin
                           ? "round-robin"
                           : "least-loaded";
    const auto run = [policy](obs::Scenario& s) {
      auto& eng = s.engine();
      fabric::Fabric fab(eng, fabric::FabricParams{},
                         {.num_nodes = 4, .mem_per_node = 4u << 20});
      verbs::Network net(fab);
      ddss::Ddss substrate(net);
      substrate.start();
      double us = 0;
      std::set<fabric::NodeId> homes;
      eng.spawn([](ddss::Ddss& d, sim::Engine& e, ddss::Placement p,
                   double& lat, std::set<fabric::NodeId>& hs)
                    -> sim::Task<void> {
        auto c = d.client(0);
        const auto t0 = e.now();
        for (int i = 0; i < 12; ++i) {
          auto a = co_await c.allocate(4096, ddss::Coherence::kNull, p);
          hs.insert(a.home);
        }
        lat = to_micros(e.now() - t0) / 12;
      }(substrate, eng, policy, us, homes));
      eng.run();
      s.metric("alloc_us", us);
      s.metric("homes", static_cast<double>(homes.size()));
    };
    const auto m = h.run(std::string("placement/") + name, run);
    table.add_row({name, fmt_fixed(m.at("alloc_us"), 1),
                   std::to_string(static_cast<std::size_t>(m.at("homes")))});
  }
  table.print("DDSS data placement policies — allocation cost and spread");
}

void print_aggregator_table(obs::Harness& h) {
  Table table({"extent layout", "1 MB read (us)", "effective GB/s"});
  for (const bool striped : {false, true}) {
    const auto m = h.run(
        striped ? "aggregator/striped" : "aggregator/linear",
        [striped](obs::Scenario& s) {
          auto& eng = s.engine();
          fabric::Fabric fab(eng, fabric::FabricParams{},
                             {.num_nodes = 5, .mem_per_node = 4u << 20});
          verbs::Network net(fab);
          ddss::GlobalAggregator agg(net, {1, 2, 3, 4},
                                     {.stripe_bytes = 64 * 1024});
          std::vector<std::byte> buf(1u << 20);
          double us = 0;
          eng.spawn([](ddss::GlobalAggregator& a, sim::Engine& e, bool st,
                       std::span<std::byte> dst,
                       double& lat) -> sim::Task<void> {
            auto extent = co_await a.allocate(dst.size(), st);
            const auto t0 = e.now();
            co_await a.read(0, extent, 0, dst);
            lat = to_micros(e.now() - t0);
            co_await a.release(std::move(extent));
          }(agg, eng, striped, buf, us));
          eng.run();
          s.metric("read_us", us);
        });
    const double us = m.at("read_us");
    table.add_row({striped ? "striped (64 KB across 4 donors)" : "linear",
                   fmt_fixed(us, 1),
                   fmt_fixed((1.0 / 1024.0) / (us * 1e-6), 2)});
  }
  table.print(
      "Global memory aggregator — striping turns capacity aggregation into "
      "bandwidth aggregation");
}

// Batched sweep of the doorbell-batchable get models.
void run_batch_sweep(obs::Harness& h) {
  for (const auto model : {ddss::Coherence::kNull, ddss::Coherence::kWrite,
                           ddss::Coherence::kRead}) {
    for (const std::size_t depth : obs::kBatchDepths) {
      h.run(std::string("get/") + ddss::to_string(model) + "/batch=" +
                std::to_string(depth),
            [&](obs::Scenario& s) {
              s.batch_depth(depth);
              get_scenario(s, model, 4096, 0, depth, true);
              s.metric("batch_depth", static_cast<double>(depth));
            });
    }
  }
}

// Zipf-keyed gets over a 64-object working set: the attribution scenario.
// Under --hotset-out / --hot-keys the harness arms the ambient hot sink,
// so the DCS_HOT("ddss.object", ...) sites inside the substrate's get
// path feed the top-K sketch — low Zipf ranks must dominate it.
void run_zipf(obs::Harness& h) {
  h.run("get/zipf", [&](obs::Scenario& s) {
    auto& eng = s.engine();
    fabric::Fabric fab(eng, fabric::FabricParams{},
                       {.num_nodes = 2, .mem_per_node = 4u << 20});
    verbs::Network net(fab);
    ddss::Ddss substrate(net);
    substrate.start();
    eng.spawn([](sim::Engine& e, ddss::Ddss& d,
                 obs::Scenario& out) -> sim::Task<void> {
      auto client = d.client(0);
      constexpr std::size_t kBytes = 512;
      constexpr std::size_t kObjects = 64;
      std::vector<std::byte> value(kBytes, std::byte{1});
      std::vector<ddss::Allocation> allocs;
      allocs.reserve(kObjects);
      for (std::size_t j = 0; j < kObjects; ++j) {
        allocs.push_back(co_await client.allocate(
            kBytes, ddss::Coherence::kWrite, ddss::Placement::kRemote));
        co_await client.put(allocs.back(), value);
      }
      Rng rng(7);
      ZipfSampler zipf(kObjects, 0.9);
      std::vector<std::byte> buf(kBytes);
      constexpr int kOps = 200;
      for (int i = 0; i < kOps; ++i) {
        const auto rank = zipf.sample(rng);
        const auto t0 = e.now();
        {
          trace::Request req("ddss.get", 0, static_cast<std::uint64_t>(i));
          co_await client.get(allocs[rank], buf);
        }
        out.latency_ns(static_cast<double>(e.now() - t0));
      }
    }(eng, substrate, s));
    eng.run();
    s.zipf_alpha(0.9);
    s.metric("get_bytes", 512);
  });
}

/// Contended ops: `nodes` client nodes (1..nodes), `strands` closed-loop
/// strands on each, put 64 B values to Zipf(0.9)-hot allocations, all eight
/// hosted on node 0.  Every put takes the allocation's lock, so the hot
/// ranks queue; with 2 strands per node, strands of one node also contend
/// with each other.  With `mixed`, three ops in four are gets instead.
void contended_scenario(obs::Scenario& s, ddss::Coherence model,
                        std::size_t nodes, std::size_t strands,
                        bool mixed = false) {
  constexpr std::size_t kAllocs = 8;
  constexpr int kOps = 32;  // per strand
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = nodes + 1, .cores_per_node = 2,
                      .mem_per_node = 1u << 20});
  verbs::Network net(fab);
  ddss::Ddss substrate(net);
  substrate.start();
  std::vector<ddss::Allocation> allocs;
  eng.spawn([](ddss::Ddss& d, ddss::Coherence m,
               std::vector<ddss::Allocation>& out) -> sim::Task<void> {
    auto home = d.client(0);
    for (std::size_t j = 0; j < kAllocs; ++j) {
      out.push_back(co_await home.allocate(64, m, ddss::Placement::kLocal));
    }
  }(substrate, model, allocs));
  eng.run();
  const ZipfSampler zipf(kAllocs, 0.9);
  LatencySamples latency;
  for (std::size_t n = 1; n <= nodes; ++n) {
    for (std::size_t k = 0; k < strands; ++k) {
      eng.spawn([](sim::Engine& e, ddss::Ddss& d, fabric::NodeId self,
                   std::uint64_t seed, bool gets, const ZipfSampler& z,
                   const std::vector<ddss::Allocation>& as, obs::Scenario& out,
                   LatencySamples& lat) -> sim::Task<void> {
        auto client = d.client(self);
        Rng rng(seed);
        std::vector<std::byte> value(64, static_cast<std::byte>(self));
        std::vector<std::byte> got(64);
        for (int i = 0; i < kOps; ++i) {
          co_await e.delay(rng.uniform(nanoseconds(0), microseconds(2)));
          const auto& alloc = as[z.sample(rng)];
          const auto t0 = e.now();
          if (gets && rng.uniform(4) != 0) {
            co_await client.get(alloc, got);
          } else {
            co_await client.put(alloc, value);
          }
          const auto ns = static_cast<double>(e.now() - t0);
          out.latency_ns(ns);
          lat.add(ns);
        }
      }(eng, substrate, static_cast<fabric::NodeId>(n), n * 131 + k, mixed,
                     zipf, allocs, s, latency));
    }
  }
  eng.run();
  const auto* retries =
      trace::Registry::global().find_counter("ddss.lock.cas_retries");
  s.metric("cas_retries",
           retries != nullptr ? static_cast<double>(retries->value) : 0.0);
  s.metric("p99_us", latency.percentile(99.0) / 1000.0);
  s.metric("events", static_cast<double>(eng.events_dispatched()));
}

void print_contended_table(obs::Harness& h) {
  Table table({"cell", "lock CAS retries", "put p99 (us)", "events"});
  for (const auto model : {ddss::Coherence::kWrite, ddss::Coherence::kStrict}) {
    for (const std::size_t nodes : {4ul, 16ul}) {
      const std::string name = std::string("put/contended/") +
                               ddss::to_string(model) + "/" +
                               std::to_string(nodes);
      const auto m = h.run(name, [model, nodes](obs::Scenario& s) {
        contended_scenario(s, model, nodes, 1);
      });
      table.add_row({name, fmt_fixed(m.at("cas_retries"), 0),
                     fmt_fixed(m.at("p99_us"), 2),
                     fmt_fixed(m.at("events"), 0)});
    }
  }
  const std::string name = "put/contended/Strict/8x2";
  const auto m = h.run(name, [](obs::Scenario& s) {
    contended_scenario(s, ddss::Coherence::kStrict, 8, 2);
  });
  table.add_row({name, fmt_fixed(m.at("cas_retries"), 0),
                 fmt_fixed(m.at("p99_us"), 2), fmt_fixed(m.at("events"), 0)});
  table.print(
      "DDSS contended puts — N client nodes (x2: two strands per node) on "
      "Zipf-hot allocations of one home");
}

/// Strict gets share their node's tenure of an allocation lock, so the
/// four strands of a node read a hot allocation under one remote hold.
void print_contended_get_table(obs::Harness& h) {
  Table table({"cell", "lock CAS retries", "op p99 (us)", "events"});
  const std::string name = "get/contended/Strict/8x4";
  const auto m = h.run(name, [](obs::Scenario& s) {
    contended_scenario(s, ddss::Coherence::kStrict, 8, 4, /*mixed=*/true);
  });
  table.add_row({name, fmt_fixed(m.at("cas_retries"), 0),
                 fmt_fixed(m.at("p99_us"), 2), fmt_fixed(m.at("events"), 0)});
  table.print(
      "DDSS contended Strict gets — 8 client nodes x 4 strands, 3 gets per "
      "put, on Zipf-hot allocations of one home");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::extract_harness_flags(argc, argv);
  obs::reject_unknown_args(argc, argv);
  obs::Harness h("ddss_ops", opts);
  print_get_table(h);
  print_ipc_table(h);
  print_placement_table(h);
  print_aggregator_table(h);
  run_batch_sweep(h);
  run_zipf(h);
  print_contended_table(h);
  print_contended_get_table(h);
  return h.finish();
}
