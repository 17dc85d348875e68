// DDSS operation microbenchmarks beyond Figure 3a: get() latency per
// coherence model, the IPC-virtualization overhead, placement policies,
// and the global memory aggregator's striping bandwidth.
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
  return h.finish();
}
