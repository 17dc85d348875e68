// E1 — Figure 3a: DDSS put() latency per coherence model vs message size.
//
// Paper shape: Null cheapest (one RDMA write); Read/Version add a version
// bump; Write adds lock+unlock; Strict adds lock+version+unlock (most
// expensive); Delta pays a head read + slot write + head bump.  1-byte puts
// land in the tens of microseconds.
#include "common/table.hpp"
#include "ddss/ddss.hpp"
#include "obs/harness.hpp"

namespace {

using namespace dcs;

const std::vector<ddss::Coherence> kModels = {
    ddss::Coherence::kNull,   ddss::Coherence::kRead,
    ddss::Coherence::kWrite,  ddss::Coherence::kStrict,
    ddss::Coherence::kVersion, ddss::Coherence::kDelta,
};

const std::vector<std::size_t> kSizes = {1, 64, 1024, 4096, 16384, 65536};

/// 20 timed writes from node 0, each a trace::Request so the verbs
/// decomposition (lock, version bump, data write) is attributed per model:
/// a put() of one allocation, or (batched) one put_many of `depth` — one
/// doorbell, pipelined wire, one coalesced completion.  Latency samples are
/// amortized per op, so "put/<model>/batch=K" compares with "put/<model>".
void put_scenario(obs::Scenario& s, ddss::Coherence model, std::size_t bytes,
                  std::size_t depth = 1, bool batched = false) {
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 2, .mem_per_node = 4u << 20});
  verbs::Network net(fab);
  ddss::Ddss substrate(net);
  substrate.start();
  double put_us = 0;
  eng.spawn([](sim::Engine& e, ddss::Ddss& d, ddss::Coherence m,
               std::size_t n, std::size_t k, bool use_batch,
               obs::Scenario& out, double& mean_us) -> sim::Task<void> {
    auto client = d.client(0);
    std::vector<ddss::Allocation> allocs;
    allocs.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      allocs.push_back(
          co_await client.allocate(n, m, ddss::Placement::kRemote));
    }
    std::vector<std::byte> value(n, std::byte{0x5A});
    std::vector<ddss::Client::PutOp> ops;
    ops.reserve(k);
    for (const auto& a : allocs) ops.push_back({&a, value});
    const auto write = [&] {
      return use_batch ? client.put_many(ops) : client.put(allocs[0], value);
    };
    co_await write();  // warm-up
    constexpr int kIters = 20;
    const auto start = e.now();
    for (int i = 0; i < kIters; ++i) {
      const auto t0 = e.now();
      {
        trace::Request req(use_batch ? "ddss.put_many" : "ddss.put", 0,
                           static_cast<std::uint64_t>(i));
        co_await write();
      }
      const double per_op =
          static_cast<double>(e.now() - t0) / static_cast<double>(k);
      for (std::size_t j = 0; j < k; ++j) out.latency_ns(per_op);
    }
    mean_us = to_micros(e.now() - start) / kIters;
  }(eng, substrate, model, bytes, depth, batched, s, put_us));
  eng.run();
  s.metric("put_bytes", static_cast<double>(bytes));
  s.metric("put_us", put_us);
}

/// The 4096 B row keeps its historical scenario names, "put/<model>".
void print_fig3a(obs::Harness& h) {
  std::vector<std::string> header = {"msg size"};
  for (const auto m : kModels) header.push_back(ddss::to_string(m));
  Table table(header);
  for (const std::size_t size : kSizes) {
    std::vector<double> row;
    for (const auto m : kModels) {
      std::string name = std::string("put/") + ddss::to_string(m);
      if (size != 4096) name += "/" + std::to_string(size) + "B";
      row.push_back(h.run(name, [m, size](obs::Scenario& s) {
                       put_scenario(s, m, size);
                     }).at("put_us"));
    }
    table.add_row(std::to_string(size) + " B", row, 2);
  }
  table.print(
      "Figure 3a — DDSS put() latency (us) per coherence model "
      "(paper: 1-byte ~tens of us, Strict most expensive)");
}

// Batched sweep of the doorbell-batchable models; lock-based models fall
// back to serial inside put_many.
void run_batch_sweep(obs::Harness& h) {
  for (const auto model : {ddss::Coherence::kNull, ddss::Coherence::kRead,
                           ddss::Coherence::kVersion}) {
    for (const std::size_t depth : obs::kBatchDepths) {
      h.run(std::string("put/") + ddss::to_string(model) + "/batch=" +
                std::to_string(depth),
            [model, depth](obs::Scenario& s) {
              s.batch_depth(depth);
              put_scenario(s, model, 4096, depth, true);
              s.metric("batch_depth", static_cast<double>(depth));
            });
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  obs::Harness h("ddss_latency", Args(argc, argv));
  print_fig3a(h);
  run_batch_sweep(h);
  return h.finish();
}
