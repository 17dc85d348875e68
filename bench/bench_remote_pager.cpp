// E14 — §6 / [18]: remote-memory file-cache extension.
//
// Miss-penalty hierarchy and the effect of donated remote memory on a
// working set that exceeds the local page cache: remote hits replace
// ~5 ms disk accesses with ~10 us RDMA reads.
#include "cache/remote_pager.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "common/zipf.hpp"
#include "obs/harness.hpp"

namespace {

using namespace dcs;
using cache::RemoteBlockCache;
using cache::RemotePagerConfig;

/// Scenario "penalty": one block read from each tier in turn — disk,
/// remote victim store, local page cache.
void print_penalty_table(obs::Harness& h) {
  const auto m = h.run("penalty", [](obs::Scenario& s) {
    auto& eng = s.engine();
    fabric::Fabric fab(eng, fabric::FabricParams{},
                       {.num_nodes = 3, .mem_per_node = 16u << 20});
    verbs::Network net(fab);
    RemoteBlockCache pager(
        net, 0, {1, 2}, {.block_bytes = 16384, .local_capacity = 64 * 1024});
    SimNanos disk_t = 0, remote_t = 0, local_t = 0;
    eng.spawn([](RemoteBlockCache& c, sim::Engine& e, SimNanos& d,
                 SimNanos& r, SimNanos& l) -> sim::Task<void> {
      auto t0 = e.now();
      (void)co_await c.read_block(100);  // cold: disk
      d = e.now() - t0;
      // Fill local beyond capacity so block 100 lands in remote memory.
      for (std::uint64_t b = 0; b < 6; ++b) (void)co_await c.read_block(b);
      t0 = e.now();
      (void)co_await c.read_block(100);  // remote victim store
      r = e.now() - t0;
      t0 = e.now();
      (void)co_await c.read_block(100);  // now local again
      l = e.now() - t0;
    }(pager, eng, disk_t, remote_t, local_t));
    eng.run();
    s.metric("disk_ms", to_millis(disk_t));
    s.metric("remote_us", to_micros(remote_t));
    s.metric("local_us", to_micros(local_t));
  });
  const double disk_ms = m.at("disk_ms");
  const double remote_us = m.at("remote_us");
  Table table({"tier", "16 KB block read", "vs disk"});
  table.add_row({"local page cache", fmt_fixed(m.at("local_us"), 2) + " us",
                 "-"});
  table.add_row({"remote memory (RDMA)", fmt_fixed(remote_us, 2) + " us",
                 fmt_fixed(disk_ms * 1000 / remote_us, 0) + "x faster"});
  table.add_row({"disk", fmt_fixed(disk_ms, 2) + " ms", "1x"});
  table.print("Remote-memory file cache — miss-penalty hierarchy (§6/[18])");
}

/// 1500 Zipf(0.8) block reads over a 200-block working set.
void sweep_scenario(obs::Scenario& s, bool with_remote_memory) {
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 3, .mem_per_node = 32u << 20});
  verbs::Network net(fab);
  RemotePagerConfig config;
  config.block_bytes = 16384;
  config.local_capacity = 512 * 1024;  // 32 blocks
  config.remote_capacity_per_server =
      with_remote_memory ? (4u << 20) : config.block_bytes;  // ~0 if off
  RemoteBlockCache pager(net, 0, {1, 2}, config);

  double mean_us = 0;
  eng.spawn([](RemoteBlockCache& c, sim::Engine& e, double& out)
                -> sim::Task<void> {
    // Zipf(0.8) over a 200-block (3.2 MB) working set: 6x local capacity.
    Rng rng(99);
    ZipfSampler zipf(200, 0.8);
    const auto t0 = e.now();
    constexpr int kReads = 1500;
    for (int i = 0; i < kReads; ++i) {
      (void)co_await c.read_block(zipf.sample(rng));
    }
    out = to_micros(e.now() - t0) / kReads;
  }(pager, eng, mean_us));
  eng.run();
  s.metric("mean_read_us", mean_us);
  s.metric("disk_fraction", static_cast<double>(pager.stats().disk_reads) /
                                static_cast<double>(pager.stats().total()));
}

void print_sweep_table(obs::Harness& h) {
  const auto off = h.run("sweep/local-only", [](obs::Scenario& s) {
    sweep_scenario(s, false);
  });
  const auto on = h.run("sweep/remote-memory", [](obs::Scenario& s) {
    sweep_scenario(s, true);
  });
  Table table({"configuration", "mean block read (us)", "disk-read fraction"});
  table.add_row({"local cache only", fmt_fixed(off.at("mean_read_us"), 0),
                 fmt_fixed(100 * off.at("disk_fraction"), 1) + " %"});
  table.add_row({"+ remote memory (2 donors)",
                 fmt_fixed(on.at("mean_read_us"), 0),
                 fmt_fixed(100 * on.at("disk_fraction"), 1) + " %"});
  table.print(
      "Zipf(0.8) over a working set 6x the local cache — donated remote "
      "memory absorbs the capacity misses");
}

}  // namespace

int main(int argc, char** argv) {
  obs::Harness h("remote_pager", Args(argc, argv));
  print_penalty_table(h);
  print_sweep_table(h);
  return h.finish();
}
