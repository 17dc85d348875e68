// Unit tests for the fabric layer: memory allocator, CPU scheduling model,
// kernel page mirroring, and the wire cost model.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "fabric/fabric.hpp"
#include "verbs/verbs.hpp"

namespace dcs::fabric {
namespace {

// --- NodeMemory ---

TEST(NodeMemoryTest, AllocateAndFree) {
  NodeMemory mem(4096);
  const MemAddr a = mem.allocate(100);
  EXPECT_NE(a, kNullAddr);
  EXPECT_EQ(mem.used(), 100u);
  mem.free(a);
  EXPECT_EQ(mem.used(), 0u);
}

TEST(NodeMemoryTest, NullOnExhaustion) {
  NodeMemory mem(1024);
  const MemAddr a = mem.allocate(1024);
  EXPECT_NE(a, kNullAddr);
  EXPECT_EQ(mem.allocate(1), kNullAddr);
  mem.free(a);
  EXPECT_NE(mem.allocate(1024), kNullAddr);
}

TEST(NodeMemoryTest, ZeroLengthAllocationIsNull) {
  NodeMemory mem(1024);
  EXPECT_EQ(mem.allocate(0), kNullAddr);
}

TEST(NodeMemoryTest, DistinctAllocationsDoNotOverlap) {
  NodeMemory mem(4096);
  const MemAddr a = mem.allocate(128);
  const MemAddr b = mem.allocate(128);
  ASSERT_NE(a, kNullAddr);
  ASSERT_NE(b, kNullAddr);
  EXPECT_TRUE(a + 128 <= b || b + 128 <= a);
}

TEST(NodeMemoryTest, CoalescingAllowsFullReuse) {
  NodeMemory mem(1000);
  const MemAddr a = mem.allocate(300);
  const MemAddr b = mem.allocate(300);
  const MemAddr c = mem.allocate(300);
  ASSERT_NE(c, kNullAddr);
  // Free in an order that requires both-side coalescing.
  mem.free(a);
  mem.free(c);
  mem.free(b);
  EXPECT_NE(mem.allocate(900), kNullAddr);
}

TEST(NodeMemoryTest, FragmentationBlocksLargeAllocation) {
  NodeMemory mem(1000);
  const MemAddr a = mem.allocate(400);
  const MemAddr b = mem.allocate(200);
  const MemAddr c = mem.allocate(400);
  (void)b;
  mem.free(a);
  mem.free(c);
  // 800 bytes free but split 400+400 around the live 200.
  EXPECT_EQ(mem.allocate(700), kNullAddr);
  EXPECT_NE(mem.allocate(400), kNullAddr);
}

TEST(NodeMemoryTest, BytesAreReadWritable) {
  NodeMemory mem(1024);
  const MemAddr a = mem.allocate(16);
  auto span = mem.bytes(a, 16);
  span[0] = std::byte{0xAB};
  EXPECT_EQ(mem.bytes(a, 16)[0], std::byte{0xAB});
}

TEST(NodeMemoryTest, AddressZeroNeverValid) {
  NodeMemory mem(1024);
  EXPECT_FALSE(mem.in_range(0, 1));
}

constexpr std::size_t kNodeArena = std::size_t{64} << 20;  // Node's default

/// Resident set size of this process in bytes (/proc/self/statm field 2).
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0;
  std::size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(NodeMemoryTest, FreshArenaReadsZero) {
  NodeMemory mem(kNodeArena);
  const MemAddr all = mem.allocate(mem.capacity());
  ASSERT_NE(all, kNullAddr);
  EXPECT_EQ(mem.bytes(all, 1)[0], std::byte{0});
  EXPECT_EQ(mem.bytes(all + mem.capacity() - 1, 1)[0], std::byte{0});
  // Freeing does not re-zero: a reallocated range keeps what was written.
  mem.bytes(all, 8)[7] = std::byte{0x5A};
  mem.free(all);
  const MemAddr again = mem.allocate(8);
  ASSERT_EQ(again, all);
  EXPECT_EQ(mem.bytes(again, 8)[7], std::byte{0x5A});
}

TEST(NodeMemoryTest, ArenaIsBackedOnFirstTouch) {
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  std::vector<std::unique_ptr<NodeMemory>> nodes;
  for (int n = 0; n < 8; ++n) {
    nodes.push_back(std::make_unique<NodeMemory>(kNodeArena));
    const MemAddr a = nodes.back()->allocate(64);
    ASSERT_NE(a, kNullAddr);
    nodes.back()->bytes(a, 64)[0] = std::byte{1};  // touches one page
  }
  // 8 x 64 MB held, but only the touched pages are resident.
  EXPECT_LT(resident_bytes(), before + kNodeArena);
}

TEST(NodeMemoryDeathTest, FreeOfUnknownAddressAborts) {
  NodeMemory mem(1024);
  EXPECT_DEATH(mem.free(999), "unallocated");
}

// --- wire cost model ---

TEST(FabricParamsTest, WireTimeMonotoneInSize) {
  const FabricParams p;
  EXPECT_LT(p.wire_time(64), p.wire_time(4096));
  EXPECT_LT(p.wire_time(4096), p.wire_time(65536));
}

TEST(FabricParamsTest, TcpWireSlowerThanRaw) {
  const FabricParams p;
  EXPECT_GT(p.tcp_wire_time(65536), p.wire_time(65536));
}

// --- node CPU ---

TEST(NodeTest, ExecuteConsumesVirtualTime) {
  sim::Engine eng;
  Fabric fab(eng, FabricParams{}, {.num_nodes = 1, .cores_per_node = 1});
  eng.spawn(fab.node(0).execute(microseconds(500)));
  eng.run();
  EXPECT_EQ(eng.now(), microseconds(500));
  EXPECT_EQ(fab.node(0).busy_ns(), microseconds(500));
}

TEST(NodeTest, TwoJobsOnOneCoreSerialize) {
  sim::Engine eng;
  Fabric fab(eng, FabricParams{}, {.num_nodes = 1, .cores_per_node = 1});
  eng.spawn(fab.node(0).execute(milliseconds(4)));
  eng.spawn(fab.node(0).execute(milliseconds(4)));
  eng.run();
  EXPECT_EQ(eng.now(), milliseconds(8));
}

TEST(NodeTest, TwoJobsOnTwoCoresOverlap) {
  sim::Engine eng;
  Fabric fab(eng, FabricParams{}, {.num_nodes = 1, .cores_per_node = 2});
  eng.spawn(fab.node(0).execute(milliseconds(4)));
  eng.spawn(fab.node(0).execute(milliseconds(4)));
  eng.run();
  EXPECT_EQ(eng.now(), milliseconds(4));
}

TEST(NodeTest, TimeslicingInterleavesLongJobs) {
  // A short job arriving behind a long one must not wait for the long job
  // to finish: it should get a slice within ~quantum.
  sim::Engine eng;
  FabricParams p;
  p.sched_quantum = milliseconds(1);
  Fabric fab(eng, p, {.num_nodes = 1, .cores_per_node = 1});
  SimNanos short_done = 0;
  eng.spawn(fab.node(0).execute(milliseconds(100)));
  eng.spawn([](Fabric& f, sim::Engine& e, SimNanos& done) -> sim::Task<void> {
    co_await e.delay(milliseconds(10));
    co_await f.node(0).execute(milliseconds(1));
    done = e.now();
  }(fab, eng, short_done));
  eng.run();
  EXPECT_GT(short_done, 0u);
  // Far earlier than the 100 ms job's completion.
  EXPECT_LT(short_done, milliseconds(20));
}

TEST(NodeTest, RunnableTracksQueuedJobs) {
  sim::Engine eng;
  Fabric fab(eng, FabricParams{}, {.num_nodes = 1, .cores_per_node = 1});
  std::uint64_t peak = 0;
  for (int i = 0; i < 4; ++i) eng.spawn(fab.node(0).execute(milliseconds(2)));
  eng.spawn([](Fabric& f, sim::Engine& e, std::uint64_t& pk) -> sim::Task<void> {
    co_await e.delay(microseconds(100));
    pk = f.node(0).runnable();
  }(fab, eng, peak));
  eng.run();
  EXPECT_EQ(peak, 4u);
  EXPECT_EQ(fab.node(0).runnable(), 0u);
}

TEST(NodeTest, KernelPageMirrorsRunnable) {
  sim::Engine eng;
  Fabric fab(eng, FabricParams{}, {.num_nodes = 1, .cores_per_node = 1});
  KernelStats mid{};
  for (int i = 0; i < 3; ++i) eng.spawn(fab.node(0).execute(milliseconds(1)));
  eng.spawn([](Fabric& f, sim::Engine& e, KernelStats& out) -> sim::Task<void> {
    co_await e.delay(microseconds(10));
    out = f.node(0).kernel_stats();
  }(fab, eng, mid));
  eng.run();
  EXPECT_EQ(mid.runnable, 3u);
  EXPECT_EQ(fab.node(0).kernel_stats().runnable, 0u);
  EXPECT_GT(fab.node(0).kernel_stats().seq, 0u);
}

/// Reads node 0's kernel page both ways a monitor can — one RDMA read from
/// node 1, then a local kernel_stats() — and checks each against `want`,
/// the image an eager write on every scheduler event would have left.
struct PageProbe {
  Fabric& fab;
  verbs::Network& net;
  verbs::RemoteRegion page;
  std::span<std::byte> dst;  // in node 1's memory

  sim::Task<void> expect(KernelStats want, std::string at) {
    co_await net.hca(1).read(page, 0, dst);
    EXPECT_EQ(std::memcmp(dst.data(), &want, KernelStats::kSize), 0)
        << "RDMA read " << at;
    const KernelStats local = fab.node(0).kernel_stats();
    EXPECT_EQ(local.runnable, want.runnable) << at;
    EXPECT_EQ(local.threads, want.threads) << at;
    EXPECT_EQ(local.busy_ns, want.busy_ns) << at;
    EXPECT_EQ(local.mem_used, want.mem_used) << at;
    EXPECT_EQ(local.seq, want.seq) << at;
  }
};

sim::Task<void> walk_kernel_page(PageProbe& probe, Node& host, SimNanos q) {
  // The constructor allocated the page, then synced once.
  KernelStats m{.runnable = 0, .threads = 0, .busy_ns = 0,
                .mem_used = KernelStats::kSize, .seq = 1};
  co_await probe.expect(m, "fresh");

  // Mid-way through the second of three slices: start + one slice synced.
  host.engine().spawn(host.execute(2 * q + q / 2));
  co_await host.engine().delay(q + q / 2);
  m = {.runnable = 1, .threads = 1, .busy_ns = q, .mem_used = m.mem_used,
       .seq = m.seq + 2};
  co_await probe.expect(m, "mid-slice");

  co_await host.engine().delay(2 * q);  // the job is done
  m = {.runnable = 0, .threads = 0, .busy_ns = 2 * q + q / 2,
       .mem_used = m.mem_used, .seq = m.seq + 3};
  co_await probe.expect(m, "after execute");

  host.add_service_threads(3);
  m.threads = 3;
  ++m.seq;
  co_await probe.expect(m, "after add_service_threads");

  host.remove_service_threads(1);
  m.threads = 2;
  ++m.seq;
  co_await probe.expect(m, "after remove_service_threads");

  // allocate() does not sync: the page keeps mem_used as of the last sync.
  EXPECT_NE(host.memory().allocate(100), kNullAddr);
  EXPECT_EQ(host.memory().used(), m.mem_used + 100);
  co_await probe.expect(m, "after allocate");

  co_await host.execute(q / 2);  // start, one slice, end
  m.busy_ns += q / 2;
  m.mem_used += 100;
  m.seq += 3;
  co_await probe.expect(m, "after the next execute");
}

TEST(NodeTest, KernelPageBytesMatchEagerMirror) {
  sim::Engine eng;
  const FabricParams p;
  Fabric fab(eng, p, {.num_nodes = 2, .cores_per_node = 1});
  verbs::Network net(fab);
  Node& host = fab.node(0);
  const MemAddr dst = fab.node(1).memory().allocate(KernelStats::kSize);
  ASSERT_NE(dst, kNullAddr);
  PageProbe probe{
      fab, net,
      net.hca(0).register_region(host.kernel_page_addr(), KernelStats::kSize),
      fab.node(1).memory().bytes(dst, KernelStats::kSize)};
  eng.spawn(walk_kernel_page(probe, host, p.sched_quantum));
  eng.run();
  EXPECT_EQ(host.kernel_stats().seq, 11u);  // the walk ran to its end
}

TEST(NodeTest, ServiceThreadsCountedInThreadsNotRunnable) {
  sim::Engine eng;
  Fabric fab(eng, FabricParams{}, {.num_nodes = 1});
  fab.node(0).add_service_threads(5);
  EXPECT_EQ(fab.node(0).kernel_stats().threads, 5u);
  EXPECT_EQ(fab.node(0).kernel_stats().runnable, 0u);
  fab.node(0).remove_service_threads(2);
  EXPECT_EQ(fab.node(0).kernel_stats().threads, 3u);
}

TEST(NodeTest, UtilizationReflectsLoad) {
  sim::Engine eng;
  Fabric fab(eng, FabricParams{}, {.num_nodes = 1, .cores_per_node = 2});
  eng.spawn(fab.node(0).execute(milliseconds(10)));
  eng.run();
  // One of two cores busy the whole run: utilization 0.5.
  EXPECT_NEAR(fab.node(0).utilization(), 0.5, 1e-9);
}

// --- wire transfer ---

TEST(FabricTest, TransferTakesSerializationPlusLatency) {
  sim::Engine eng;
  FabricParams p;
  Fabric fab(eng, p, {.num_nodes = 2});
  eng.spawn(fab.wire_transfer(0, 1, 1024));
  eng.run();
  EXPECT_EQ(eng.now(), p.wire_time(1024) + p.link_latency);
}

TEST(FabricTest, SenderNicSerializesBackToBackMessages) {
  sim::Engine eng;
  FabricParams p;
  Fabric fab(eng, p, {.num_nodes = 3});
  eng.spawn(fab.wire_transfer(0, 1, 4096));
  eng.spawn(fab.wire_transfer(0, 2, 4096));
  eng.run();
  // Two serializations, final propagation overlaps with nothing.
  EXPECT_EQ(eng.now(), 2 * p.wire_time(4096) + p.link_latency);
}

TEST(FabricTest, DifferentSendersDoNotContend) {
  sim::Engine eng;
  FabricParams p;
  Fabric fab(eng, p, {.num_nodes = 3});
  eng.spawn(fab.wire_transfer(0, 2, 4096));
  eng.spawn(fab.wire_transfer(1, 2, 4096));
  eng.run();
  EXPECT_EQ(eng.now(), p.wire_time(4096) + p.link_latency);
}

TEST(FabricTest, LoopbackCheaperThanWire) {
  sim::Engine eng;
  FabricParams p;
  Fabric fab(eng, p, {.num_nodes = 2});
  eng.spawn(fab.wire_transfer(0, 0, 8192));
  eng.run();
  EXPECT_LT(eng.now(), p.wire_time(8192) + p.link_latency);
}

/// Mappings (lines of /proc/self/maps) that overlap [lo, hi).
std::size_t mappings_overlapping(const std::byte* lo, const std::byte* hi) {
  std::ifstream maps("/proc/self/maps");
  std::size_t count = 0;
  for (std::string line; std::getline(maps, line);) {
    const std::size_t dash = line.find('-');
    const auto start = std::stoull(line.substr(0, dash), nullptr, 16);
    const auto end = std::stoull(line.substr(dash + 1), nullptr, 16);
    if (start < reinterpret_cast<std::uintptr_t>(hi) &&
        reinterpret_cast<std::uintptr_t>(lo) < end) {
      ++count;
    }
  }
  return count;
}

TEST(FabricTest, OneMappingPerFabric) {
  // 1024 nodes of 64 KB that nobody reads: their memories lie in one
  // mapping, and no node's kernel page is ever written, so no arena page
  // is faulted in.
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  constexpr std::size_t kNodes = 1024;
  sim::Engine eng;
  const std::size_t rss_before = resident_bytes();
  Fabric fab(eng, FabricParams{},
             {.num_nodes = kNodes, .cores_per_node = 2,
              .mem_per_node = std::size_t{64} << 10});
  const std::size_t rss_after = resident_bytes();
  EXPECT_LT(rss_after, rss_before + kNodes * page)
      << (rss_after - rss_before) / page << " pages";
  // bytes() past the kernel page hands out an address without touching it.
  const std::byte* lo = nullptr;
  const std::byte* hi = nullptr;
  for (NodeId n = 0; n < kNodes; ++n) {
    NodeMemory& mem = fab.node(n).memory();
    const MemAddr past_page =
        fab.node(n).kernel_page_addr() + KernelStats::kSize;
    const std::byte* base = mem.bytes(past_page, 1).data() - past_page;
    const std::byte* end = base + mem.capacity();
    if (lo == nullptr || base < lo) lo = base;
    if (hi == nullptr || end > hi) hi = end;
  }
  EXPECT_LE(mappings_overlapping(lo, hi), 2u);
}

TEST(FabricTest, CountsBytes) {
  sim::Engine eng;
  Fabric fab(eng, FabricParams{}, {.num_nodes = 2});
  eng.spawn(fab.wire_transfer(0, 1, 1000));
  eng.spawn(fab.wire_transfer(1, 0, 500));
  eng.run();
  EXPECT_EQ(fab.bytes_transferred(), 1500u);
}

}  // namespace
}  // namespace dcs::fabric
