// Unit tests for the fabric layer: memory allocator, CPU scheduling model,
// kernel page mirroring, and the wire cost model.
#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <memory>
#include <vector>

#include "fabric/fabric.hpp"

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
