// The frame budget of one simulated hop.  Each layer of a hop costs at most
// one coroutine frame: a wrapper that only forwards returns its callee's
// Task instead of awaiting it, and mutex and channel waits are frameless
// awaiters.  These tests pin the frames each per-hop call allocates, so an
// added forwarding frame shows up here rather than as a slower benchmark.
// They also pin the heap the sync primitives cost: a parked strand's
// awaiter is its primitive's wait-list entry, so building a primitive or
// parking on it allocates nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "dlm/cohort.hpp"
#include "fabric/node.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "slab_delta.hpp"
#include "sockets/tcp.hpp"
#include "trace/trace.hpp"
#include "verbs/verbs.hpp"

namespace {
/// Global operator new calls on this thread (counted for every thread; the
/// tests read the difference across a section they run alone).
thread_local std::uint64_t heap_news = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++heap_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dcs {
namespace {

using fabric::NodeId;
using sim::StatDelta;
using sim::Task;

struct HopFixture : ::testing::Test {
  sim::Engine eng;
  fabric::Fabric fab{eng, fabric::FabricParams{},
                     {.num_nodes = 3, .cores_per_node = 2}};
  verbs::Network net{fab};

  /// Frames that making and awaiting `make()`'s task allocates, awaited
  /// alone by a root strand on an otherwise idle engine.
  template <typename MakeTask>
  std::uint64_t frames_of(MakeTask make) {
    std::uint64_t frames = 0;
    eng.spawn([](MakeTask mk, std::uint64_t& out) -> Task<void> {
      const StatDelta d;
      co_await mk();
      out = d.allocs();
    }(make, frames));
    eng.run();
    return frames;
  }
};

TEST_F(HopFixture, FabricTransfersAreOneFrame) {
  EXPECT_EQ(frames_of([this] { return fab.wire_transfer(0, 1, 4096); }), 1u);
  EXPECT_EQ(frames_of([this] { return fab.tcp_wire_transfer(0, 1, 4096); }),
            1u);
  EXPECT_EQ(frames_of([this] { return fab.serialize_only(0, 1, 4096); }), 1u);
  EXPECT_EQ(frames_of([this] { return fab.wire_transfer(1, 1, 4096); }), 1u)
      << "loopback";
}

// Every verb but multicast is one Hca::run frame plus the two
// serializations of its request and response: the serial verbs, the raw
// transfers and a posted batch allocate no frame of their own.
TEST_F(HopFixture, RawVerbIsOneFramePlusTwoTransfers) {
  EXPECT_EQ(frames_of([this] { return net.hca(0).raw_write(1, 8192); }), 3u);
  EXPECT_EQ(frames_of([this] { return net.hca(0).raw_read(1, 8192); }), 3u);
}

TEST_F(HopFixture, OneOpReadIsVerbRunAndTwoSerializations) {
  const verbs::RemoteRegion region = net.hca(1).allocate_region(64);
  std::vector<std::byte> dst(64);
  EXPECT_EQ(frames_of([&] { return net.hca(0).read(region, 0, dst); }), 3u);
  // A one-op batch holds its work request inline: once the metric handles
  // and engine queues exist, a serial read touches no heap at all.
  const std::uint64_t news = heap_news;
  EXPECT_EQ(frames_of([&] { return net.hca(0).read(region, 0, dst); }), 3u);
  EXPECT_EQ(heap_news - news, 0u);
}

TEST_F(HopFixture, SerialVerbsAndPostAreVerbRunAndTwoSerializations) {
  const verbs::RemoteRegion region = net.hca(1).allocate_region(64);
  std::vector<std::byte> buf(64);
  EXPECT_EQ(frames_of([&] { return net.hca(0).write(region, 0, buf); }), 3u);
  EXPECT_EQ(frames_of([&] {
              return net.hca(0).send(1, 7, std::vector<std::byte>(64));
            }),
            3u);
  EXPECT_EQ(frames_of([&] {
              verbs::OpBatch b;
              b.read(region, 0, buf);
              return net.hca(0).post(std::move(b));
            }),
            3u);
  EXPECT_EQ(frames_of([&] { return net.hca(0).post(verbs::OpBatch{}); }), 1u)
      << "an empty batch still costs its run frame, and nothing else";
  // An atomic keeps one frame to hand back the old value.
  EXPECT_EQ(frames_of([&] {
              return net.hca(0).compare_and_swap(region, 0, 0, 1);
            }),
            4u);
  EXPECT_EQ(frames_of([&] { return net.hca(0).fetch_and_add(region, 0, 1); }),
            4u);
}

TEST_F(HopFixture, MulticastIsOneFramePlusOneTransfer) {
  const std::vector<NodeId> group = {1, 2};
  EXPECT_EQ(frames_of([&] {
              return net.hca(0).multicast(group, 9, std::vector<std::byte>(64));
            }),
            2u);
}

TEST_F(HopFixture, TcpReceiveIsRecvPlusHostExecute) {
  sockets::TcpNetwork tcp(fab);
  std::uint64_t frames = 0;
  std::size_t got = 0;
  eng.spawn([](sockets::TcpNetwork& t, std::uint64_t& out,
               std::size_t& bytes) -> Task<void> {
    sockets::TcpConnection* conn = co_await t.connect(0, 1, 80);
    co_await conn->send(0, std::vector<std::byte>(512));
    // The message is already queued: the receive runs alone.
    const StatDelta d;
    const sockets::TcpMessage msg = co_await conn->recv(1);
    out = d.allocs();
    bytes = msg.payload.size();
    conn->close(0);
    conn->close(1);
  }(tcp, frames, got));
  eng.run();
  EXPECT_EQ(got, 512u);
  EXPECT_EQ(frames, 2u) << "recv + Node::execute";
}

// Liveness is an inline check: a batch whose second target is down fails
// after exactly one retry window, before its doorbell, so no op executes;
// the timeout coroutine is the only extra frame and it is freed.
TEST_F(HopFixture, DeadSecondTargetFailsBatchInline) {
  trace::Registry::global().reset();
  const verbs::RemoteRegion live = net.hca(1).allocate_region(8);
  const verbs::RemoteRegion dead = net.hca(2).allocate_region(8);
  fab.node(2).fail();
  const auto before = fab.node(1).memory().bytes(live.addr, live.len);
  const std::vector<std::byte> snapshot(before.begin(), before.end());

  const StatDelta d;
  bool timed_out = false;
  sim::Time failed_at = 0;
  const std::vector<std::byte> ones(8, std::byte{0xff});
  eng.spawn([](verbs::Network& n, verbs::RemoteRegion a, verbs::RemoteRegion b,
               const std::vector<std::byte>& src, bool& timeout,
               sim::Time& at) -> Task<void> {
    verbs::OpBatch batch;
    batch.write(a, 0, src);
    std::uint64_t old = 0;
    batch.fetch_and_add(b, 0, 1, &old);
    try {
      co_await n.hca(0).post(std::move(batch));
    } catch (const verbs::RemoteTimeoutError&) {
      timeout = true;
      at = n.fabric().engine().now();
    }
  }(net, live, dead, ones, timed_out, failed_at));
  eng.run();

  EXPECT_TRUE(timed_out);
  EXPECT_EQ(failed_at, fab.params().op_timeout);
  const auto* errors =
      trace::Registry::global().find_counter("verbs.hca.remote_errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_EQ(errors->value, 1u);
  const auto after = fab.node(1).memory().bytes(live.addr, live.len);
  EXPECT_TRUE(std::equal(after.begin(), after.end(), snapshot.begin()))
      << "the first target's write must not execute";
  EXPECT_EQ(d.live(), 0) << "every frame of the failed batch is freed";
}

// --- the heap a sync primitive costs ---

/// Heap allocations `f` makes.
template <typename F>
std::uint64_t news_of(F f) {
  const std::uint64_t news = heap_news;
  f();
  return heap_news - news;
}

TEST(SyncHeapTest, BuildingAPrimitiveAllocatesNothing) {
  sim::Engine eng;
  EXPECT_EQ(news_of([&] { sim::Event ev(eng); }), 0u);
  EXPECT_EQ(news_of([&] { sim::Semaphore sem(eng, 3); }), 0u);
  EXPECT_EQ(news_of([&] { sim::Mutex m(eng); }), 0u);
  EXPECT_EQ(news_of([&] { dlm::Cohort cohort(eng); }), 0u);
}

TEST(SyncHeapTest, ACohortGroupCostsItsMapNodeOnly) {
  sim::Engine eng;
  dlm::Cohort cohort(eng);
  EXPECT_EQ(news_of([&] {
              auto enter = cohort.enter(7, 1, dlm::LockMode::kExclusive);
              EXPECT_TRUE(enter.await_ready()) << "an idle group's first "
                                                  "strand leads at once";
            }),
            1u);
  cohort.acquired(7, 1);
  ASSERT_TRUE(cohort.leave(7, 1).has_value());
  cohort.finish(7, 1);
  EXPECT_EQ(cohort.size(), 0u);
}

// A node's heap: its core vector, one block per core, and its memory's
// free and allocated maps.  Its sync primitives add nothing.
TEST(SyncHeapTest, ANodeAllocatesAPinnedCount) {
  sim::Engine eng;
  const fabric::FabricParams params;
  constexpr std::size_t kMem = 64 * 1024;
  fabric::Arena arena(fabric::NodeMemory::slice_bytes(kMem));
  EXPECT_EQ(news_of([&] {
              fabric::Node node(eng, 0, params, 2, kMem, arena.data());
            }),
            6u);
}

constexpr int kParked = 64;

/// The order strands got through, in a fixed array: a vector here would
/// count its own heap.  A round may add one strand of its own (id -1)
/// before the kParked parked ones.
struct WakeLog {
  std::array<int, kParked + 1> ids{};
  int size = 0;
  void push_back(int id) { ids[size++] = id; }
};

Task<void> wait_event(sim::Event& ev, WakeLog& log, int id) {
  co_await ev.wait();
  log.push_back(id);
}

Task<void> take_permit(sim::Semaphore& sem, WakeLog& log, int id) {
  co_await sem.acquire();
  log.push_back(id);
}

Task<void> take_mutex(sim::Mutex& m, WakeLog& log, int id) {
  auto guard = co_await m.scoped();
  log.push_back(id);
}

Task<void> hold_mutex(sim::Mutex& m, sim::Event& done) {
  auto guard = co_await m.scoped();
  co_await done.wait();
}

Task<void> recv_item(sim::Channel<int>& ch, WakeLog& log) {
  log.push_back(co_await ch.recv());
}

Task<void> send_item(sim::Channel<int>& ch, WakeLog& log, int id) {
  co_await ch.send(id);
  log.push_back(id);
}

Task<void> enter_cohort(dlm::Cohort& cohort, WakeLog& log, int id,
                        dlm::LockMode mode, sim::Event* done) {
  const bool lead = co_await cohort.enter(3, 0, mode);
  log.push_back(id);
  if (lead) cohort.acquired(3, 0);
  if (done != nullptr) co_await done->wait();
  if (cohort.leave(3, 0)) cohort.finish(3, 0);
}

/// Heap allocations of one round in which kParked strands park on a
/// primitive and are woken, after a first round has warmed the engine's
/// ready ring and the frame slab; the round must wake them in FIFO order.
template <typename Round>
std::uint64_t warm_round_news(sim::Engine& eng, Round round) {
  WakeLog warm;
  round(warm);
  eng.run();
  WakeLog log;
  const StatDelta d;
  const std::uint64_t news = heap_news;
  round(log);
  eng.run();
  const std::uint64_t round_news = heap_news - news;
  const int first = log.size - kParked;  // skips the round's own strand
  EXPECT_TRUE(first == 0 || first == 1) << log.size << " strands got through";
  for (int i = 0; i < kParked; ++i) EXPECT_EQ(log.ids[first + i], i);
  EXPECT_EQ(d.reuses(), d.allocs()) << "every frame came off a free list";
  EXPECT_GE(d.allocs(), static_cast<std::uint64_t>(kParked));
  return round_news;
}

TEST(SyncHeapTest, ParkingAndWakingAllocatesNothingBeyondFrames) {
  sim::Engine eng;
  sim::Event ev(eng);
  EXPECT_EQ(warm_round_news(eng,
                            [&](WakeLog& log) {
                              ev.reset();
                              for (int i = 0; i < kParked; ++i) {
                                eng.spawn(wait_event(ev, log, i));
                              }
                              eng.run();
                              ev.set();
                            }),
            0u)
      << "Event";

  sim::Semaphore sem(eng, 0);
  EXPECT_EQ(warm_round_news(eng,
                            [&](WakeLog& log) {
                              for (int i = 0; i < kParked; ++i) {
                                eng.spawn(take_permit(sem, log, i));
                              }
                              eng.run();
                              for (int i = 0; i < kParked; ++i) sem.release();
                            }),
            0u)
      << "Semaphore";
  EXPECT_EQ(sem.available(), 0u);

  sim::Mutex m(eng);
  sim::Event done(eng);
  EXPECT_EQ(warm_round_news(eng,
                            [&](WakeLog& log) {
                              done.reset();
                              eng.spawn(hold_mutex(m, done));
                              for (int i = 0; i < kParked; ++i) {
                                eng.spawn(take_mutex(m, log, i));
                              }
                              eng.run();
                              done.set();
                            }),
            0u)
      << "Mutex";

  // Each channel round builds its channel: its only heap is its item
  // deque's map and first block, and the parked strands add nothing.
  std::optional<sim::Channel<int>> rx;
  EXPECT_EQ(warm_round_news(eng,
                            [&](WakeLog& log) {
                              rx.emplace(eng);
                              for (int i = 0; i < kParked; ++i) {
                                eng.spawn(recv_item(*rx, log));
                              }
                              eng.run();
                              for (int i = 0; i < kParked; ++i) rx->push(i);
                            }),
            2u)
      << "Channel receivers";

  // The first sender fills the one slot (it logs as -1); each try_recv
  // then frees it for the next parked sender.
  std::optional<sim::Channel<int>> tx;
  EXPECT_EQ(warm_round_news(eng,
                            [&](WakeLog& log) {
                              tx.emplace(eng, 1);
                              eng.spawn(send_item(*tx, log, -1));
                              for (int i = 0; i < kParked; ++i) {
                                eng.spawn(send_item(*tx, log, i));
                              }
                              eng.run();
                              for (int i = 0; i <= kParked; ++i) {
                                ASSERT_TRUE(tx->try_recv().has_value());
                                eng.run();
                              }
                            }),
            2u)
      << "Channel senders";

  // A mix of readers and writers behind a writer that holds the lock;
  // the group is built anew each round, which costs its map node.
  dlm::Cohort cohort(eng);
  EXPECT_EQ(warm_round_news(eng,
                            [&](WakeLog& log) {
                              done.reset();
                              eng.spawn(enter_cohort(cohort, log, -1,
                                                     dlm::LockMode::kExclusive,
                                                     &done));
                              for (int i = 0; i < kParked; ++i) {
                                eng.spawn(enter_cohort(
                                    cohort, log, i,
                                    i % 3 == 0 ? dlm::LockMode::kExclusive
                                               : dlm::LockMode::kShared,
                                    nullptr));
                              }
                              eng.run();
                              done.set();
                            }),
            1u)
      << "Cohort";
  EXPECT_EQ(cohort.size(), 0u);
}

}  // namespace
}  // namespace dcs
