// The frame budget of one simulated hop.  Each layer of a hop costs at most
// one coroutine frame: a wrapper that only forwards returns its callee's
// Task instead of awaiting it, and mutex and channel waits are frameless
// awaiters.  These tests pin the frames each per-hop call allocates, so an
// added forwarding frame shows up here rather than as a slower benchmark.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/engine.hpp"
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

}  // namespace
}  // namespace dcs
