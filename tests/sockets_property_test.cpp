// Property tests for the sockets layer: SDP streams under random message
// size sequences, interleaved duplex TCP traffic, credit accounting, and
// pipelining invariants.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sockets/flowctl.hpp"
#include "sockets/sdp.hpp"
#include "sockets/tcp.hpp"
#include "verbs/wire.hpp"

namespace dcs::sockets {
namespace {

std::vector<std::byte> tagged_bytes(std::uint32_t tag, std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((tag * 13 + i * 7) & 0xff);
  }
  return v;
}

// gtest names each case by dumping its bytes, so no byte may be implicit
// padding: uninitialised padding would make the names vary between runs.
struct SdpRandomCase {
  SdpRandomCase(SdpMode m, std::uint64_t sd) : mode(m), seed(sd) {}
  SdpMode mode;
  std::uint32_t zero_pad = 0;
  std::uint64_t seed;
};
static_assert(sizeof(SdpRandomCase) == 16,
              "no implicit padding in SdpRandomCase");

class SdpRandomSizes : public ::testing::TestWithParam<SdpRandomCase> {};

TEST_P(SdpRandomSizes, RandomSizeSequenceDeliveredInOrderIntact) {
  const auto param = GetParam();
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  SdpStream stream(net, 0, 1, param.mode);

  // Pre-draw the size sequence so sender and checker agree.
  Rng rng(param.seed);
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 60; ++i) {
    // 1 B .. 100 KB, log-uniform-ish: spans sub-chunk and multi-chunk.
    const auto magnitude = rng.uniform(1, 5);
    std::size_t size = 1;
    for (std::uint64_t m = 0; m < magnitude; ++m) size *= 10;
    sizes.push_back(rng.uniform(1, size));
  }

  eng.spawn([](SdpStream& s, const std::vector<std::size_t>& sz)
                -> sim::Task<void> {
    for (std::size_t i = 0; i < sz.size(); ++i) {
      co_await s.send(tagged_bytes(static_cast<std::uint32_t>(i), sz[i]));
    }
    co_await s.flush();
  }(stream, sizes));

  int mismatches = 0;
  eng.spawn([](SdpStream& s, const std::vector<std::size_t>& sz,
               int& bad) -> sim::Task<void> {
    for (std::size_t i = 0; i < sz.size(); ++i) {
      const auto got = co_await s.recv();
      if (got != tagged_bytes(static_cast<std::uint32_t>(i), sz[i])) ++bad;
    }
  }(stream, sizes, mismatches));

  eng.run();
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(stream.sends_completed(), 60u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SdpRandomSizes,
    ::testing::Values(SdpRandomCase{SdpMode::kBufferedCopy, 1},
                      SdpRandomCase{SdpMode::kBufferedCopy, 2},
                      SdpRandomCase{SdpMode::kZeroCopy, 1},
                      SdpRandomCase{SdpMode::kAsyncZeroCopy, 1},
                      SdpRandomCase{SdpMode::kAsyncZeroCopy, 2}),
    [](const auto& param_info) {
      std::string name = to_string(param_info.param.mode);
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name + "_seed" + std::to_string(param_info.param.seed);
    });

TEST(TcpPropertyTest, InterleavedDuplexStreamsStayOrdered) {
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 2, .cores_per_node = 2});
  TcpNetwork tcp(fab);
  constexpr int kMessages = 50;
  int a_bad = 0, b_bad = 0;
  // Both endpoints simultaneously send sequences and check what arrives.
  eng.spawn([](TcpNetwork& t, int& bad) -> sim::Task<void> {
    TcpConnection* conn = co_await t.accept(1, 80);
    for (int i = 0; i < kMessages; ++i) {
      // Interleave sending and receiving.
      co_await conn->send(1, tagged_bytes(1000 + i, 128));
      const auto got = (co_await conn->recv(1)).payload;
      if (got != tagged_bytes(2000 + i, 96)) ++bad;
    }
  }(tcp, a_bad));
  eng.spawn([](TcpNetwork& t, int& bad) -> sim::Task<void> {
    TcpConnection* conn = co_await t.connect(0, 1, 80);
    for (int i = 0; i < kMessages; ++i) {
      co_await conn->send(0, tagged_bytes(2000 + i, 96));
      const auto got = (co_await conn->recv(0)).payload;
      if (got != tagged_bytes(1000 + i, 128)) ++bad;
    }
  }(tcp, b_bad));
  eng.run();
  EXPECT_EQ(a_bad, 0);
  EXPECT_EQ(b_bad, 0);
}

TEST(TcpPropertyTest, ManyParallelConnectionsIsolated) {
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 4, .cores_per_node = 4});
  TcpNetwork tcp(fab);
  constexpr int kConns = 12;
  int wrong = 0;
  for (int c = 0; c < kConns; ++c) {
    eng.spawn([](TcpNetwork& t, int id, int& bad) -> sim::Task<void> {
      TcpConnection* conn = co_await t.accept(3, 8000 + id % 4);
      const auto got = (co_await conn->recv(3)).payload;
      verbs::Decoder dec(got);
      if (dec.u32() % 4 != static_cast<std::uint32_t>(id % 4)) ++bad;
      (void)id;
    }(tcp, c, wrong));
  }
  for (int c = 0; c < kConns; ++c) {
    eng.spawn([](TcpNetwork& t, int id) -> sim::Task<void> {
      TcpConnection* conn = co_await t.connect(
          static_cast<fabric::NodeId>(id % 3), 3, 8000 + id % 4);
      co_await conn->send(static_cast<fabric::NodeId>(id % 3),
                          verbs::Encoder().u32(id).take());
    }(tcp, c));
  }
  eng.run();
  // Port-level isolation only: a receiver on port P gets some message sent
  // to port P (ids are congruent mod 4 by construction).
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(tcp.connection_count(), kConns);
}

TEST(FlowPropertyTest, CreditsNeverExceedConfiguredCount) {
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  CreditStream stream(net, 0, 1, FlowConfig{.buffer_bytes = 1024,
                                            .num_buffers = 4});
  stream.start_receiver();
  // Track in-flight buffers via stats deltas: consumed - (returned implied
  // by send unblocking).  The invariant asserted: sends never observe more
  // than num_buffers outstanding, i.e. the sender blocks appropriately.
  SimNanos done = 0;
  eng.spawn([](CreditStream& s, sim::Engine& e, SimNanos& out)
                -> sim::Task<void> {
    for (int i = 0; i < 64; ++i) co_await s.send(512);
    co_await s.quiesce();
    out = e.now();
    e.stop();
  }(stream, eng, done));
  eng.run_until(seconds(10));
  EXPECT_GT(done, 0u);
  EXPECT_EQ(stream.stats().messages_sent, 64u);
  EXPECT_EQ(stream.stats().buffers_consumed, 64u);
}

TEST(SdpPropertyTest, BufferedPipelinesChunksFasterThanSerial) {
  // A 160 KB message (20 chunks) must complete in much less than 20x the
  // per-chunk round trip, because copies overlap wire transfers.
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  SdpStream stream(net, 0, 1, SdpMode::kBufferedCopy);
  eng.spawn([](SdpStream& s) -> sim::Task<void> {
    co_await s.send(std::vector<std::byte>(160 * 1024));
  }(stream));
  eng.spawn([](SdpStream& s) -> sim::Task<void> {
    (void)co_await s.recv();
  }(stream));
  eng.run();
  const auto& p = fab.params();
  // Serial bound: 20 x (copy + write RTT + copy) would exceed ~400 us.
  const SimNanos copy_bound = 2 * p.copy_time(160 * 1024);
  EXPECT_LT(eng.now(), copy_bound + microseconds(120))
      << "chunk pipeline should approach the copy bandwidth bound";
}

}  // namespace
}  // namespace dcs::sockets
