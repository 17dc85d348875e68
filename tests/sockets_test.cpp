// Tests for the sockets layer: TCP cost model, SDP variants, flow control.
#include <gtest/gtest.h>

#include <numeric>

#include "sockets/flowctl.hpp"
#include "sockets/sdp.hpp"
#include "sockets/tcp.hpp"

namespace dcs::sockets {
namespace {

std::vector<std::byte> pattern_bytes(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>(i * 7);
  return v;
}

struct SocketsFixture : ::testing::Test {
  sim::Engine eng;
  fabric::Fabric fab{eng, fabric::FabricParams{},
                     {.num_nodes = 4, .cores_per_node = 2}};
  verbs::Network net{fab};
  TcpNetwork tcp{fab};
};

// --- TCP ---

TEST_F(SocketsFixture, TcpConnectAcceptSendRecv) {
  std::vector<std::byte> got;
  eng.spawn([](TcpNetwork& t, std::vector<std::byte>& out) -> sim::Task<void> {
    TcpConnection* conn = co_await t.accept(1, 80);
    out = (co_await conn->recv(1)).payload;
  }(tcp, got));
  eng.spawn([](TcpNetwork& t) -> sim::Task<void> {
    TcpConnection* conn = co_await t.connect(0, 1, 80);
    co_await conn->send(0, pattern_bytes(100));
  }(tcp));
  eng.run();
  EXPECT_EQ(got, pattern_bytes(100));
}

TEST_F(SocketsFixture, TcpIsBidirectional) {
  bool round_trip = false;
  eng.spawn([](TcpNetwork& t, bool& ok) -> sim::Task<void> {
    TcpConnection* conn = co_await t.accept(1, 80);
    auto req = co_await conn->recv(1);
    co_await conn->send(1, std::move(req.payload));  // echo
    (void)ok;
  }(tcp, round_trip));
  eng.spawn([](TcpNetwork& t, bool& ok) -> sim::Task<void> {
    TcpConnection* conn = co_await t.connect(0, 1, 80);
    co_await conn->send(0, pattern_bytes(64));
    auto reply = (co_await conn->recv(0)).payload;
    ok = (reply == pattern_bytes(64));
  }(tcp, round_trip));
  eng.run();
  EXPECT_TRUE(round_trip);
}

TEST_F(SocketsFixture, TcpChargesCpuOnBothHosts) {
  eng.spawn([](TcpNetwork& t) -> sim::Task<void> {
    TcpConnection* conn = co_await t.accept(1, 80);
    (void)co_await conn->recv(1);
  }(tcp));
  eng.spawn([](TcpNetwork& t) -> sim::Task<void> {
    TcpConnection* conn = co_await t.connect(0, 1, 80);
    co_await conn->send(0, pattern_bytes(4096));
  }(tcp));
  eng.run();
  EXPECT_GT(fab.node(0).busy_ns(), 0u);
  EXPECT_GT(fab.node(1).busy_ns(), 0u);
}

TEST_F(SocketsFixture, TcpRecvDelayedByServerLoad) {
  // Measure request->reply latency on an idle server, then on a server with
  // heavy background compute: the socket reply must get slower.
  auto measure = [](bool loaded) -> SimNanos {
    sim::Engine eng2;
    fabric::Fabric fab2(eng2, fabric::FabricParams{},
                        {.num_nodes = 2, .cores_per_node = 1});
    TcpNetwork tcp2(fab2);
    if (loaded) {
      for (int i = 0; i < 8; ++i) {
        eng2.spawn(fab2.node(1).execute(seconds(1)));
      }
    }
    SimNanos latency = 0;
    eng2.spawn([](TcpNetwork& t) -> sim::Task<void> {
      TcpConnection* conn = co_await t.accept(1, 80);
      auto req = co_await conn->recv(1);
      co_await conn->send(1, std::move(req.payload));
    }(tcp2));
    eng2.spawn([](TcpNetwork& t, sim::Engine& e, SimNanos& lat)
                   -> sim::Task<void> {
      TcpConnection* conn = co_await t.connect(0, 1, 80);
      const auto t0 = e.now();
      co_await conn->send(0, std::vector<std::byte>(64));
      (void)co_await conn->recv(0);
      lat = e.now() - t0;
      e.stop();
    }(tcp2, eng2, latency));
    eng2.run();
    return latency;
  };
  const SimNanos idle = measure(false);
  const SimNanos loaded = measure(true);
  EXPECT_GT(loaded, 5 * idle);
}

// --- TCP connection lifetime ---

// Connects 0 -> 1 and accepts at 1; `out` receives the connection.
sim::Task<void> open_pair(TcpNetwork& t, TcpConnection*& out) {
  TcpConnection* client = co_await t.connect(0, 1, 80);
  out = co_await t.accept(1, 80);
  EXPECT_EQ(out, client);
}

TEST_F(SocketsFixture, TcpConnectionFreedOnceBothSidesClose) {
  TcpConnection* conn = nullptr;
  eng.spawn(open_pair(tcp, conn));
  eng.run();
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(tcp.connection_count(), 1u);
  conn->close(0);
  EXPECT_EQ(tcp.connection_count(), 1u);
  conn->close(1);
  EXPECT_EQ(tcp.connection_count(), 0u);
}

TEST_F(SocketsFixture, TcpCloseChargesNoTimeAndSchedulesNothing) {
  TcpConnection* conn = nullptr;
  eng.spawn(open_pair(tcp, conn));
  eng.run();
  const SimNanos before = eng.now();
  const std::uint64_t events = eng.events_dispatched();
  conn->close(1);
  conn->close(0);
  eng.run();
  EXPECT_EQ(eng.now(), before);
  EXPECT_EQ(eng.events_dispatched(), events);
}

TEST_F(SocketsFixture, TcpFreeingOneConnectionKeepsTheOthersWorking) {
  // Freeing moves another connection into the freed slot: the survivors
  // must still deliver.
  std::vector<TcpConnection*> conns(3, nullptr);
  for (auto& c : conns) eng.spawn(open_pair(tcp, c));
  eng.run();
  conns[0]->close(0);
  conns[0]->close(1);
  EXPECT_EQ(tcp.connection_count(), 2u);
  std::vector<std::byte> got;
  eng.spawn([](TcpConnection* c, std::vector<std::byte>& out)
                -> sim::Task<void> {
    co_await c->send(0, pattern_bytes(32));
    out = (co_await c->recv(1)).payload;
    c->close(0);
    c->close(1);
  }(conns[1], got));
  eng.run();
  EXPECT_EQ(got, pattern_bytes(32));
  EXPECT_EQ(tcp.connection_count(), 1u);
}

using SocketsDeathTest = SocketsFixture;

TEST_F(SocketsDeathTest, SendOnClosedSideAborts) {
  TcpConnection* conn = nullptr;
  eng.spawn(open_pair(tcp, conn));
  eng.run();
  conn->close(0);
  EXPECT_DEATH(
      {
        eng.spawn(conn->send(0, pattern_bytes(8)));
        eng.run();
      },
      "after close");
}

TEST_F(SocketsDeathTest, RecvOnClosedSideAborts) {
  TcpConnection* conn = nullptr;
  eng.spawn(open_pair(tcp, conn));
  eng.run();
  conn->close(1);
  EXPECT_DEATH(
      {
        eng.spawn([](TcpConnection* c) -> sim::Task<void> {
          (void)co_await c->recv(1);
        }(conn));
        eng.run();
      },
      "after close");
}

TEST_F(SocketsDeathTest, CloseTwiceAborts) {
  TcpConnection* conn = nullptr;
  eng.spawn(open_pair(tcp, conn));
  eng.run();
  conn->close(0);
  EXPECT_DEATH(conn->close(0), "after close");
}

// --- SDP variants ---

sim::Task<void> pump(SdpStream& s, std::size_t msg, int count) {
  for (int i = 0; i < count; ++i) {
    co_await s.send(pattern_bytes(msg));
  }
  co_await s.flush();
}

sim::Task<void> drain(SdpStream& s, int count, bool& data_ok) {
  data_ok = true;
  for (int i = 0; i < count; ++i) {
    auto m = co_await s.recv();
    if (m != pattern_bytes(m.size())) data_ok = false;
  }
}

struct SdpCase {
  SdpMode mode;
};

class SdpAllModes : public ::testing::TestWithParam<SdpCase> {};

TEST_P(SdpAllModes, DeliversPayloadsInOrderIntact) {
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  SdpStream stream(net, 0, 1, GetParam().mode);
  bool ok = false;
  eng.spawn(pump(stream, 2048, 20));
  eng.spawn(drain(stream, 20, ok));
  eng.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(stream.sends_completed(), 20u);
  EXPECT_EQ(stream.bytes_sent(), 20u * 2048u);
}

TEST_P(SdpAllModes, LargeMessagesAlsoIntact) {
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  SdpStream stream(net, 0, 1, GetParam().mode);
  bool ok = false;
  eng.spawn(pump(stream, 100000, 3));  // > staging buffer: exercises chunking
  eng.spawn(drain(stream, 3, ok));
  eng.run();
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SdpAllModes,
    ::testing::Values(SdpCase{SdpMode::kBufferedCopy},
                      SdpCase{SdpMode::kZeroCopy},
                      SdpCase{SdpMode::kAsyncZeroCopy}),
    [](const auto& param_info) {
      std::string name = to_string(param_info.param.mode);
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name;
    });

SimNanos run_stream(SdpMode mode, std::size_t msg, int count) {
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  SdpStream stream(net, 0, 1, mode);
  bool ok = false;
  eng.spawn(pump(stream, msg, count));
  eng.spawn(drain(stream, count, ok));
  eng.run();
  return eng.now();
}

TEST(SdpComparison, ZeroCopyBeatsBufferedForLargeMessages) {
  const auto buffered = run_stream(SdpMode::kBufferedCopy, 256 * 1024, 10);
  const auto zcopy = run_stream(SdpMode::kZeroCopy, 256 * 1024, 10);
  EXPECT_LT(zcopy, buffered);
}

TEST(SdpComparison, BufferedBeatsZeroCopyForTinyMessages) {
  // Registration + rendezvous control dominates at 64 B.
  const auto buffered = run_stream(SdpMode::kBufferedCopy, 64, 200);
  const auto zcopy = run_stream(SdpMode::kZeroCopy, 64, 200);
  EXPECT_LT(buffered, zcopy);
}

TEST(SdpComparison, AsyncZeroCopyBeatsSyncZeroCopy) {
  const auto zcopy = run_stream(SdpMode::kZeroCopy, 64 * 1024, 50);
  const auto az = run_stream(SdpMode::kAsyncZeroCopy, 64 * 1024, 50);
  EXPECT_LT(az, zcopy);
}

TEST(SdpTest, FlushWaitsForOutstandingAsyncSends) {
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  SdpStream stream(net, 0, 1, SdpMode::kAsyncZeroCopy);
  SimNanos send_return = 0, flush_return = 0;
  eng.spawn([](SdpStream& s, sim::Engine& e, SimNanos& sr, SimNanos& fr)
                -> sim::Task<void> {
    co_await s.send(pattern_bytes(64 * 1024));
    sr = e.now();
    co_await s.flush();
    fr = e.now();
  }(stream, eng, send_return, flush_return));
  eng.spawn([](SdpStream& s) -> sim::Task<void> {
    (void)co_await s.recv();
  }(stream));
  eng.run();
  EXPECT_LT(send_return, flush_return);
}

// --- flow control ---

struct FlowResult {
  SimNanos elapsed;
  FlowStats stats;
};

template <typename Stream>
FlowResult run_flow(std::size_t msg, int count) {
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  Stream stream(net, 0, 1, FlowConfig{});
  stream.start_receiver();
  SimNanos elapsed = 0;
  eng.spawn([](Stream& s, sim::Engine& e, std::size_t m, int n,
               SimNanos& done) -> sim::Task<void> {
    for (int i = 0; i < n; ++i) co_await s.send(m);
    if constexpr (requires { s.flush(); }) co_await s.flush();
    co_await s.quiesce();
    done = e.now();
    e.stop();
  }(stream, eng, msg, count, elapsed));
  eng.run_until(seconds(100));
  return FlowResult{elapsed, stream.stats()};
}

TEST(FlowControlTest, PacketizedPacksManyMessagesPerBuffer) {
  const auto credit = run_flow<CreditStream>(64, 1000);
  const auto packed = run_flow<PacketizedStream>(64, 1000);
  EXPECT_EQ(credit.stats.buffers_consumed, 1000u);
  EXPECT_LT(packed.stats.buffers_consumed, 20u);
  EXPECT_GT(packed.stats.buffer_utilization(8192),
            50 * credit.stats.buffer_utilization(8192));
}

TEST(FlowControlTest, PacketizedMuchFasterForSmallMessages) {
  const auto credit = run_flow<CreditStream>(64, 1000);
  const auto packed = run_flow<PacketizedStream>(64, 1000);
  EXPECT_LT(packed.elapsed * 5, credit.elapsed);
}

TEST(FlowControlTest, SimilarForFullBufferMessages) {
  const auto credit = run_flow<CreditStream>(8192, 200);
  const auto packed = run_flow<PacketizedStream>(8192, 200);
  const double ratio = static_cast<double>(credit.elapsed) /
                       static_cast<double>(packed.elapsed);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(FlowControlTest, AllPayloadBytesAccounted) {
  const auto packed = run_flow<PacketizedStream>(100, 500);
  EXPECT_EQ(packed.stats.messages_sent, 500u);
  EXPECT_EQ(packed.stats.payload_bytes, 500u * 100u);
}

}  // namespace
}  // namespace dcs::sockets
