// Unit tests for the verbs layer: registration, one-sided data movement,
// remote atomics (incl. concurrency), protection errors, send/recv, and the
// zero-target-CPU property that underpins the paper.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace/hot.hpp"
#include "trace/trace.hpp"
#include "verbs/verbs.hpp"
#include "verbs/wire.hpp"

namespace dcs::verbs {
namespace {

struct VerbsFixture : ::testing::Test {
  sim::Engine eng;
  fabric::Fabric fab{eng, fabric::FabricParams{},
                     {.num_nodes = 4, .cores_per_node = 2}};
  Network net{fab};
};

std::vector<std::byte> make_bytes(std::initializer_list<int> vals) {
  std::vector<std::byte> out;
  for (int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST_F(VerbsFixture, RegisterAndResolveRoundTrip) {
  auto region = net.hca(1).allocate_region(256);
  EXPECT_TRUE(region.valid());
  EXPECT_EQ(region.node, 1u);
  EXPECT_EQ(region.len, 256u);
  EXPECT_EQ(net.hca(1).registered_region_count(), 1u);
  net.hca(1).free_region(region);
  EXPECT_EQ(net.hca(1).registered_region_count(), 0u);
}

TEST_F(VerbsFixture, WriteThenReadMovesBytes) {
  auto region = net.hca(1).allocate_region(64);
  const auto payload = make_bytes({1, 2, 3, 4, 5});
  std::vector<std::byte> readback(5);
  eng.spawn([](Network& n, RemoteRegion r, const std::vector<std::byte>& src,
               std::vector<std::byte>& dst) -> sim::Task<void> {
    co_await n.hca(0).write(r, 0, src);
    co_await n.hca(2).read(r, 0, dst);
  }(net, region, payload, readback));
  eng.run();
  EXPECT_EQ(readback, payload);
}

TEST_F(VerbsFixture, WriteAtOffsetDoesNotClobberNeighbors) {
  auto region = net.hca(1).allocate_region(16);
  eng.spawn([](Network& n, RemoteRegion r) -> sim::Task<void> {
    const auto a = make_bytes({0xAA});
    const auto b = make_bytes({0xBB});
    co_await n.hca(0).write(r, 3, a);
    co_await n.hca(0).write(r, 5, b);
  }(net, region));
  eng.run();
  auto mem = fab.node(1).memory().bytes(region.addr, 16);
  EXPECT_EQ(mem[3], std::byte{0xAA});
  EXPECT_EQ(mem[4], std::byte{0});
  EXPECT_EQ(mem[5], std::byte{0xBB});
}

TEST_F(VerbsFixture, RdmaReadTakesMicrosecondsNotMilliseconds) {
  auto region = net.hca(1).allocate_region(8);
  std::vector<std::byte> dst(1);
  eng.spawn([](Network& n, RemoteRegion r, std::vector<std::byte>& d)
                -> sim::Task<void> {
    co_await n.hca(0).read(r, 0, d);
  }(net, region, dst));
  eng.run();
  // 2007-era IB DDR small read: single-digit microseconds.
  EXPECT_GT(eng.now(), microseconds(2));
  EXPECT_LT(eng.now(), microseconds(12));
}

TEST_F(VerbsFixture, OneSidedOpsConsumeNoTargetCpu) {
  auto region = net.hca(1).allocate_region(4096);
  std::vector<std::byte> buf(4096);
  eng.spawn([](Network& n, RemoteRegion r, std::vector<std::byte>& b)
                -> sim::Task<void> {
    for (int i = 0; i < 50; ++i) {
      co_await n.hca(0).read(r, 0, b);
      co_await n.hca(0).write(r, 0, b);
      (void)co_await n.hca(0).fetch_and_add(r, 0, 1);
    }
  }(net, region, buf));
  eng.run();
  EXPECT_EQ(fab.node(1).busy_ns(), 0u) << "target CPU must stay idle";
  EXPECT_EQ(net.hca(0).one_sided_ops(), 150u);
}

TEST_F(VerbsFixture, CasSwapsOnlyOnMatch) {
  auto region = net.hca(2).allocate_region(8);
  std::uint64_t first = 1, second = 1;
  eng.spawn([](Network& n, RemoteRegion r, std::uint64_t& f, std::uint64_t& s)
                -> sim::Task<void> {
    f = co_await n.hca(0).compare_and_swap(r, 0, 0, 42);   // matches: 0 -> 42
    s = co_await n.hca(0).compare_and_swap(r, 0, 0, 99);   // fails: sees 42
  }(net, region, first, second));
  eng.run();
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 42u);
  auto mem = fab.node(2).memory().bytes(region.addr, 8);
  EXPECT_EQ(load_u64(mem, 0), 42u);
}

TEST_F(VerbsFixture, FaaReturnsOldValueAndAccumulates) {
  auto region = net.hca(2).allocate_region(8);
  std::vector<std::uint64_t> olds;
  eng.spawn([](Network& n, RemoteRegion r, std::vector<std::uint64_t>& out)
                -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      out.push_back(co_await n.hca(0).fetch_and_add(r, 0, 10));
    }
  }(net, region, olds));
  eng.run();
  EXPECT_EQ(olds, (std::vector<std::uint64_t>{0, 10, 20, 30}));
}

TEST_F(VerbsFixture, ConcurrentFaaFromManyNodesIsAtomic) {
  auto region = net.hca(3).allocate_region(8);
  for (fabric::NodeId n = 0; n < 3; ++n) {
    eng.spawn([](Network& net_, fabric::NodeId self, RemoteRegion r)
                  -> sim::Task<void> {
      for (int i = 0; i < 100; ++i) {
        (void)co_await net_.hca(self).fetch_and_add(r, 0, 1);
      }
    }(net, n, region));
  }
  eng.run();
  auto mem = fab.node(3).memory().bytes(region.addr, 8);
  EXPECT_EQ(load_u64(mem, 0), 300u);
}

TEST_F(VerbsFixture, ConcurrentCasExactlyOneWinner) {
  auto region = net.hca(3).allocate_region(8);
  int winners = 0;
  for (fabric::NodeId n = 0; n < 3; ++n) {
    eng.spawn([](Network& net_, fabric::NodeId self, RemoteRegion r, int& w)
                  -> sim::Task<void> {
      const auto old =
          co_await net_.hca(self).compare_and_swap(r, 0, 0, self + 1);
      if (old == 0) ++w;
    }(net, n, region, winners));
  }
  eng.run();
  EXPECT_EQ(winners, 1);
}

TEST_F(VerbsFixture, UnknownRkeyRaisesRemoteAccessError) {
  auto region = net.hca(1).allocate_region(8);
  region.rkey += 1000;  // corrupt the key
  bool caught = false;
  std::vector<std::byte> dst(8);
  eng.spawn([](Network& n, RemoteRegion r, std::vector<std::byte>& d, bool& c)
                -> sim::Task<void> {
    try {
      co_await n.hca(0).read(r, 0, d);
    } catch (const RemoteAccessError&) {
      c = true;
    }
  }(net, region, dst, caught));
  eng.run();
  EXPECT_TRUE(caught);
}

TEST_F(VerbsFixture, OutOfBoundsAccessRaises) {
  auto region = net.hca(1).allocate_region(8);
  bool caught = false;
  std::vector<std::byte> dst(8);
  eng.spawn([](Network& n, RemoteRegion r, std::vector<std::byte>& d, bool& c)
                -> sim::Task<void> {
    try {
      co_await n.hca(0).read(r, 4, d);  // 4 + 8 > 8
    } catch (const RemoteAccessError&) {
      c = true;
    }
  }(net, region, dst, caught));
  eng.run();
  EXPECT_TRUE(caught);
}

TEST_F(VerbsFixture, DeregisteredRegionInaccessible) {
  auto region = net.hca(1).allocate_region(8);
  net.hca(1).deregister(region.rkey);
  bool caught = false;
  eng.spawn([](Network& n, RemoteRegion r, bool& c) -> sim::Task<void> {
    try {
      const auto payload = make_bytes({1});
      co_await n.hca(0).write(r, 0, payload);
    } catch (const RemoteAccessError&) {
      c = true;
    }
  }(net, region, caught));
  eng.run();
  EXPECT_TRUE(caught);
}

TEST_F(VerbsFixture, MisalignedAtomicRaises) {
  auto region = net.hca(1).allocate_region(16);
  bool caught = false;
  eng.spawn([](Network& n, RemoteRegion r, bool& c) -> sim::Task<void> {
    try {
      (void)co_await n.hca(0).fetch_and_add(r, 4, 1);
    } catch (const RemoteAccessError&) {
      c = true;
    }
  }(net, region, caught));
  eng.run();
  EXPECT_TRUE(caught);
}

// Alignment is checked at post time, before liveness: a misaligned atomic
// to a dead node fails at once instead of after the retry window.
TEST_F(VerbsFixture, MisalignedAtomicToFailedNodeRaisesAtOnce) {
  auto region = net.hca(1).allocate_region(16);
  fab.node(1).fail();
  int access_errors = 0;
  int timeouts = 0;
  eng.spawn([](Network& n, RemoteRegion r, int& access,
               int& timeout) -> sim::Task<void> {
    try {
      (void)co_await n.hca(0).compare_and_swap(r, 4, 0, 1);
    } catch (const RemoteAccessError&) {
      ++access;
    } catch (const RemoteTimeoutError&) {
      ++timeout;
    }
    try {
      (void)co_await n.hca(0).fetch_and_add(r, 12, 1);
    } catch (const RemoteAccessError&) {
      ++access;
    } catch (const RemoteTimeoutError&) {
      ++timeout;
    }
  }(net, region, access_errors, timeouts));
  eng.run();
  EXPECT_EQ(access_errors, 2);
  EXPECT_EQ(timeouts, 0);
  EXPECT_EQ(eng.now(), 0u);
}

TEST_F(VerbsFixture, SendRecvDeliversTaggedMessages) {
  std::vector<std::string> got;
  eng.spawn([](Network& n, std::vector<std::string>& out) -> sim::Task<void> {
    for (int i = 0; i < 2; ++i) {
      auto msg = co_await n.hca(1).recv(7);
      Decoder dec(msg.payload);
      out.push_back(dec.str());
    }
  }(net, got));
  eng.spawn([](Network& n) -> sim::Task<void> {
    co_await n.hca(0).send(1, 7, Encoder().str("hello").take());
    co_await n.hca(0).send(1, 7, Encoder().str("world").take());
  }(net));
  eng.run();
  EXPECT_EQ(got, (std::vector<std::string>{"hello", "world"}));
}

TEST_F(VerbsFixture, TagsIsolateReceivers) {
  std::string tag1_got, tag2_got;
  eng.spawn([](Network& n, std::string& out) -> sim::Task<void> {
    auto msg = co_await n.hca(1).recv(1);
    out = Decoder(msg.payload).str();
  }(net, tag1_got));
  eng.spawn([](Network& n, std::string& out) -> sim::Task<void> {
    auto msg = co_await n.hca(1).recv(2);
    out = Decoder(msg.payload).str();
  }(net, tag2_got));
  eng.spawn([](Network& n) -> sim::Task<void> {
    co_await n.hca(0).send(1, 2, Encoder().str("for-two").take());
    co_await n.hca(0).send(1, 1, Encoder().str("for-one").take());
  }(net));
  eng.run();
  EXPECT_EQ(tag1_got, "for-one");
  EXPECT_EQ(tag2_got, "for-two");
}

TEST_F(VerbsFixture, RecvChargesTargetCpuButRdmaDoesNot) {
  auto region = net.hca(1).allocate_region(64);
  eng.spawn([](Network& n) -> sim::Task<void> {
    (void)co_await n.hca(1).recv(9);
  }(net));
  eng.spawn([](Network& n, RemoteRegion r) -> sim::Task<void> {
    const auto payload = make_bytes({1, 2, 3});
    co_await n.hca(0).write(r, 0, payload);       // no CPU at node 1
    co_await n.hca(0).send(1, 9, payload);        // CPU at node 1
  }(net, region));
  eng.run();
  EXPECT_GT(fab.node(1).busy_ns(), 0u);
}

TEST_F(VerbsFixture, TryRecvNonBlocking) {
  EXPECT_FALSE(net.hca(0).try_recv(5).has_value());
  eng.spawn([](Network& n) -> sim::Task<void> {
    co_await n.hca(1).send(0, 5, Encoder().u32(77).take());
  }(net));
  eng.run();
  auto msg = net.hca(0).try_recv(5);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(Decoder(msg->payload).u32(), 77u);
}

TEST_F(VerbsFixture, LargeTransferSlowerThanSmall) {
  auto region = net.hca(1).allocate_region(256 * 1024);
  std::vector<std::byte> small(64), large(256 * 1024);
  SimNanos t_small = 0, t_large = 0;
  eng.spawn([](Network& n, sim::Engine& e, RemoteRegion r,
               std::vector<std::byte>& s, std::vector<std::byte>& l,
               SimNanos& ts, SimNanos& tl) -> sim::Task<void> {
    const auto t0 = e.now();
    co_await n.hca(0).read(r, 0, s);
    ts = e.now() - t0;
    const auto t1 = e.now();
    co_await n.hca(0).read(r, 0, l);
    tl = e.now() - t1;
  }(net, eng, region, small, large, t_small, t_large));
  eng.run();
  EXPECT_GT(t_large, 10 * t_small);
}

// --- batched work queues (OpBatch) ---

TEST_F(VerbsFixture, EmptyBatchCompletesInstantly) {
  eng.spawn([](Network& n) -> sim::Task<void> {
    co_await n.hca(0).post(OpBatch{});
  }(net));
  eng.run();
  EXPECT_EQ(eng.now(), 0u);
}

TEST_F(VerbsFixture, BatchScatterGatherMovesBytes) {
  auto region = net.hca(1).allocate_region(64);
  const auto head = make_bytes({1, 2, 3});
  const auto tail = make_bytes({4, 5, 6, 7, 8});
  std::vector<std::byte> front(2), back(6);
  eng.spawn([](Network& n, RemoteRegion r, const std::vector<std::byte>& a,
               const std::vector<std::byte>& b, std::vector<std::byte>& f,
               std::vector<std::byte>& k) -> sim::Task<void> {
    // Gather two source segments into one contiguous remote write, then
    // scatter the same remote bytes back across two destination segments —
    // both ops in the same batch, completion order preserved.
    OpBatch batch;
    batch.write(r, 0, std::vector<std::span<const std::byte>>{a, b});
    batch.read(r, 0, std::vector<std::span<std::byte>>{f, k});
    co_await n.hca(0).post(std::move(batch));
  }(net, region, head, tail, front, back));
  eng.run();
  EXPECT_EQ(front, make_bytes({1, 2}));
  EXPECT_EQ(back, make_bytes({3, 4, 5, 6, 7, 8}));
}

// Read bytes land in their destination at the execution instant, so a
// batch that faults on a later op has already filled an earlier read's dst.
TEST_F(VerbsFixture, BatchFaultLeavesEarlierReadLanded) {
  auto region = net.hca(1).allocate_region(8);
  const auto seed = make_bytes({9, 8, 7, 6});
  auto mem = net.hca(1).host().memory().bytes(region.addr, seed.size());
  std::copy(seed.begin(), seed.end(), mem.begin());
  RemoteRegion bogus = region;
  bogus.rkey += 1000;
  std::vector<std::byte> first(4), second(4);
  bool caught = false;
  eng.spawn([](Network& n, RemoteRegion good, RemoteRegion bad,
               std::vector<std::byte>& a, std::vector<std::byte>& b,
               bool& c) -> sim::Task<void> {
    OpBatch batch;
    batch.read(good, 0, a);
    batch.read(bad, 0, b);
    try {
      co_await n.hca(0).post(std::move(batch));
    } catch (const RemoteAccessError&) {
      c = true;
    }
  }(net, region, bogus, first, second, caught));
  eng.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(first, seed);
  EXPECT_EQ(second, std::vector<std::byte>(4));
}

// Batched one-sided ops feed the `verbs.home` hot set like serial ones:
// one record per read, weighted by its bytes.
TEST_F(VerbsFixture, BatchedReadsChargeVerbsHomeHotSet) {
  struct HomeWeights : trace::HotSink {
    std::map<std::uint64_t, std::uint64_t> weight;
    int records = 0;
    void record_hot(const char* domain, std::uint64_t key,
                    std::uint64_t w) override {
      if (std::string_view(domain) != "verbs.home") return;
      weight[key] += w;
      ++records;
    }
  } sink;
  trace::ScopedHotSink armed(&sink);
  auto region = net.hca(2).allocate_region(64);
  std::vector<std::byte> a(8), b(16), c(24);
  eng.spawn([](Network& n, RemoteRegion r, std::vector<std::byte>& x,
               std::vector<std::byte>& y,
               std::vector<std::byte>& z) -> sim::Task<void> {
    OpBatch batch;
    batch.read(r, 0, x);
    batch.read(r, 8, y);
    batch.read(r, 24, z);
    co_await n.hca(0).post(std::move(batch));
  }(net, region, a, b, c));
  eng.run();
  EXPECT_EQ(sink.records, 3);
  EXPECT_EQ(sink.weight.size(), 1u);
  EXPECT_EQ(sink.weight[2], 8u + 16u + 24u);
}

TEST_F(VerbsFixture, BatchExecutesOpsInPostingOrder) {
  auto region = net.hca(2).allocate_region(8);
  std::uint64_t old1 = 99, old2 = 99, old3 = 99;
  eng.spawn([](Network& n, RemoteRegion r, std::uint64_t& a, std::uint64_t& b,
               std::uint64_t& c) -> sim::Task<void> {
    // Each op's captured old value proves the one before it already
    // executed: retirement at the target is strictly in posting order.
    OpBatch batch;
    batch.fetch_and_add(r, 0, 5, &a);           // 0 -> 5
    batch.compare_and_swap(r, 0, 5, 77, &b);    // sees 5, swaps to 77
    batch.fetch_and_add(r, 0, 1, &c);           // sees 77
    co_await n.hca(0).post(std::move(batch));
  }(net, region, old1, old2, old3));
  eng.run();
  EXPECT_EQ(old1, 0u);
  EXPECT_EQ(old2, 5u);
  EXPECT_EQ(old3, 77u);
  auto mem = fab.node(2).memory().bytes(region.addr, 8);
  EXPECT_EQ(load_u64(mem, 0), 78u);
}

TEST_F(VerbsFixture, BatchSpansMultipleTargets) {
  auto r1 = net.hca(1).allocate_region(16);
  auto r2 = net.hca(2).allocate_region(16);
  auto r3 = net.hca(3).allocate_region(16);
  eng.spawn([](Network& n, RemoteRegion a, RemoteRegion b,
               RemoteRegion c) -> sim::Task<void> {
    // SGE rule: source spans must stay alive until post() completes.
    const auto va = make_bytes({0xA1});
    const auto vb = make_bytes({0xB2});
    const auto vc = make_bytes({0xC3});
    OpBatch batch;
    batch.write(a, 0, va);
    batch.write(b, 0, vb);
    batch.write(c, 0, vc);
    co_await n.hca(0).post(std::move(batch));
  }(net, r1, r2, r3));
  eng.run();
  EXPECT_EQ(fab.node(1).memory().bytes(r1.addr, 1)[0], std::byte{0xA1});
  EXPECT_EQ(fab.node(2).memory().bytes(r2.addr, 1)[0], std::byte{0xB2});
  EXPECT_EQ(fab.node(3).memory().bytes(r3.addr, 1)[0], std::byte{0xC3});
  EXPECT_EQ(net.hca(0).one_sided_ops(), 3u);
}

TEST_F(VerbsFixture, BatchedOneSidedOpsConsumeNoTargetCpu) {
  auto region = net.hca(1).allocate_region(4096);
  std::vector<std::byte> buf(4096);
  eng.spawn([](Network& n, RemoteRegion r,
               std::vector<std::byte>& b) -> sim::Task<void> {
    OpBatch batch;
    for (int i = 0; i < 8; ++i) {
      batch.read(r, 0, b);
      batch.write(r, 0, b);
      batch.fetch_and_add(r, 0, 1);
    }
    co_await n.hca(0).post(std::move(batch));
  }(net, region, buf));
  eng.run();
  EXPECT_EQ(fab.node(1).busy_ns(), 0u) << "target CPU must stay idle";
  EXPECT_EQ(net.hca(0).one_sided_ops(), 24u);
}

TEST_F(VerbsFixture, BatchedSendsDeliverTaggedMessages) {
  std::string tag1_got, tag2_got;
  eng.spawn([](Network& n, std::string& out) -> sim::Task<void> {
    auto msg = co_await n.hca(1).recv(1);
    out = Decoder(msg.payload).str();
  }(net, tag1_got));
  eng.spawn([](Network& n, std::string& out) -> sim::Task<void> {
    auto msg = co_await n.hca(2).recv(2);
    out = Decoder(msg.payload).str();
  }(net, tag2_got));
  eng.spawn([](Network& n) -> sim::Task<void> {
    OpBatch batch;
    batch.send(1, 1, Encoder().str("for-one").take());
    batch.send(2, 2, Encoder().str("for-two").take());
    co_await n.hca(0).post(std::move(batch));
  }(net));
  eng.run();
  EXPECT_EQ(tag1_got, "for-one");
  EXPECT_EQ(tag2_got, "for-two");
}

// Every serial verb is a one-op batch, so posting a batch of one is
// event-for-event identical to the serial call: same doorbell, same wire
// serialization, same target-side delays, same completion — same dispatch
// fingerprint, not merely the same end time.
TEST(VerbsBatchTiming, BatchOfOneMatchesSerialDelayForDelay) {
  auto run = [](bool batched) {
    sim::Engine eng;
    fabric::Fabric fab(eng, fabric::FabricParams{},
                       {.num_nodes = 4, .cores_per_node = 2});
    Network net(fab);
    auto region = net.hca(1).allocate_region(4096);
    std::vector<std::byte> buf(4096);
    eng.spawn([](Network& n, RemoteRegion r, std::vector<std::byte>& b,
                 bool use_batch) -> sim::Task<void> {
      if (use_batch) {
        { OpBatch x; x.read(r, 0, b); co_await n.hca(0).post(std::move(x)); }
        { OpBatch x; x.write(r, 0, b); co_await n.hca(0).post(std::move(x)); }
        {
          OpBatch x;
          x.fetch_and_add(r, 0, 1);
          co_await n.hca(0).post(std::move(x));
        }
        {
          OpBatch x;
          x.compare_and_swap(r, 0, 1, 2);
          co_await n.hca(0).post(std::move(x));
        }
        {
          OpBatch x;
          x.send(1, 7, std::vector<std::byte>(64, std::byte{1}));
          co_await n.hca(0).post(std::move(x));
        }
      } else {
        co_await n.hca(0).read(r, 0, b);
        co_await n.hca(0).write(r, 0, b);
        (void)co_await n.hca(0).fetch_and_add(r, 0, 1);
        (void)co_await n.hca(0).compare_and_swap(r, 0, 1, 2);
        co_await n.hca(0).send(1, 7, std::vector<std::byte>(64, std::byte{1}));
      }
    }(net, region, buf, batched));
    eng.run();
    return std::pair{eng.now(), eng.dispatch_fingerprint()};
  };
  const auto serial = run(false);
  const auto batched = run(true);
  EXPECT_EQ(serial.first, batched.first);
  EXPECT_EQ(serial.second, batched.second);
}

// Depth-8 pipelining: serialization of op k+1 overlaps the flight of op k
// and the batch charges one doorbell + one completion, so the batch must
// finish well before eight serial round trips — but no faster than a
// single op (the wire is not free).
TEST(VerbsBatchTiming, DeepBatchPipelinesTheWire) {
  auto run = [](int serial_ops, int batch_ops) {
    sim::Engine eng;
    fabric::Fabric fab(eng, fabric::FabricParams{},
                       {.num_nodes = 4, .cores_per_node = 2});
    Network net(fab);
    auto region = net.hca(1).allocate_region(4096);
    std::vector<std::byte> buf(4096);
    eng.spawn([](Network& n, RemoteRegion r, std::vector<std::byte>& b,
                 int serial, int batched) -> sim::Task<void> {
      for (int i = 0; i < serial; ++i) co_await n.hca(0).read(r, 0, b);
      if (batched > 0) {
        OpBatch x;
        for (int i = 0; i < batched; ++i) x.read(r, 0, b);
        co_await n.hca(0).post(std::move(x));
      }
    }(net, region, buf, serial_ops, batch_ops));
    eng.run();
    return eng.now();
  };
  const auto one_serial = run(1, 0);
  const auto eight_serial = run(8, 0);
  const auto eight_batched = run(0, 8);
  EXPECT_LT(eight_batched, eight_serial);
  EXPECT_GT(eight_batched, one_serial);
}

// --- raw (timing-only) transfers ---

constexpr std::size_t kRawBytes = 8192;
constexpr std::size_t kPayloadHeader = 32;  // transport header on payloads

/// Runs one raw transfer from node 0 to `dst` under a tracer; returns the
/// completion time, the wire bytes it added and its spans in close order
/// ("category name@node").
struct RawRun {
  sim::Time done = 0;
  std::uint64_t bytes = 0;
  std::vector<std::string> spans;
};

RawRun run_raw(bool write, fabric::NodeId dst) {
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 2, .cores_per_node = 2});
  Network net(fab);
  trace::Tracer tracer(eng);
  tracer.install();
  eng.spawn([](Hca& hca, fabric::NodeId to, bool w) -> sim::Task<void> {
    if (w) {
      co_await hca.raw_write(to, kRawBytes);
    } else {
      co_await hca.raw_read(to, kRawBytes);
    }
  }(net.hca(0), dst, write));
  eng.run();
  tracer.uninstall();
  RawRun out{eng.now(), fab.bytes_transferred(), {}};
  for (const auto& ev : tracer.events()) {
    out.spans.push_back(std::string(ev.category) + " " + ev.name + "@" +
                        std::to_string(ev.node));
  }
  return out;
}

TEST(VerbsRawTransfer, WriteCostsPostWireTargetWireCompletion) {
  const fabric::FabricParams p;
  const RawRun r = run_raw(true, 1);
  EXPECT_EQ(r.done, p.rdma_post_overhead +
                        p.wire_time(kRawBytes + kPayloadHeader) +
                        p.link_latency + p.rdma_target_nic +
                        p.wire_time(fabric::FabricParams::kControlBytes) +
                        p.link_latency + p.rdma_completion);
  EXPECT_EQ(r.bytes, kRawBytes + kPayloadHeader +
                         fabric::FabricParams::kControlBytes);
  EXPECT_EQ(r.spans,
            (std::vector<std::string>{"verbs nic.post@0", "fabric nic.tx@0",
                                      "fabric wire@0", "verbs nic.target@0",
                                      "fabric nic.tx@1", "fabric wire@1",
                                      "verbs nic.completion@0",
                                      "verbs raw_write@0"}));
}

TEST(VerbsRawTransfer, ReadCostsPostWireTargetWireCompletion) {
  const fabric::FabricParams p;
  const RawRun r = run_raw(false, 1);
  EXPECT_EQ(r.done, p.rdma_post_overhead +
                        p.wire_time(fabric::FabricParams::kControlBytes) +
                        p.link_latency + p.rdma_target_nic +
                        p.wire_time(kRawBytes + kPayloadHeader) +
                        p.link_latency + p.rdma_completion);
  EXPECT_EQ(r.bytes, kRawBytes + kPayloadHeader +
                         fabric::FabricParams::kControlBytes);
  EXPECT_EQ(r.spans,
            (std::vector<std::string>{"verbs nic.post@0", "fabric nic.tx@0",
                                      "fabric wire@0", "verbs nic.target@0",
                                      "fabric nic.tx@1", "fabric wire@1",
                                      "verbs nic.completion@0",
                                      "verbs raw_read@0"}));
}

// Loopback: both halves are one memory-speed copy each, and no link hop.
TEST(VerbsRawTransfer, LoopbackChargesMemoryCopiesAndNoWire) {
  const fabric::FabricParams p;
  for (const bool write : {true, false}) {
    const RawRun r = run_raw(write, 0);
    EXPECT_EQ(r.done, p.rdma_post_overhead +
                          p.wire_time(kRawBytes + kPayloadHeader) / 4 +
                          p.rdma_target_nic +
                          p.wire_time(fabric::FabricParams::kControlBytes) / 4 +
                          p.rdma_completion)
        << (write ? "raw_write" : "raw_read");
    EXPECT_EQ(r.bytes, kRawBytes + kPayloadHeader +
                           fabric::FabricParams::kControlBytes);
    EXPECT_EQ(r.spans.size(), 6u);
    EXPECT_EQ(r.spans[1], "fabric nic.loopback@0");
    EXPECT_EQ(r.spans[3], "fabric nic.loopback@0");
  }
}

TEST_F(VerbsFixture, RawTransferToDeadNodeTimesOut) {
  trace::Registry::global().reset();
  fab.node(1).fail();
  int timeouts = 0;
  eng.spawn([](Network& n, int& count) -> sim::Task<void> {
    try {
      co_await n.hca(0).raw_write(1, kRawBytes);
    } catch (const RemoteTimeoutError&) {
      ++count;
    }
    try {
      co_await n.hca(0).raw_read(1, kRawBytes);
    } catch (const RemoteTimeoutError&) {
      ++count;
    }
  }(net, timeouts));
  eng.run();
  EXPECT_EQ(timeouts, 2);
  EXPECT_EQ(eng.now(), 2 * fab.params().op_timeout);
  EXPECT_EQ(fab.bytes_transferred(), 0u);
  const auto* errors =
      trace::Registry::global().find_counter("verbs.hca.remote_errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_EQ(errors->value, 2u);
  const auto* writes =
      trace::Registry::global().find_counter("verbs.raw_write.ops");
  ASSERT_NE(writes, nullptr);
  EXPECT_EQ(writes->value, 1u);
  EXPECT_EQ(net.hca(0).one_sided_ops(), 2u);
}

// --- wire encoder/decoder ---

TEST(WireTest, EncodeDecodeRoundTrip) {
  auto buf = Encoder().u8(3).u32(1234).u64(99999999999ULL).str("abc").take();
  Decoder dec(buf);
  EXPECT_EQ(dec.u8(), 3u);
  EXPECT_EQ(dec.u32(), 1234u);
  EXPECT_EQ(dec.u64(), 99999999999ULL);
  EXPECT_EQ(dec.str(), "abc");
  EXPECT_TRUE(dec.done());
}

TEST(WireTest, BytesRoundTrip) {
  std::vector<std::byte> blob(300);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::byte>(i & 0xff);
  }
  auto buf = Encoder().bytes(blob).take();
  Decoder dec(buf);
  EXPECT_EQ(dec.bytes(), blob);
}

TEST(WireTest, LoadStoreU64) {
  std::vector<std::byte> buf(16);
  store_u64(buf, 8, 0xdeadbeefULL);
  EXPECT_EQ(load_u64(buf, 8), 0xdeadbeefULL);
  EXPECT_EQ(load_u64(buf, 0), 0u);
}

}  // namespace
}  // namespace dcs::verbs
