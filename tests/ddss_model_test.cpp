// Model-based property tests for DDSS: random operation sequences are
// replayed against an in-memory reference model; the substrate's behaviour
// must match the model within each coherence contract.
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "common/rng.hpp"
#include "ddss/ddss.hpp"

namespace dcs::ddss {
namespace {

struct ModelWorld {
  sim::Engine eng;
  fabric::Fabric fab{eng, fabric::FabricParams{},
                     {.num_nodes = 4, .cores_per_node = 2,
                      .mem_per_node = 2u << 20}};
  verbs::Network net{fab};
  Ddss ddss{net};

  ModelWorld() { ddss.start(); }
};

std::vector<std::byte> value_of(std::uint64_t tag, std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((tag * 31 + i) & 0xff);
  }
  return v;
}

// --- Sequential consistency against the reference model --------------------
//
// With a single logical writer at a time (ops are issued sequentially from
// the driver), EVERY coherence model must return the last written value on
// get (temporal only after its TTL).  The reference model is a simple map.

// gtest names each case by dumping its bytes, so no byte may be implicit
// padding: uninitialised padding would make the names vary between runs.
struct SeqCase {
  SeqCase(Coherence m, std::uint64_t sd) : model(m), seed(sd) {}
  Coherence model;
  std::uint8_t zero_pad[7] = {};
  std::uint64_t seed;
};
static_assert(sizeof(SeqCase) == 16, "no implicit padding in SeqCase");

class DdssSequentialModel : public ::testing::TestWithParam<SeqCase> {};

TEST_P(DdssSequentialModel, RandomOpsMatchReference) {
  const auto param = GetParam();
  ModelWorld w;
  bool mismatch = false;
  w.eng.spawn([](ModelWorld& world, Coherence model, std::uint64_t seed,
                 bool& bad) -> sim::Task<void> {
    Rng rng(seed);
    constexpr std::size_t kSlots = 6;
    constexpr std::size_t kBytes = 48;
    std::vector<Allocation> allocs;
    std::map<std::size_t, std::uint64_t> reference;  // slot -> last tag

    auto client0 = world.ddss.client(0);
    for (std::size_t s = 0; s < kSlots; ++s) {
      allocs.push_back(co_await client0.allocate(
          kBytes, model,
          s % 2 == 0 ? Placement::kLocal : Placement::kRoundRobin));
    }

    std::uint64_t next_tag = 1;
    for (int op = 0; op < 120; ++op) {
      const auto slot = rng.uniform(kSlots);
      auto client = world.ddss.client(
          static_cast<fabric::NodeId>(rng.uniform(4)), 0);
      if (rng.chance(0.5) || !reference.contains(slot)) {
        const auto tag = next_tag++;
        co_await client.put(allocs[slot], value_of(tag, kBytes));
        reference[slot] = tag;
        // Temporal coherence allows bounded staleness; flush it so the
        // sequential contract below stays exact for every model.
        if (model == Coherence::kTemporal) {
          co_await world.eng.delay(world.ddss.config().temporal_ttl + 1);
        }
      } else {
        std::vector<std::byte> got(kBytes);
        co_await client.get(allocs[slot], got);
        if (got != value_of(reference[slot], kBytes)) bad = true;
      }
    }
    for (auto& a : allocs) co_await client0.release(std::move(a));
  }(w, param.model, param.seed, mismatch));
  w.eng.run();
  EXPECT_FALSE(mismatch);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DdssSequentialModel,
    ::testing::Values(SeqCase{Coherence::kNull, 1},
                      SeqCase{Coherence::kRead, 1},
                      SeqCase{Coherence::kWrite, 1},
                      SeqCase{Coherence::kStrict, 1},
                      SeqCase{Coherence::kVersion, 1},
                      SeqCase{Coherence::kTemporal, 1},
                      SeqCase{Coherence::kStrict, 2},
                      SeqCase{Coherence::kVersion, 2},
                      SeqCase{Coherence::kNull, 3}),
    [](const auto& param_info) {
      return std::string(to_string(param_info.param.model)) + "_seed" +
             std::to_string(param_info.param.seed);
    });

// --- Version monotonicity under concurrent writers -------------------------

TEST(DdssConcurrentModel, VersionsMonotonicAndCountWrites) {
  ModelWorld w;
  Allocation alloc;
  w.eng.spawn([](ModelWorld& world, Allocation& a) -> sim::Task<void> {
    auto c = world.ddss.client(0);
    a = co_await c.allocate(32, Coherence::kVersion);
  }(w, alloc));
  w.eng.run();

  constexpr int kWritesPerNode = 25;
  for (fabric::NodeId n = 0; n < 4; ++n) {
    w.eng.spawn([](ModelWorld& world, fabric::NodeId self,
                   const Allocation& a) -> sim::Task<void> {
      auto c = world.ddss.client(self);
      for (int i = 0; i < kWritesPerNode; ++i) {
        co_await c.put(a, std::vector<std::byte>(32, std::byte{0xEE}));
      }
    }(w, n, alloc));
  }
  // A sampler verifies version values never decrease.
  bool decreased = false;
  w.eng.spawn([](ModelWorld& world, const Allocation& a, bool& bad)
                  -> sim::Task<void> {
    auto c = world.ddss.client(3);
    std::uint64_t prev = 0;
    for (int i = 0; i < 50; ++i) {
      co_await world.eng.delay(microseconds(20));
      const auto v = co_await c.version(a);
      if (v < prev) bad = true;
      prev = v;
    }
  }(w, alloc, decreased));
  w.eng.run();
  EXPECT_FALSE(decreased);

  std::uint64_t final_version = 0;
  w.eng.spawn([](ModelWorld& world, const Allocation& a, std::uint64_t& out)
                  -> sim::Task<void> {
    auto c = world.ddss.client(0);
    out = co_await c.version(a);
  }(w, alloc, final_version));
  w.eng.run();
  EXPECT_EQ(final_version, 4u * kWritesPerNode);
}

// --- get_versioned returns an untorn (version, value) pair -----------------

TEST(DdssConcurrentModel, VersionedReadsNeverTorn) {
  // Writers continuously store value_of(version+1); a reader's
  // get_versioned must always see value == value_of(version).
  ModelWorld w;
  Allocation alloc;
  w.eng.spawn([](ModelWorld& world, Allocation& a) -> sim::Task<void> {
    auto c = world.ddss.client(0);
    a = co_await c.allocate(64, Coherence::kVersion);
    co_await c.put(a, value_of(1, 64));  // version becomes 1
  }(w, alloc));
  w.eng.run();

  bool torn = false;
  bool writers_done = false;
  w.eng.spawn([](ModelWorld& world, const Allocation& a, bool& done)
                  -> sim::Task<void> {
    auto c = world.ddss.client(1);
    for (std::uint64_t i = 2; i <= 40; ++i) {
      co_await c.put(a, value_of(i, 64));
      co_await world.eng.delay(microseconds(7));
    }
    done = true;
  }(w, alloc, writers_done));
  w.eng.spawn([](ModelWorld& world, const Allocation& a, bool& bad,
                 const bool& done) -> sim::Task<void> {
    auto c = world.ddss.client(2);
    while (!done) {
      std::vector<std::byte> got(64);
      const auto version = co_await c.get_versioned(a, got);
      if (got != value_of(version, 64)) bad = true;
      co_await world.eng.delay(microseconds(3));
    }
  }(w, alloc, torn, writers_done));
  w.eng.run();
  EXPECT_FALSE(torn) << "get_versioned returned a torn (version,value) pair";
}

// --- memory accounting: allocate/release cycles leak nothing ---------------

TEST(DdssConcurrentModel, NoLeakAcrossRandomAllocFreeCycles) {
  ModelWorld w;
  std::vector<std::size_t> used_before(4);
  for (fabric::NodeId n = 0; n < 4; ++n) {
    used_before[n] = w.fab.node(n).memory().used();
  }
  w.eng.spawn([](ModelWorld& world) -> sim::Task<void> {
    Rng rng(55);
    std::vector<Allocation> live;
    auto c = world.ddss.client(1);
    for (int i = 0; i < 80; ++i) {
      if (live.empty() || rng.chance(0.55)) {
        const auto model = static_cast<Coherence>(rng.uniform(7));
        const auto placement = static_cast<Placement>(rng.uniform(4));
        live.push_back(co_await c.allocate(
            16 + rng.uniform(1000), model, placement));
      } else {
        const auto idx = rng.uniform(live.size());
        co_await c.release(std::move(live[idx]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    }
    for (auto& a : live) co_await c.release(std::move(a));
  }(w));
  w.eng.run();
  for (fabric::NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(w.fab.node(n).memory().used(), used_before[n]) << "node " << n;
  }
}


// --- wait_version: producer/consumer notification ---------------------------

TEST(DdssConcurrentModel, WaitVersionWakesOnProducerUpdate) {
  ModelWorld w;
  Allocation alloc;
  w.eng.spawn([](ModelWorld& world, Allocation& a) -> sim::Task<void> {
    auto c = world.ddss.client(0);
    a = co_await c.allocate(16, Coherence::kVersion);
  }(w, alloc));
  w.eng.run();

  SimNanos woke_at = 0;
  std::uint64_t woke_version = 0;
  // Consumer waits for version >= 3; producer publishes every 100 us.
  w.eng.spawn([](ModelWorld& world, const Allocation& a, SimNanos& at,
                 std::uint64_t& v) -> sim::Task<void> {
    auto c = world.ddss.client(2);
    v = co_await c.wait_version(a, 3);
    at = world.eng.now();
  }(w, alloc, woke_at, woke_version));
  w.eng.spawn([](ModelWorld& world, const Allocation& a) -> sim::Task<void> {
    auto c = world.ddss.client(1);
    for (int i = 0; i < 5; ++i) {
      co_await world.eng.delay(microseconds(100));
      co_await c.put(a, value_of(i, 16));
    }
  }(w, alloc));
  w.eng.run();
  EXPECT_GE(woke_version, 3u);
  // Third put lands ~300 us in; the waiter wakes shortly after, long
  // before the producer finishes.
  EXPECT_GE(woke_at, microseconds(300));
  EXPECT_LT(woke_at, microseconds(450));
}

TEST(DdssConcurrentModel, WaitVersionReturnsImmediatelyWhenSatisfied) {
  ModelWorld w;
  SimNanos elapsed = 0;
  w.eng.spawn([](ModelWorld& world, SimNanos& t) -> sim::Task<void> {
    auto c = world.ddss.client(0);
    auto a = co_await c.allocate(16, Coherence::kVersion);
    co_await c.put(a, value_of(1, 16));
    const auto t0 = world.eng.now();
    (void)co_await c.wait_version(a, 1);
    t = world.eng.now() - t0;
  }(w, elapsed));
  w.eng.run();
  // One version read, no backoff loop.
  EXPECT_LT(elapsed, microseconds(10));
}


// --- remote atomics on shared data -------------------------------------------

TEST(DdssAtomicsTest, FetchAddCountsExactlyAcrossNodes) {
  ModelWorld w;
  Allocation alloc;
  w.eng.spawn([](ModelWorld& world, Allocation& a) -> sim::Task<void> {
    auto c = world.ddss.client(0);
    a = co_await c.allocate(16, Coherence::kNull);
    co_await c.put(a, std::vector<std::byte>(16, std::byte{0}));
  }(w, alloc));
  w.eng.run();
  for (fabric::NodeId n = 0; n < 4; ++n) {
    w.eng.spawn([](ModelWorld& world, fabric::NodeId self,
                   const Allocation& a) -> sim::Task<void> {
      auto c = world.ddss.client(self);
      for (int i = 0; i < 50; ++i) {
        (void)co_await c.fetch_add(a, 8, 2);
      }
    }(w, n, alloc));
  }
  w.eng.run();
  std::uint64_t total = 0;
  w.eng.spawn([](ModelWorld& world, const Allocation& a, std::uint64_t& out)
                  -> sim::Task<void> {
    auto c = world.ddss.client(0);
    std::vector<std::byte> buf(16);
    co_await c.get(a, buf);
    std::memcpy(&out, buf.data() + 8, 8);
  }(w, alloc, total));
  w.eng.run();
  EXPECT_EQ(total, 4u * 50u * 2u);
}

TEST(DdssAtomicsTest, CompareSwapElectsOneWinner) {
  ModelWorld w;
  Allocation alloc;
  int winners = 0;
  w.eng.spawn([](ModelWorld& world, Allocation& a) -> sim::Task<void> {
    auto c = world.ddss.client(0);
    a = co_await c.allocate(8, Coherence::kNull);
    co_await c.put(a, std::vector<std::byte>(8, std::byte{0}));
  }(w, alloc));
  w.eng.run();
  for (fabric::NodeId n = 0; n < 4; ++n) {
    w.eng.spawn([](ModelWorld& world, fabric::NodeId self,
                   const Allocation& a, int& wins) -> sim::Task<void> {
      auto c = world.ddss.client(self);
      const auto old = co_await c.compare_swap(a, 0, 0, self + 100);
      if (old == 0) ++wins;
    }(w, n, alloc, winners));
  }
  w.eng.run();
  EXPECT_EQ(winners, 1);
}

TEST(DdssAtomicsTest, MisalignedAtomicRejected) {
  ModelWorld w;
  bool caught = false;
  w.eng.spawn([](ModelWorld& world, bool& c) -> sim::Task<void> {
    auto client = world.ddss.client(0);
    auto a = co_await client.allocate(16, Coherence::kNull);
    try {
      (void)co_await client.fetch_add(a, 3, 1);
    } catch (const verbs::RemoteAccessError&) {
      c = true;
    }
  }(w, caught));
  w.eng.run();
  EXPECT_TRUE(caught);
}

}  // namespace
}  // namespace dcs::ddss
