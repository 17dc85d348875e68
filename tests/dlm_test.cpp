// Tests for the distributed lock managers: mutual exclusion, shared
// concurrency, FIFO-ish fairness, Figure 4 wire-level op counts, cascade
// shapes (Figure 5), and a randomized readers-writer stress invariant.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "dlm/dqnl.hpp"
#include "dlm/lock_manager.hpp"
#include "scenarios/scenarios.hpp"

namespace dcs::dlm {
namespace {

// Parameter names: gtest allows only alphanumerics ("N-CoSED" -> "NCoSED").
std::string scheme_name(Scheme s) {
  std::string name = to_string(s);
  std::erase(name, '-');
  return name;
}

struct World {
  sim::Engine eng;
  fabric::Fabric fab;
  verbs::Network net;
  std::unique_ptr<LockManager> mgr;

  explicit World(Scheme scheme, std::size_t nodes = 18)
      : fab(eng, fabric::FabricParams{},
            {.num_nodes = nodes, .cores_per_node = 2}),
        net(fab),
        mgr(make_lock_manager(scheme, net, 0)) {}
};

class DlmAllSchemes : public ::testing::TestWithParam<Scheme> {};
class DlmSharedSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(DlmAllSchemes, ExclusiveLockUnlockSingleNode) {
  World w(GetParam());
  bool done = false;
  w.eng.spawn([](LockManager& m, bool& d) -> sim::Task<void> {
    co_await m.lock_exclusive(1, 0);
    co_await m.unlock(1, 0);
    co_await m.lock_exclusive(1, 0);  // reacquirable after release
    co_await m.unlock(1, 0);
    d = true;
  }(*w.mgr, done));
  w.eng.run();
  EXPECT_TRUE(done);
}

TEST_P(DlmAllSchemes, ExclusiveExcludesConcurrentHolders) {
  World w(GetParam());
  int active = 0, peak = 0, completed = 0;
  for (NodeId n = 1; n <= 8; ++n) {
    w.eng.spawn([](World& world, NodeId self, int& act, int& pk, int& comp)
                    -> sim::Task<void> {
      co_await world.mgr->lock_exclusive(self, 3);
      ++act;
      pk = std::max(pk, act);
      co_await world.eng.delay(microseconds(20));
      --act;
      co_await world.mgr->unlock(self, 3);
      ++comp;
    }(w, n, active, peak, completed));
  }
  w.eng.run();
  EXPECT_EQ(peak, 1);
  EXPECT_EQ(completed, 8);
}

TEST_P(DlmAllSchemes, IndependentLocksDoNotInterfere) {
  World w(GetParam());
  SimNanos done_at = 0;
  // Two disjoint lock ids held simultaneously from different nodes.
  w.eng.spawn([](World& world, SimNanos& t) -> sim::Task<void> {
    co_await world.mgr->lock_exclusive(1, 10);
    co_await world.eng.delay(milliseconds(5));
    co_await world.mgr->unlock(1, 10);
    t = world.eng.now();
  }(w, done_at));
  SimNanos other_done = 0;
  w.eng.spawn([](World& world, SimNanos& t) -> sim::Task<void> {
    co_await world.mgr->lock_exclusive(2, 11);
    co_await world.eng.delay(milliseconds(5));
    co_await world.mgr->unlock(2, 11);
    t = world.eng.now();
  }(w, other_done));
  w.eng.run();
  // Overlapping hold times: both finish ~5 ms, not ~10 ms.
  EXPECT_LT(done_at, milliseconds(7));
  EXPECT_LT(other_done, milliseconds(7));
}

INSTANTIATE_TEST_SUITE_P(Schemes, DlmAllSchemes,
                         ::testing::Values(Scheme::kSrsl, Scheme::kDqnl,
                                           Scheme::kNcosed),
                         [](const auto& param_info) {
                           return scheme_name(param_info.param);
                         });

TEST_P(DlmSharedSchemes, SharedHoldersOverlap) {
  World w(GetParam());
  int active = 0, peak = 0;
  for (NodeId n = 1; n <= 6; ++n) {
    w.eng.spawn([](World& world, NodeId self, int& act, int& pk)
                    -> sim::Task<void> {
      co_await world.mgr->lock_shared(self, 0);
      ++act;
      pk = std::max(pk, act);
      co_await world.eng.delay(microseconds(100));
      --act;
      co_await world.mgr->unlock(self, 0);
    }(w, n, active, peak));
  }
  w.eng.run();
  EXPECT_EQ(peak, 6) << "all shared holders should overlap";
}

TEST_P(DlmSharedSchemes, SharedExcludedWhileExclusiveHeld) {
  World w(GetParam());
  std::vector<std::string> events;
  w.eng.spawn([](World& world, std::vector<std::string>& ev) -> sim::Task<void> {
    co_await world.mgr->lock_exclusive(1, 0);
    ev.push_back("X-acquire");
    co_await world.eng.delay(milliseconds(1));
    ev.push_back("X-release");
    co_await world.mgr->unlock(1, 0);
  }(w, events));
  w.eng.spawn([](World& world, std::vector<std::string>& ev) -> sim::Task<void> {
    co_await world.eng.delay(microseconds(50));  // arrive while X held
    co_await world.mgr->lock_shared(2, 0);
    ev.push_back("S-acquire");
    co_await world.mgr->unlock(2, 0);
  }(w, events));
  w.eng.run();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], "X-acquire");
  EXPECT_EQ(events[1], "X-release");
  EXPECT_EQ(events[2], "S-acquire");
}

TEST_P(DlmSharedSchemes, ExclusiveWaitsForAllSharedHolders) {
  World w(GetParam());
  int shared_active = 0;
  bool exclusive_ran = false;
  for (NodeId n = 1; n <= 4; ++n) {
    w.eng.spawn([](World& world, NodeId self, int& act, bool& xr)
                    -> sim::Task<void> {
      co_await world.mgr->lock_shared(self, 0);
      ++act;
      co_await world.eng.delay(milliseconds(1));
      --act;
      co_await world.mgr->unlock(self, 0);
      (void)xr;
    }(w, n, shared_active, exclusive_ran));
  }
  w.eng.spawn([](World& world, int& act, bool& xr) -> sim::Task<void> {
    co_await world.eng.delay(microseconds(100));  // let shared acquire
    co_await world.mgr->lock_exclusive(9, 0);
    if (act != 0) throw std::runtime_error("exclusive with live shared");
    xr = true;
    co_await world.mgr->unlock(9, 0);
  }(w, shared_active, exclusive_ran));
  w.eng.run();
  EXPECT_TRUE(exclusive_ran);
}

INSTANTIATE_TEST_SUITE_P(Schemes, DlmSharedSchemes,
                         ::testing::Values(Scheme::kSrsl, Scheme::kNcosed),
                         [](const auto& param_info) {
                           return scheme_name(param_info.param);
                         });

TEST(DlmDqnlTest, SharedRequestsSerializeLikeExclusive) {
  // DQNL's defining weakness: readers do not overlap.
  World w(Scheme::kDqnl);
  int active = 0, peak = 0;
  for (NodeId n = 1; n <= 4; ++n) {
    w.eng.spawn([](World& world, NodeId self, int& act, int& pk)
                    -> sim::Task<void> {
      co_await world.mgr->lock_shared(self, 0);
      ++act;
      pk = std::max(pk, act);
      co_await world.eng.delay(microseconds(100));
      --act;
      co_await world.mgr->unlock(self, 0);
    }(w, n, active, peak));
  }
  w.eng.run();
  EXPECT_EQ(peak, 1);
}


TEST(DlmDqnlTest, CasRetriesCountedUnderContention) {
  World w(Scheme::kDqnl);
  auto* dqnl = dynamic_cast<DqnlLockManager*>(w.mgr.get());
  ASSERT_NE(dqnl, nullptr);
  for (NodeId n = 1; n <= 6; ++n) {
    w.eng.spawn([](World& world, NodeId self) -> sim::Task<void> {
      for (int i = 0; i < 10; ++i) {
        co_await world.mgr->lock_exclusive(self, 0);
        co_await world.mgr->unlock(self, 0);
      }
    }(w, n));
  }
  w.eng.run();
  // Tail-swap races are expected when 6 nodes hammer one word.
  EXPECT_GT(dqnl->cas_retries(), 0u);
}

// --- Figure 4 wire-level traces ---

TEST(DlmFig4Test, ExclusiveOnFreeLockIsOneAtomic) {
  World w(Scheme::kNcosed);
  const auto before = w.net.hca(1).one_sided_ops();
  w.eng.spawn([](World& world) -> sim::Task<void> {
    co_await world.mgr->lock_exclusive(1, 0);
  }(w));
  w.eng.run();
  // Figure 4a: uncontended exclusive acquire = exactly one CAS.
  EXPECT_EQ(w.net.hca(1).one_sided_ops() - before, 1u);
  EXPECT_EQ(w.net.hca(1).messages_sent(), 0u);
}

TEST(DlmFig4Test, SharedOnFreeLockIsOneAtomic) {
  World w(Scheme::kNcosed);
  const auto before = w.net.hca(2).one_sided_ops();
  w.eng.spawn([](World& world) -> sim::Task<void> {
    co_await world.mgr->lock_shared(2, 0);
  }(w));
  w.eng.run();
  // Figure 4b: uncontended shared acquire = exactly one FAA.
  EXPECT_EQ(w.net.hca(2).one_sided_ops() - before, 1u);
  EXPECT_EQ(w.net.hca(2).messages_sent(), 0u);
}

TEST(DlmFig4Test, SharedUnlockIsOneAtomic) {
  World w(Scheme::kNcosed);
  w.eng.spawn([](World& world) -> sim::Task<void> {
    co_await world.mgr->lock_shared(2, 0);
  }(w));
  w.eng.run();
  const auto before = w.net.hca(2).one_sided_ops();
  w.eng.spawn([](World& world) -> sim::Task<void> {
    co_await world.mgr->unlock(2, 0);
  }(w));
  w.eng.run();
  EXPECT_EQ(w.net.hca(2).one_sided_ops() - before, 1u);
}

TEST(DlmFig4Test, HomeNodeCpuIdleForUncontendedNcosed) {
  World w(Scheme::kNcosed);
  w.eng.spawn([](World& world) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await world.mgr->lock_exclusive(1, 0);
      co_await world.mgr->unlock(1, 0);
    }
  }(w));
  w.eng.run();
  EXPECT_EQ(w.fab.node(0).busy_ns(), 0u) << "lock home must not burn CPU";
}

TEST(DlmFig4Test, SrslBurnsServerCpu) {
  World w(Scheme::kSrsl);
  w.eng.spawn([](World& world) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await world.mgr->lock_exclusive(1, 0);
      co_await world.mgr->unlock(1, 0);
    }
  }(w));
  w.eng.run();
  EXPECT_GT(w.fab.node(0).busy_ns(), 0u);
}

// --- cascade shapes (Figure 5) ---

// Microseconds from the moment the long-held lock is released until the
// last of `waiters` pending requests is granted: the Figure 5 cascade.
double cascade_latency(Scheme scheme, LockMode mode, int waiters) {
  World w(scheme);
  return scenarios::run_lock_cascade(w.eng, *w.mgr, mode, waiters)
      .cascade_us();
}

TEST(DlmCascadeTest, SharedCascadeNcosedBeatsDqnlAndSrsl) {
  // Figure 5a: 8 shared waiters behind one exclusive holder.
  const auto nc = cascade_latency(Scheme::kNcosed, LockMode::kShared, 8);
  const auto dq = cascade_latency(Scheme::kDqnl, LockMode::kShared, 8);
  const auto sr = cascade_latency(Scheme::kSrsl, LockMode::kShared, 8);
  EXPECT_LT(nc, dq);
  EXPECT_LT(nc, sr);
  // DQNL serializes shared grants: the gap should be large (paper: ~317 %).
  EXPECT_GT(dq / nc, 2.0);
}

TEST(DlmCascadeTest, ExclusiveCascadeNcosedBeatsSrsl) {
  // Figure 5b: exclusive chain; N-CoSED hands off directly, SRSL pays the
  // server round trip per grant.
  const auto nc = cascade_latency(Scheme::kNcosed, LockMode::kExclusive, 8);
  const auto sr = cascade_latency(Scheme::kSrsl, LockMode::kExclusive, 8);
  EXPECT_LT(nc, sr);
}

TEST(DlmCascadeTest, SharedCascadeGrowsSublinearlyForNcosed) {
  const auto at2 = cascade_latency(Scheme::kNcosed, LockMode::kShared, 2);
  const auto at16 = cascade_latency(Scheme::kNcosed, LockMode::kShared, 16);
  // 8x the waiters must cost far less than 8x the cascade latency.
  EXPECT_LT(at16, 4 * at2);
}

// --- randomized stress: readers-writer invariant across schemes ---

// gtest names each case with a byte dump of this struct, so the gap between
// `scheme` and `seed` is an explicit zero field: implicit padding would leak
// uninitialised (address-dependent) bytes into the test names.
struct StressCase {
  StressCase(Scheme s, std::uint64_t sd) : scheme(s), seed(sd) {}
  Scheme scheme;
  std::uint32_t zero_pad = 0;
  std::uint64_t seed;
};
static_assert(sizeof(StressCase) == 16, "no implicit padding in StressCase");

class DlmStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(DlmStress, ReadersWriterInvariantHolds) {
  const auto param = GetParam();
  World w(param.scheme, 10);
  int readers = 0, writers = 0;
  bool violation = false;
  for (NodeId n = 1; n <= 8; ++n) {
    w.eng.spawn([](World& world, NodeId self, std::uint64_t seed, int& r,
                   int& wr, bool& bad) -> sim::Task<void> {
      Rng rng(seed ^ (self * 7919));
      for (int i = 0; i < 30; ++i) {
        co_await world.eng.delay(microseconds(rng.uniform(1, 200)));
        const bool shared = rng.chance(0.6);
        if (shared) {
          co_await world.mgr->lock_shared(self, 1);
          ++r;
          if (wr != 0) bad = true;
        } else {
          co_await world.mgr->lock_exclusive(self, 1);
          ++wr;
          if (r != 0 || wr != 1) bad = true;
        }
        co_await world.eng.delay(microseconds(rng.uniform(1, 50)));
        if (shared) {
          --r;
        } else {
          --wr;
        }
        co_await world.mgr->unlock(self, 1);
      }
    }(w, n, param.seed, readers, writers, violation));
  }
  w.eng.run();
  EXPECT_FALSE(violation);
  EXPECT_EQ(readers, 0);
  EXPECT_EQ(writers, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DlmStress,
    ::testing::Values(StressCase{Scheme::kSrsl, 1},
                      StressCase{Scheme::kSrsl, 2},
                      StressCase{Scheme::kNcosed, 1},
                      StressCase{Scheme::kNcosed, 2},
                      StressCase{Scheme::kNcosed, 3},
                      StressCase{Scheme::kDqnl, 1}),
    [](const auto& param_info) {
      return std::string(scheme_name(param_info.param.scheme)) + "_seed" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace dcs::dlm
