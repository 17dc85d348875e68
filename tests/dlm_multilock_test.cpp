// Multi-lock stress for the lock managers: many locks, ordered acquisition
// of lock sets (deadlock-free by discipline), fairness/progress, and
// mixed shared/exclusive hierarchies.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "dlm/lock_manager.hpp"
#include "dlm/ncosed.hpp"

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

  explicit World(Scheme scheme, std::size_t nodes = 10)
      : fab(eng, fabric::FabricParams{},
            {.num_nodes = nodes, .cores_per_node = 2}),
        net(fab),
        mgr(make_lock_manager(scheme, net, 0)) {}
};

class MultiLock : public ::testing::TestWithParam<Scheme> {};

TEST_P(MultiLock, OrderedTwoLockTransactionsNeverDeadlock) {
  // Classic bank-transfer pattern: lock min(id) then max(id).  With the
  // ordering discipline the run must complete (the engine would otherwise
  // quiesce with parked coroutines and completed < expected).
  World w(GetParam());
  int completed = 0;
  constexpr int kWorkers = 6, kTxEach = 12;
  for (int worker = 0; worker < kWorkers; ++worker) {
    w.eng.spawn([](World& world, fabric::NodeId self, int& done)
                    -> sim::Task<void> {
      Rng rng(400 + self);
      for (int tx = 0; tx < kTxEach; ++tx) {
        LockId a = static_cast<LockId>(rng.uniform(6));
        LockId b = static_cast<LockId>(rng.uniform(6));
        if (a == b) b = (b + 1) % 6;
        const LockId first = std::min(a, b), second = std::max(a, b);
        co_await world.mgr->lock_exclusive(self, first);
        co_await world.mgr->lock_exclusive(self, second);
        co_await world.eng.delay(microseconds(10));
        co_await world.mgr->unlock(self, second);
        co_await world.mgr->unlock(self, first);
        ++done;
      }
    }(w, static_cast<fabric::NodeId>(1 + worker), completed));
  }
  w.eng.run();
  EXPECT_EQ(completed, kWorkers * kTxEach);
}

TEST_P(MultiLock, PerLockMutualExclusionAcrossManyLocks) {
  World w(GetParam());
  constexpr int kLocks = 8;
  std::vector<int> holders(kLocks, 0);
  bool violation = false;
  for (int worker = 0; worker < 8; ++worker) {
    w.eng.spawn([](World& world, fabric::NodeId self,
                   std::vector<int>& h, bool& bad) -> sim::Task<void> {
      Rng rng(700 + self);
      for (int i = 0; i < 20; ++i) {
        const LockId id = static_cast<LockId>(rng.uniform(kLocks));
        co_await world.mgr->lock_exclusive(self, id);
        if (++h[id] != 1) bad = true;
        co_await world.eng.delay(microseconds(rng.uniform(1, 30)));
        --h[id];
        co_await world.mgr->unlock(self, id);
      }
    }(w, static_cast<fabric::NodeId>(1 + worker), holders, violation));
  }
  w.eng.run();
  EXPECT_FALSE(violation);
}

TEST_P(MultiLock, EveryWaiterEventuallyGranted) {
  // Progress/no-starvation: under sustained contention on one lock, every
  // requester completes all its acquisitions.
  World w(GetParam());
  std::vector<int> done(9, 0);
  for (int worker = 0; worker < 8; ++worker) {
    w.eng.spawn([](World& world, fabric::NodeId self,
                   std::vector<int>& d) -> sim::Task<void> {
      for (int i = 0; i < 15; ++i) {
        co_await world.mgr->lock_exclusive(self, 0);
        co_await world.eng.delay(microseconds(5));
        co_await world.mgr->unlock(self, 0);
        ++d[self];
      }
    }(w, static_cast<fabric::NodeId>(1 + worker), done));
  }
  w.eng.run();
  for (int worker = 1; worker <= 8; ++worker) {
    EXPECT_EQ(done[worker], 15) << "node " << worker << " starved";
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, MultiLock,
                         ::testing::Values(Scheme::kSrsl, Scheme::kDqnl,
                                           Scheme::kNcosed),
                         [](const auto& param_info) {
                           return scheme_name(param_info.param);
                         });

TEST(MultiLockNcosed, ReaderBatchesBetweenWriters) {
  // Writers W1, W2 and a crowd of readers: each writer's critical section
  // must be preceded by a fully drained reader epoch; readers admitted
  // between writers run concurrently.
  World w(Scheme::kNcosed);
  int readers_now = 0, writers_now = 0, max_readers = 0;
  bool overlap = false;
  for (int r = 0; r < 5; ++r) {
    w.eng.spawn([](World& world, fabric::NodeId self, int& rd, int& wr,
                   int& mx, bool& bad) -> sim::Task<void> {
      Rng rng(40 + self);
      for (int i = 0; i < 10; ++i) {
        co_await world.eng.delay(microseconds(rng.uniform(1, 120)));
        co_await world.mgr->lock_shared(self, 0);
        ++rd;
        mx = std::max(mx, rd);
        if (wr != 0) bad = true;
        co_await world.eng.delay(microseconds(15));
        --rd;
        co_await world.mgr->unlock(self, 0);
      }
    }(w, static_cast<fabric::NodeId>(1 + r), readers_now, writers_now,
      max_readers, overlap));
  }
  for (int wtr = 0; wtr < 2; ++wtr) {
    w.eng.spawn([](World& world, fabric::NodeId self, int& rd, int& wr,
                   bool& bad) -> sim::Task<void> {
      Rng rng(80 + self);
      for (int i = 0; i < 8; ++i) {
        co_await world.eng.delay(microseconds(rng.uniform(1, 150)));
        co_await world.mgr->lock_exclusive(self, 0);
        ++wr;
        if (rd != 0 || wr != 1) bad = true;
        co_await world.eng.delay(microseconds(20));
        --wr;
        co_await world.mgr->unlock(self, 0);
      }
    }(w, static_cast<fabric::NodeId>(6 + wtr), readers_now, writers_now,
      overlap));
  }
  w.eng.run();
  EXPECT_FALSE(overlap);
  EXPECT_GT(max_readers, 1) << "readers should overlap at least once";
}

TEST(MultiLockNcosed, DrainPollsOnlyWhenSharedHeld) {
  World w(Scheme::kNcosed);
  auto* nc = dynamic_cast<NcosedLockManager*>(w.mgr.get());
  ASSERT_NE(nc, nullptr);
  // Pure exclusive ping-pong: no shared epoch to drain, so no polling.
  w.eng.spawn([](World& world) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await world.mgr->lock_exclusive(1, 0);
      co_await world.mgr->unlock(1, 0);
    }
  }(w));
  w.eng.run();
  EXPECT_EQ(nc->drain_polls(), 0u);
}


TEST(MultiLockLoadTest, SrslDegradesWithServerLoadNcosedDoesNot) {
  // The paper's core motivation for one-sided locking: SRSL's grants run
  // through a server process that competes for CPU with application work;
  // N-CoSED's atomics never touch the home node's CPU.
  auto lock_latency = [](Scheme scheme, bool loaded) {
    World w(scheme, 6);
    if (loaded) {
      for (int j = 0; j < 6; ++j) {
        w.eng.spawn(w.fab.node(0).execute(seconds(1)));  // busy lock home
      }
    }
    SimNanos lat = 0;
    w.eng.spawn([](World& world, SimNanos& out) -> sim::Task<void> {
      co_await world.eng.delay(milliseconds(1));
      const auto t0 = world.eng.now();
      for (int i = 0; i < 5; ++i) {
        co_await world.mgr->lock_exclusive(1, 0);
        co_await world.mgr->unlock(1, 0);
      }
      out = (world.eng.now() - t0) / 5;
    }(w, lat));
    w.eng.run_until(milliseconds(500));
    DCS_CHECK(lat != 0);
    return lat;
  };
  const auto srsl_idle = lock_latency(Scheme::kSrsl, false);
  const auto srsl_loaded = lock_latency(Scheme::kSrsl, true);
  const auto nc_idle = lock_latency(Scheme::kNcosed, false);
  const auto nc_loaded = lock_latency(Scheme::kNcosed, true);
  EXPECT_GT(srsl_loaded, 5 * srsl_idle)
      << "server-based locking should collapse under home-node load";
  EXPECT_EQ(nc_loaded, nc_idle)
      << "one-sided locking must be exactly load-independent";
}

}  // namespace
}  // namespace dcs::dlm
