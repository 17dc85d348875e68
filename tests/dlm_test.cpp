// Tests for the distributed lock managers: mutual exclusion, shared
// concurrency, FIFO-ish fairness, Figure 4 wire-level op counts, cascade
// shapes (Figure 5), a randomized readers-writer stress invariant, and the
// node-local cohort every scheme sits behind.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "audit/audit.hpp"
#include "common/rng.hpp"
#include "dlm/cohort.hpp"
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
  audit::Auditor auditor{eng, {.on_violation = audit::OnViolation::kCount}};
  fabric::Fabric fab;
  verbs::Network net;
  std::unique_ptr<LockManager> mgr;

  /// `audited`: the auditor is installed before the manager exists, so it
  /// knows the lock table's sync range.
  explicit World(Scheme scheme, std::size_t nodes = 18, bool audited = false)
      : fab(eng, fabric::FabricParams{},
            {.num_nodes = nodes, .cores_per_node = 2}),
        net(fab) {
    if (audited) auditor.install();
    mgr = make_lock_manager(scheme, net, 0);
  }

  std::string first_report() const {
    return auditor.report_count() > 0 ? auditor.reports()[0].message : "";
  }
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

TEST(DlmDqnlTest, UnlockLeavesNoEmptyMailboxBehind) {
  // DQNL's unlock polls its WAIT tag with try_recv; a miss must not create
  // that tag's mailbox, so uncontended lock/unlock of many ids leaves the
  // node's mailbox count where it started.
  World w(Scheme::kDqnl);
  verbs::Hca& hca = w.net.hca(1);
  std::size_t before = 0;
  std::size_t after = 0;
  w.eng.spawn([](World& world, verbs::Hca& h, std::size_t& b,
                 std::size_t& a) -> sim::Task<void> {
    b = h.mailbox_count();
    for (LockId id = 0; id < 10; ++id) {
      co_await world.mgr->lock_exclusive(1, id);
      co_await world.mgr->unlock(1, id);
    }
    a = h.mailbox_count();
  }(w, hca, before, after));
  w.eng.run();
  EXPECT_EQ(after, before);
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

TEST(DlmFig4Test, SharedTenureOfOneNodeIsOneFaaEachWay) {
  // K shared requests of one node share one tenure of its hold: Figure 4b's
  // one FAA to acquire and one FAA to release, however many strands read.
  constexpr int kReaders = 4;
  World w(Scheme::kNcosed);
  const auto before = w.net.hca(2).one_sided_ops();
  for (int i = 0; i < kReaders; ++i) {
    w.eng.spawn([](World& world) -> sim::Task<void> {
      co_await world.mgr->lock_shared(2, 0);
    }(w));
  }
  w.eng.run();
  EXPECT_EQ(w.net.hca(2).one_sided_ops() - before, 1u);
  const auto held = w.net.hca(2).one_sided_ops();
  for (int i = 0; i < kReaders; ++i) {
    w.eng.spawn([](World& world) -> sim::Task<void> {
      co_await world.mgr->unlock(2, 0);
    }(w));
  }
  w.eng.run();
  EXPECT_EQ(w.net.hca(2).one_sided_ops() - held, 1u);
  EXPECT_EQ(w.net.hca(2).messages_sent(), 0u);
  EXPECT_EQ(w.mgr->lock_cohorts(), 0u);
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

std::string stress_name(const ::testing::TestParamInfo<StressCase>& info) {
  return scheme_name(info.param.scheme) + "_seed" +
         std::to_string(info.param.seed);
}

struct StressOutcome {
  int readers = 0;  // strands in a shared hold now
  int writers = 0;  // strands in an exclusive hold now
  int sections = 0;  // holds completed
  bool violation = false;
};

/// `strands` strands on each of nodes 1..8 take lock 1 thirty times each,
/// 60 % shared, and check the readers-writer invariant inside every hold.
StressOutcome run_stress(World& w, std::uint64_t seed, int strands) {
  StressOutcome out;
  for (NodeId n = 1; n <= 8; ++n) {
    for (int k = 0; k < strands; ++k) {
      w.eng.spawn([](World& world, NodeId self, std::uint64_t sd,
                     StressOutcome& o) -> sim::Task<void> {
        Rng rng(sd);
        for (int i = 0; i < 30; ++i) {
          co_await world.eng.delay(microseconds(rng.uniform(1, 200)));
          const bool shared = rng.chance(0.6);
          if (shared) {
            co_await world.mgr->lock_shared(self, 1);
            ++o.readers;
            if (o.writers != 0) o.violation = true;
          } else {
            co_await world.mgr->lock_exclusive(self, 1);
            ++o.writers;
            if (o.readers != 0 || o.writers != 1) o.violation = true;
          }
          co_await world.eng.delay(microseconds(rng.uniform(1, 50)));
          if (shared) {
            --o.readers;
          } else {
            --o.writers;
          }
          co_await world.mgr->unlock(self, 1);
          ++o.sections;
        }
      }(w, n, seed ^ (n * 7919) ^ (k * 104729), out));
    }
  }
  w.eng.run();
  return out;
}

class DlmStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(DlmStress, ReadersWriterInvariantHolds) {
  const auto param = GetParam();
  World w(param.scheme, 10);
  const StressOutcome out = run_stress(w, param.seed, 1);
  EXPECT_FALSE(out.violation);
  EXPECT_EQ(out.readers, 0);
  EXPECT_EQ(out.writers, 0);
  EXPECT_EQ(out.sections, 8 * 30);
  EXPECT_EQ(w.mgr->lock_cohorts(), 0u);
}

/// Four strands per node: a node's strands meet in its cohort, so every
/// scheme still sees one request per node per lock at a time.
class DlmCohortStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(DlmCohortStress, FourStrandsPerNodeKeepTheInvariant) {
  const auto param = GetParam();
  World w(param.scheme, 10, /*audited=*/true);
  const StressOutcome out = run_stress(w, param.seed, 4);
  EXPECT_FALSE(out.violation);
  EXPECT_EQ(out.readers, 0);
  EXPECT_EQ(out.writers, 0);
  EXPECT_EQ(out.sections, 8 * 4 * 30);
  EXPECT_EQ(w.mgr->lock_cohorts(), 0u);
  EXPECT_EQ(w.auditor.report_count(), 0u) << w.first_report();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DlmStress,
    ::testing::Values(StressCase{Scheme::kSrsl, 1},
                      StressCase{Scheme::kSrsl, 2},
                      StressCase{Scheme::kNcosed, 1},
                      StressCase{Scheme::kNcosed, 2},
                      StressCase{Scheme::kNcosed, 3},
                      StressCase{Scheme::kDqnl, 1}),
    stress_name);

INSTANTIATE_TEST_SUITE_P(
    Sweep, DlmCohortStress,
    ::testing::Values(StressCase{Scheme::kSrsl, 1},
                      StressCase{Scheme::kSrsl, 2},
                      StressCase{Scheme::kNcosed, 1},
                      StressCase{Scheme::kNcosed, 2},
                      StressCase{Scheme::kDqnl, 1},
                      StressCase{Scheme::kDqnl, 2}),
    stress_name);

// --- the node-local cohort ---

class DlmDeathTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(DlmDeathTest, UnlockWithoutHoldAborts) {
  World w(GetParam());
  w.eng.spawn([](LockManager& m) -> sim::Task<void> {
    co_await m.lock_exclusive(1, 0);
  }(*w.mgr));
  w.eng.run();
  // Node 1 holds lock 0; node 2 neither holds nor waits for it.
  EXPECT_DEATH(
      {
        w.eng.spawn([](LockManager& m) -> sim::Task<void> {
          co_await m.unlock(2, 0);
        }(*w.mgr));
        w.eng.run();
      },
      "unlock by non-owner");
}

INSTANTIATE_TEST_SUITE_P(Schemes, DlmDeathTest,
                         ::testing::Values(Scheme::kSrsl, Scheme::kDqnl,
                                           Scheme::kNcosed),
                         [](const auto& param_info) {
                           return scheme_name(param_info.param);
                         });

constexpr std::uint64_t kCohortLock = 1;
constexpr NodeId kCohortNode = 0;
constexpr std::uint64_t kCohortWord = 0x1000;

/// One strand of kCohortNode: waits until `start`, holds kCohortLock in
/// `mode` for `hold`, and touches kCohortWord inside the hold (a writer
/// writes it, a reader reads it).
sim::Task<void> cohort_strand(sim::Engine& eng, Cohort& cohort, SimNanos start,
                              LockMode mode, SimNanos hold, const char* name,
                              std::vector<std::string>& log) {
  co_await eng.delay(start);
  const bool lead = co_await cohort.enter(kCohortLock, kCohortNode, mode);
  if (lead) cohort.acquired(kCohortLock, kCohortNode);
  if (mode == LockMode::kExclusive) {
    audit::host_write(kCohortNode, kCohortWord, 8, "test.cohort.write");
  } else {
    audit::host_read(kCohortNode, kCohortWord, 8, "test.cohort.read");
  }
  log.emplace_back(name);
  co_await eng.delay(hold);
  if (cohort.leave(kCohortLock, kCohortNode)) {
    cohort.finish(kCohortLock, kCohortNode);
  }
}

TEST(DlmCohortTest, ItsEdgesAloneOrderOneNodesStrands) {
  // No fabric and no remote lock: only the cohort orders node 0's strands.
  //   W  t=0   leads an exclusive tenure, writes, leaves at t=10
  //   A  t=1   waits; W's finish hands it the next tenure, a read tenure
  //   B  t=15  joins A's read tenure at once, reads, leaves at t=20
  //   C  t=25  waits; leads the next tenure once A leaves at t=30, writes
  // The engine's wake edges order W before A and A before C.  Only the
  // cohort's own edges order B's read after W's write (A's admission, then
  // B's join) and C's write after B's read (B's leave, then A's).
  sim::Engine eng;
  audit::Auditor auditor(eng, {.on_violation = audit::OnViolation::kCount});
  auditor.install();
  Cohort cohort(eng);
  std::vector<std::string> log;
  eng.spawn(cohort_strand(eng, cohort, 0, LockMode::kExclusive,
                          microseconds(10), "W", log));
  eng.spawn(cohort_strand(eng, cohort, microseconds(1), LockMode::kShared,
                          microseconds(20), "A", log));
  eng.spawn(cohort_strand(eng, cohort, microseconds(15), LockMode::kShared,
                          microseconds(5), "B", log));
  eng.spawn(cohort_strand(eng, cohort, microseconds(25),
                          LockMode::kExclusive, microseconds(1), "C", log));
  eng.run();
  EXPECT_EQ(log, (std::vector<std::string>{"W", "A", "B", "C"}));
  EXPECT_EQ(cohort.size(), 0u);
  EXPECT_EQ(auditor.report_count(), 0u)
      << (auditor.report_count() > 0 ? auditor.reports()[0].message : "");
}

}  // namespace
}  // namespace dcs::dlm
