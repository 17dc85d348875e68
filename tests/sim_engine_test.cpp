// Unit tests for the discrete-event engine: clock behaviour, determinism,
// task composition, exceptions, and teardown safety.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace dcs::sim {
namespace {

Task<void> note_at(Engine& eng, Time at, std::vector<Time>& out) {
  co_await eng.delay(at);
  out.push_back(eng.now());
}

TEST(EngineTest, StartsAtZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0u);
  EXPECT_EQ(eng.live_roots(), 0u);
}

TEST(EngineTest, DelayAdvancesVirtualClock) {
  Engine eng;
  std::vector<Time> seen;
  eng.spawn(note_at(eng, microseconds(5), seen));
  eng.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], microseconds(5));
  EXPECT_EQ(eng.now(), microseconds(5));
}

TEST(EngineTest, EventsRunInTimeOrderRegardlessOfSpawnOrder) {
  Engine eng;
  std::vector<Time> seen;
  eng.spawn(note_at(eng, 300, seen));
  eng.spawn(note_at(eng, 100, seen));
  eng.spawn(note_at(eng, 200, seen));
  eng.run();
  EXPECT_EQ(seen, (std::vector<Time>{100, 200, 300}));
}

TEST(EngineTest, SameTimeEventsRunInSpawnOrder) {
  Engine eng;
  std::vector<int> order;
  auto proc = [](Engine& e, int id, std::vector<int>& out) -> Task<void> {
    co_await e.delay(50);
    out.push_back(id);
  };
  for (int i = 0; i < 8; ++i) eng.spawn(proc(eng, i, order));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EngineTest, RunUntilStopsClockAtBound) {
  Engine eng;
  std::vector<Time> seen;
  eng.spawn(note_at(eng, 100, seen));
  eng.spawn(note_at(eng, 500, seen));
  eng.run_until(250);
  EXPECT_EQ(seen, (std::vector<Time>{100}));
  EXPECT_EQ(eng.now(), 250u);
  eng.run();  // drain the rest
  EXPECT_EQ(seen, (std::vector<Time>{100, 500}));
}

Task<int> add_later(Engine& eng, int a, int b) {
  co_await eng.delay(10);
  co_return a + b;
}

Task<void> calls_subtask(Engine& eng, int& result) {
  result = co_await add_later(eng, 2, 3);
}

TEST(EngineTest, SubtaskReturnsValueAndAdvancesTime) {
  Engine eng;
  int result = 0;
  eng.spawn(calls_subtask(eng, result));
  eng.run();
  EXPECT_EQ(result, 5);
  EXPECT_EQ(eng.now(), 10u);
}

Task<int> deep(Engine& eng, int depth) {
  if (depth == 0) co_return 0;
  co_await eng.delay(1);
  const int below = co_await deep(eng, depth - 1);
  co_return below + 1;
}

TEST(EngineTest, DeeplyNestedSubtasks) {
  Engine eng;
  int result = -1;
  eng.spawn([](Engine& e, int& out) -> Task<void> {
    out = co_await deep(e, 200);
  }(eng, result));
  eng.run();
  EXPECT_EQ(result, 200);
  EXPECT_EQ(eng.now(), 200u);
}

Task<void> throws_after(Engine& eng, Time t) {
  co_await eng.delay(t);
  throw std::runtime_error("boom");
}

TEST(EngineTest, RootExceptionPropagatesFromRun) {
  Engine eng;
  eng.spawn(throws_after(eng, 5));
  EXPECT_THROW(eng.run(), std::runtime_error);
}

Task<void> catches_subtask_error(Engine& eng, bool& caught) {
  try {
    co_await throws_after(eng, 5);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(EngineTest, SubtaskExceptionCatchableByParent) {
  Engine eng;
  bool caught = false;
  eng.spawn(catches_subtask_error(eng, caught));
  eng.run();
  EXPECT_TRUE(caught);
}

TEST(EngineTest, WhenAllWaitsForSlowest) {
  Engine eng;
  std::vector<Time> seen;
  eng.spawn([](Engine& e, std::vector<Time>& out) -> Task<void> {
    std::vector<Task<void>> tasks;
    tasks.push_back(note_at(e, 30, out));
    tasks.push_back(note_at(e, 10, out));
    tasks.push_back(note_at(e, 20, out));
    co_await e.when_all(std::move(tasks));
    out.push_back(e.now());
  }(eng, seen));
  eng.run();
  EXPECT_EQ(seen, (std::vector<Time>{10, 20, 30, 30}));
}

TEST(EngineTest, WhenAllEmptyCompletesImmediately) {
  Engine eng;
  bool done = false;
  eng.spawn([](Engine& e, bool& flag) -> Task<void> {
    co_await e.when_all({});
    flag = true;
  }(eng, done));
  eng.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(eng.now(), 0u);
}

TEST(EngineTest, TeardownWithSuspendedRootsDoesNotLeak) {
  // Destroying an engine with parked coroutines must be safe (ASan-clean).
  std::vector<Time> seen;  // declared before the engine so it outlives it
  auto eng = std::make_unique<Engine>();
  eng->spawn(note_at(*eng, seconds(100), seen));
  eng->run_until(10);
  EXPECT_EQ(eng->live_roots(), 1u);
  eng.reset();  // must destroy the parked frame
}

TEST(EngineTest, DeterministicEventCount) {
  auto run_once = [] {
    Engine eng;
    std::vector<Time> seen;
    for (int i = 0; i < 50; ++i) eng.spawn(note_at(eng, 10 * (i % 7), seen));
    eng.run();
    return eng.events_dispatched();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EngineTest, HostRunTimeCountsOnlyTimedRunsAndPerturbsNothing) {
  auto run_once = [](bool timed) {
    Engine eng;
    std::vector<Time> seen;
    for (int i = 0; i < 50; ++i) eng.spawn(note_at(eng, 10 * i, seen));
    eng.run_until(200);  // untimed: adds nothing
    EXPECT_EQ(eng.host_run_ns(), 0u);
    eng.time_host_runs(timed);
    eng.run();
    if (timed) {
      EXPECT_GT(eng.host_run_ns(), 0u);
    } else {
      EXPECT_EQ(eng.host_run_ns(), 0u);
    }
    return std::pair{eng.events_dispatched(), eng.dispatch_fingerprint()};
  };
  EXPECT_EQ(run_once(true), run_once(false));
}

// --- sync primitive tests ---

TEST(SyncTest, EventBroadcastsToAllWaiters) {
  Engine eng;
  Event ev(eng);
  int woken = 0;
  auto waiter = [](Event& e, int& count) -> Task<void> {
    co_await e.wait();
    ++count;
  };
  for (int i = 0; i < 5; ++i) eng.spawn(waiter(ev, woken));
  eng.spawn([](Engine& e, Event& event) -> Task<void> {
    co_await e.delay(100);
    event.set();
  }(eng, ev));
  eng.run();
  EXPECT_EQ(woken, 5);
  EXPECT_EQ(eng.now(), 100u);
}

TEST(SyncTest, SetEventDoesNotBlockLaterWaiters) {
  Engine eng;
  Event ev(eng);
  ev.set();
  bool done = false;
  eng.spawn([](Event& e, bool& flag) -> Task<void> {
    co_await e.wait();
    flag = true;
  }(ev, done));
  eng.run();
  EXPECT_TRUE(done);
}

TEST(SyncTest, SemaphoreLimitsConcurrency) {
  Engine eng;
  Semaphore sem(eng, 2);
  int active = 0;
  int peak = 0;
  auto worker = [](Engine& e, Semaphore& s, int& act, int& pk) -> Task<void> {
    co_await s.acquire();
    ++act;
    pk = std::max(pk, act);
    co_await e.delay(10);
    --act;
    s.release();
  };
  for (int i = 0; i < 6; ++i) eng.spawn(worker(eng, sem, active, peak));
  eng.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(eng.now(), 30u);  // 6 jobs, width 2, 10 ns each
}

TEST(SyncTest, MutexScopedGuardSerializes) {
  Engine eng;
  Mutex mtx(eng);
  std::vector<int> log;
  auto critical = [](Engine& e, Mutex& m, int id, std::vector<int>& out)
      -> Task<void> {
    auto guard = co_await m.scoped();
    out.push_back(id);
    co_await e.delay(5);
    out.push_back(id);
  };
  for (int i = 0; i < 3; ++i) eng.spawn(critical(eng, mtx, i, log));
  eng.run();
  EXPECT_EQ(log, (std::vector<int>{0, 0, 1, 1, 2, 2}));
}

TEST(SyncTest, ChannelDeliversInFifoOrder) {
  Engine eng;
  Channel<int> ch(eng);
  std::vector<int> received;
  eng.spawn([](Channel<int>& c, std::vector<int>& out) -> Task<void> {
    for (int i = 0; i < 3; ++i) out.push_back(co_await c.recv());
  }(ch, received));
  eng.spawn([](Engine& e, Channel<int>& c) -> Task<void> {
    for (int i = 1; i <= 3; ++i) {
      co_await e.delay(10);
      c.push(i * 11);
    }
  }(eng, ch));
  eng.run();
  EXPECT_EQ(received, (std::vector<int>{11, 22, 33}));
}

TEST(SyncTest, BoundedChannelBlocksSender) {
  Engine eng;
  Channel<int> ch(eng, /*capacity=*/1);
  std::vector<Time> send_times;
  eng.spawn([](Engine& e, Channel<int>& c, std::vector<Time>& out)
                -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await c.send(i);
      out.push_back(e.now());
    }
  }(eng, ch, send_times));
  eng.spawn([](Engine& e, Channel<int>& c) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await e.delay(100);
      (void)co_await c.recv();
    }
  }(eng, ch));
  eng.run();
  ASSERT_EQ(send_times.size(), 3u);
  EXPECT_EQ(send_times[0], 0u);    // slot free
  EXPECT_EQ(send_times[1], 100u);  // waited for first recv
  EXPECT_EQ(send_times[2], 200u);
}

TEST(SyncTest, ChannelTryRecvNonBlocking) {
  Engine eng;
  Channel<int> ch(eng);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.push(7);
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
}

}  // namespace
}  // namespace dcs::sim
