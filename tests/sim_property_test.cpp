// Property tests for the simulation engine: determinism across runs,
// conservation invariants of the sync primitives under random task graphs,
// and clock monotonicity.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace dcs::sim {
namespace {

// Builds a pseudo-random workload of interacting coroutines and returns a
// fingerprint of the run (event count, final time, and an order-sensitive
// hash of observable actions).
struct RunFingerprint {
  std::uint64_t events;
  Time final_time;
  std::uint64_t action_hash;
  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint run_random_workload(std::uint64_t seed) {
  Engine eng;
  Semaphore sem(eng, 3);
  Mutex mtx(eng);
  Channel<int> chan(eng);
  Event gate(eng);
  std::uint64_t hash = 14695981039346656037ULL;
  auto record = [&hash](std::uint64_t v) {
    hash = (hash ^ v) * 1099511628211ULL;
  };

  for (int id = 0; id < 24; ++id) {
    eng.spawn([](Engine& e, Semaphore& s, Mutex& m, Channel<int>& ch,
                 Event& g, int self, std::uint64_t wseed,
                 decltype(record)& rec) -> Task<void> {
      Rng rng(wseed ^ (self * 0x9E3779B9ULL));
      for (int step = 0; step < 12; ++step) {
        switch (rng.uniform(5)) {
          case 0:
            co_await e.delay(rng.uniform(1, 500));
            break;
          case 1: {
            co_await s.acquire();
            co_await e.delay(rng.uniform(1, 50));
            s.release();
            break;
          }
          case 2: {
            auto guard = co_await m.scoped();
            rec(static_cast<std::uint64_t>(self) * 1000 + step);
            co_await e.delay(rng.uniform(1, 30));
            break;
          }
          case 3:
            ch.push(self * 100 + step);
            break;
          case 4:
            if (auto v = ch.try_recv()) rec(static_cast<std::uint64_t>(*v));
            break;
        }
      }
      if (self == 7) g.set();
      if (self == 8) co_await g.wait();
    }(eng, sem, mtx, chan, gate, id, seed, record));
  }
  eng.run();
  return RunFingerprint{eng.events_dispatched(), eng.now(), hash};
}

TEST(SimPropertyTest, IdenticalSeedsReplayIdentically) {
  for (std::uint64_t seed : {1ULL, 42ULL, 999ULL}) {
    EXPECT_EQ(run_random_workload(seed), run_random_workload(seed))
        << "seed " << seed;
  }
}

TEST(SimPropertyTest, DifferentSeedsDiffer) {
  EXPECT_NE(run_random_workload(1).action_hash,
            run_random_workload(2).action_hash);
}

TEST(SimPropertyTest, SemaphorePermitsConserved) {
  // Random acquire/release patterns must end with all permits returned and
  // never exceed the configured concurrency.
  Engine eng;
  constexpr std::size_t kPermits = 4;
  Semaphore sem(eng, kPermits);
  int active = 0, peak = 0;
  for (int id = 0; id < 30; ++id) {
    eng.spawn([](Engine& e, Semaphore& s, int self, int& act, int& pk)
                  -> Task<void> {
      Rng rng(7000 + self);
      for (int i = 0; i < 8; ++i) {
        co_await e.delay(rng.uniform(1, 100));
        co_await s.acquire();
        ++act;
        pk = std::max(pk, act);
        co_await e.delay(rng.uniform(1, 40));
        --act;
        s.release();
      }
    }(eng, sem, id, active, peak));
  }
  eng.run();
  EXPECT_EQ(active, 0);
  EXPECT_LE(peak, static_cast<int>(kPermits));
  EXPECT_EQ(sem.available(), kPermits);
  EXPECT_EQ(sem.waiting(), 0u);
}

TEST(SimPropertyTest, ChannelConservesAndOrdersMessages) {
  // Everything pushed is received exactly once, and per-producer order is
  // preserved (FIFO channel, single consumer).
  Engine eng;
  Channel<std::pair<int, int>> chan(eng);
  constexpr int kProducers = 6, kPerProducer = 40;
  for (int p = 0; p < kProducers; ++p) {
    eng.spawn([](Engine& e, Channel<std::pair<int, int>>& ch, int self)
                  -> Task<void> {
      Rng rng(900 + self);
      for (int i = 0; i < kPerProducer; ++i) {
        co_await e.delay(rng.uniform(1, 60));
        ch.push({self, i});
      }
    }(eng, chan, p));
  }
  std::vector<int> last_seen(kProducers, -1);
  int received = 0;
  bool order_violation = false, duplicate = false;
  eng.spawn([](Channel<std::pair<int, int>>& ch, std::vector<int>& last,
               int& count, bool& ooo, bool& dup) -> Task<void> {
    for (int i = 0; i < kProducers * kPerProducer; ++i) {
      auto [p, seq] = co_await ch.recv();
      if (seq <= last[p]) (seq == last[p] ? dup : ooo) = true;
      last[p] = seq;
      ++count;
    }
  }(chan, last_seen, received, order_violation, duplicate));
  eng.run();
  EXPECT_EQ(received, kProducers * kPerProducer);
  EXPECT_FALSE(order_violation);
  EXPECT_FALSE(duplicate);
  EXPECT_TRUE(chan.empty());
}

TEST(SimPropertyTest, ClockNeverMovesBackwards) {
  Engine eng;
  bool regression = false;
  for (int id = 0; id < 10; ++id) {
    eng.spawn([](Engine& e, int self, bool& bad) -> Task<void> {
      Rng rng(3000 + self);
      Time prev = e.now();
      for (int i = 0; i < 50; ++i) {
        co_await e.delay(rng.uniform(0, 200));
        if (e.now() < prev) bad = true;
        prev = e.now();
      }
    }(eng, id, regression));
  }
  eng.run();
  EXPECT_FALSE(regression);
}

TEST(SimPropertyTest, WhenAllWithRandomDurationsFinishesAtMax) {
  Engine eng;
  Rng rng(31337);
  std::vector<Time> durations;
  for (int i = 0; i < 40; ++i) durations.push_back(rng.uniform(1, 10000));
  const Time expected = *std::max_element(durations.begin(), durations.end());
  eng.spawn([](Engine& e, std::vector<Time> durs, Time want) -> Task<void> {
    std::vector<Task<void>> tasks;
    for (const Time d : durs) {
      tasks.push_back([](Engine& e2, Time dd) -> Task<void> {
        co_await e2.delay(dd);
      }(e, d));
    }
    co_await e.when_all(std::move(tasks));
    DCS_CHECK(e.now() == want);
  }(eng, durations, expected));
  EXPECT_NO_THROW(eng.run());
  EXPECT_EQ(eng.now(), expected);
}

// Timer-heap oracle.  Every schedule call draws the next seq, so the test
// can name each wake's (time, seq) as it asks for it; the dispatch stream
// must be exactly those coordinates in sorted order.  Strands live on even
// times and cross wakes on odd ones: a cross wake (seq kCrossSeq) runs
// before same-time ready-ring entries, so the two never share a time here.
using Coord = std::pair<Time, std::uint64_t>;

struct HeapOracle {
  std::vector<Coord> scheduled;
  std::vector<Coord> dispatched;
  std::uint64_t next_seq = 0;
  std::coroutine_handle<> parked{};
};

Task<void> random_sleeper(Engine& e, HeapOracle& o, std::uint64_t seed) {
  Rng rng(seed);
  o.dispatched.emplace_back(e.now(), e.last_dispatch_seq());
  for (int step = 0; step < 40; ++step) {
    Time d = 0;
    switch (rng.uniform(5)) {
      case 0:  // same-time yield
        break;
      case 1:
      case 2:
        d = 2 * rng.uniform(1, 32);
        break;
      case 3:  // a shared boundary: many strands tie there
        d = 1024 - e.now() % 1024;
        break;
      case 4:  // beyond a 4.2 ms horizon
        d = 2 * rng.uniform(2'500'000, 10'000'000);
        break;
    }
    o.scheduled.emplace_back(e.now() + d, o.next_seq++);
    co_await e.delay(d);
    o.dispatched.emplace_back(e.now(), e.last_dispatch_seq());
  }
}

Task<void> cross_parker(Engine& e, HeapOracle& o) {
  struct Park {
    HeapOracle& o;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { o.parked = h; }
    void await_resume() { o.parked = {}; }
  };
  for (;;) {
    o.dispatched.emplace_back(e.now(), e.last_dispatch_seq());
    co_await Park{o};
  }
}

TEST(SimPropertyTest, TimerDispatchFollowsTheSortedScheduleUnderChoppedRuns) {
  Engine eng;
  HeapOracle o;
  Rng rng(2024);
  for (std::uint64_t i = 0; i < 64; ++i) {
    o.scheduled.emplace_back(0, o.next_seq++);
    eng.spawn(random_sleeper(eng, o, 77 + i));
  }
  o.scheduled.emplace_back(0, o.next_seq++);
  eng.spawn(cross_parker(eng, o));
  eng.run_until(0);
  for (Time cut = 7'000'001; eng.next_event_time() != Engine::kForever;
       cut += 7'000'001) {
    // Three cross wakes at distinct odd times inside the next chunk.
    std::vector<Time> wakes;
    while (wakes.size() < 3) {
      const Time t = eng.now() + 1 + 2 * rng.uniform(0, 3'000'000);
      if (std::find(wakes.begin(), wakes.end(), t) == wakes.end()) {
        wakes.push_back(t);
      }
    }
    ASSERT_TRUE(o.parked);
    for (const Time t : wakes) {
      eng.schedule_cross(o.parked, t);
      o.scheduled.emplace_back(t, Engine::kCrossSeq);
    }
    eng.run_until(cut);
    ASSERT_EQ(eng.now(), cut);
  }
  std::sort(o.scheduled.begin(), o.scheduled.end());
  EXPECT_GT(o.scheduled.back().first, Time{20'000'000});
  EXPECT_EQ(eng.events_dispatched(), o.scheduled.size());
  EXPECT_EQ(o.dispatched, o.scheduled);
  EXPECT_EQ(eng.pending_timer_count(), 0u);
}

TEST(SimPropertyTest, ManyEngineLifecyclesAreIndependent) {
  // Engines must not share hidden state: interleaved construction and runs
  // give the same results as isolated ones.
  const auto isolated = run_random_workload(5);
  Engine other;
  other.spawn([](Engine& e) -> Task<void> {
    co_await e.delay(123);
  }(other));
  const auto interleaved = run_random_workload(5);
  other.run();
  EXPECT_EQ(isolated, interleaved);
}

}  // namespace
}  // namespace dcs::sim
