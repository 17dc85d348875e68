// Property tests for the simulation engine: determinism across runs,
// conservation invariants of the sync primitives under random task graphs,
// their wake order against a reference model, and clock monotonicity.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <coroutine>
#include <deque>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dlm/cohort.hpp"
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
  constexpr int kStrands = 30;
  Semaphore sem(eng, kPermits);
  int active = 0, peak = 0, finished = 0;
  for (int id = 0; id < kStrands; ++id) {
    eng.spawn([](Engine& e, Semaphore& s, int self, int& act, int& pk,
                 int& done) -> Task<void> {
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
      ++done;
    }(eng, sem, id, active, peak, finished));
  }
  eng.run();
  EXPECT_EQ(active, 0);
  EXPECT_LE(peak, static_cast<int>(kPermits));
  EXPECT_EQ(sem.available(), kPermits);
  EXPECT_EQ(finished, kStrands) << "a strand was left parked";
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

Task<void> delay_then_yield(Engine& e, HeapOracle& o) {
  o.dispatched.emplace_back(e.now(), e.last_dispatch_seq());
  co_await e.delay(10);
  o.dispatched.emplace_back(e.now(), e.last_dispatch_seq());
  co_await e.yield();
  o.dispatched.emplace_back(e.now(), e.last_dispatch_seq());
}

TEST(SimPropertyTest, CrossWakeRunsWithTheDueTimersBeforeSameTimeRingEntries) {
  // At time T every due timer, the cross wake included, drains before the
  // ready-ring entries strands enqueue at T after T's first timer, although
  // those hold smaller seqs than kCrossSeq.  So at a cross-wake time the
  // stream is not lexicographic in (t, seq); sharded fingerprints depend on
  // exactly this order.
  Engine eng;
  HeapOracle o;
  eng.spawn(cross_parker(eng, o));       // (0, 0)
  eng.spawn(delay_then_yield(eng, o));   // (0, 1), timer (10, 2), yield seq 3
  eng.run_until(0);
  ASSERT_TRUE(o.parked);
  eng.schedule_cross(o.parked, 10);
  eng.run();
  const std::vector<Coord> want = {
      {0, 0}, {0, 1}, {10, 2}, {10, Engine::kCrossSeq}, {10, 3}};
  EXPECT_EQ(o.dispatched, want);
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

// --- wake order against a std::deque reference model ---
//
// The test body drives one primitive: each step applies one to three
// seeded random operations (spawning strands that park on it, releasing,
// setting, sending, receiving, granting and leaving a lock tenure) and then
// runs the engine until every wake cascade has settled.  The model keeps
// parked strands in std::deques and the strands the engine has yet to run
// in a FIFO of model actions, as the engine's ready ring does.  The log of
// which strand got through, in order, must equal the model's after every
// step.  Strands still parked at the end are torn down with the primitive
// destroyed first.

constexpr std::uint64_t kOrderSeeds = 16;
constexpr int kOrderSteps = 200;

/// The model's ready ring: actions run in the order they were scheduled.
struct ModelRing {
  std::deque<std::function<void()>> actions;
  void schedule(std::function<void()> a) { actions.push_back(std::move(a)); }
  void drain() {
    while (!actions.empty()) {
      auto a = std::move(actions.front());
      actions.pop_front();
      a();
    }
  }
};

template <typename T>
T pop_front(std::deque<T>& q) {
  T v = q.front();
  q.pop_front();
  return v;
}

/// Permits of a Semaphore, or of a Mutex whose `scoped` strands hand the
/// permit back through their guard as soon as they have logged.
struct PermitModel {
  ModelRing ring;
  std::size_t count = 0;
  std::deque<int> parked;
  std::vector<bool> scoped;  // by strand id
  int plain_holders = 0;
  std::vector<int> log;

  void arrive(int id) {
    if (count == 0) {
      parked.push_back(id);
      return;
    }
    --count;
    hold(id);
  }
  void hold(int id) {
    log.push_back(id);
    if (scoped[id]) {
      release();
    } else {
      ++plain_holders;
    }
  }
  void release() {
    if (parked.empty()) {
      ++count;
      return;
    }
    const int id = pop_front(parked);
    ring.schedule([this, id] { hold(id); });
  }
};

Task<void> take_permit(Semaphore& sem, std::vector<int>& log, int id) {
  co_await sem.acquire();
  log.push_back(id);
}

Task<void> take_mutex(Mutex& m, std::vector<int>& log, int id, bool scoped) {
  if (scoped) {
    auto guard = co_await m.scoped();
    log.push_back(id);
  } else {
    co_await m.acquire();
    log.push_back(id);
  }
}

/// Semaphore (any initial count, releases at any time) or Mutex (plain and
/// scoped strands, released only by the body for a plain holder).
void check_permit_order(std::uint64_t seed, bool mutex) {
  SCOPED_TRACE(::testing::Message() << (mutex ? "mutex" : "semaphore")
                                    << " seed " << seed);
  Rng rng(seed);
  Engine eng;
  PermitModel model;
  model.count = mutex ? 1 : rng.uniform(0, 2);
  Semaphore sem(eng, model.count);
  Mutex mtx(eng);
  std::vector<int> log;
  for (int step = 0; step < kOrderSteps; ++step) {
    for (auto ops = rng.uniform(1, 3); ops > 0; --ops) {
      if (rng.chance(0.5)) {
        const int id = static_cast<int>(model.scoped.size());
        const bool scoped = mutex && rng.chance(0.5);
        model.scoped.push_back(scoped);
        model.ring.schedule([&model, id] { model.arrive(id); });
        eng.spawn(mutex ? take_mutex(mtx, log, id, scoped)
                        : take_permit(sem, log, id));
      } else if (!mutex || model.plain_holders > 0) {
        if (mutex) {
          --model.plain_holders;
          mtx.release();
        } else {
          sem.release();
        }
        model.release();
      }
    }
    model.ring.drain();
    eng.run();
    ASSERT_EQ(log, model.log) << "step " << step;
  }
  if (!mutex) {
    EXPECT_EQ(sem.available(), model.count);
  }
}

TEST(SimPropertyTest, SemaphoreWakeOrderMatchesADequeModel) {
  for (std::uint64_t seed = 1; seed <= kOrderSeeds; ++seed) {
    check_permit_order(seed, /*mutex=*/false);
  }
}

TEST(SimPropertyTest, MutexWakeOrderMatchesADequeModel) {
  for (std::uint64_t seed = 1; seed <= kOrderSeeds; ++seed) {
    check_permit_order(seed, /*mutex=*/true);
  }
}

Task<void> wait_event(Event& ev, std::vector<int>& log, int id) {
  co_await ev.wait();
  log.push_back(id);
}

TEST(SimPropertyTest, EventWakeOrderMatchesADequeModel) {
  for (std::uint64_t seed = 1; seed <= kOrderSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    Engine eng;
    Event ev(eng);
    std::vector<int> log;
    // The model: a woken waiter gets through even if the event was reset
    // before it ran.
    ModelRing ring;
    bool set = false;
    std::deque<int> parked;
    std::vector<int> want;
    int strands = 0;
    for (int step = 0; step < kOrderSteps; ++step) {
      for (auto ops = rng.uniform(1, 3); ops > 0; --ops) {
        const auto op = rng.uniform(4);
        if (op < 2) {
          const int id = strands++;
          ring.schedule([&, id] {
            if (set) {
              want.push_back(id);
            } else {
              parked.push_back(id);
            }
          });
          eng.spawn(wait_event(ev, log, id));
        } else if (op == 2) {
          ev.set();
          set = true;
          while (!parked.empty()) {
            ring.schedule([&want, id = pop_front(parked)] {
              want.push_back(id);
            });
          }
        } else {
          ev.reset();
          set = false;
        }
      }
      ring.drain();
      eng.run();
      ASSERT_EQ(log, want) << "step " << step;
    }
  }
}

/// A bounded channel: senders park while it is full and re-check the
/// capacity when woken; a woken receiver has the head item reserved.
struct ChannelModel {
  ModelRing ring;
  std::size_t capacity = 1;
  std::deque<int> items, receivers, senders;
  std::size_t reserved = 0;
  std::vector<std::pair<int, int>> log;  // (receiver, item) or (sender, -1)

  void send(int id) {  // a sender's first run, or its run after a wake
    if (items.size() >= capacity) {
      senders.push_back(id);
      return;
    }
    items.push_back(id);
    if (!receivers.empty()) {
      ++reserved;
      ring.schedule([this, r = pop_front(receivers)] {
        --reserved;
        log.emplace_back(r, take());
      });
    }
    log.emplace_back(id, -1);
  }
  void recv(int id) {
    if (items.size() > reserved) {
      log.emplace_back(id, take());
    } else {
      receivers.push_back(id);
    }
  }
  std::optional<int> try_recv() {
    if (items.size() <= reserved) return std::nullopt;
    return take();
  }
  int take() {
    const int item = pop_front(items);
    if (!senders.empty()) {
      ring.schedule([this, s = pop_front(senders)] { send(s); });
    }
    return item;
  }
};

Task<void> send_item(Channel<int>& ch, std::vector<std::pair<int, int>>& log,
                     int id) {
  co_await ch.send(id);
  log.emplace_back(id, -1);
}

Task<void> recv_item(Channel<int>& ch, std::vector<std::pair<int, int>>& log,
                     int id) {
  const int item = co_await ch.recv();
  log.emplace_back(id, item);
}

TEST(SimPropertyTest, ChannelWakeOrderMatchesADequeModel) {
  for (std::uint64_t seed = 1; seed <= kOrderSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    Engine eng;
    ChannelModel model;
    model.capacity = rng.uniform(1, 3);
    Channel<int> ch(eng, model.capacity);
    std::vector<std::pair<int, int>> log;
    int strands = 0;
    for (int step = 0; step < kOrderSteps; ++step) {
      for (auto ops = rng.uniform(1, 3); ops > 0; --ops) {
        const auto op = rng.uniform(20);
        const int id = strands++;
        if (op < 8) {
          model.ring.schedule([&model, id] { model.send(id); });
          eng.spawn(send_item(ch, log, id));
        } else if (op < 15) {
          model.ring.schedule([&model, id] { model.recv(id); });
          eng.spawn(recv_item(ch, log, id));
        } else {
          ASSERT_EQ(ch.try_recv(), model.try_recv()) << "step " << step;
        }
      }
      model.ring.drain();
      eng.run();
      ASSERT_EQ(log, model.log) << "step " << step;
      ASSERT_EQ(ch.size(), model.items.size()) << "step " << step;
    }
  }
}

/// One node's group for one lock, as dlm::Cohort keeps it.  A strand in
/// `kLeading` leads a tenure whose remote acquire the body has not granted
/// yet; one in `kIn` is in a tenure and waits for the body to let it leave;
/// `kBusy` has a command or its first run pending.
struct CohortModel {
  enum class State { kBusy, kParked, kLeading, kIn, kDone };
  struct Group {
    std::size_t active = 0;
    bool reading = false;
    bool held = false;
    std::deque<int> waiters;
  };
  ModelRing ring;
  std::array<Group, 4> groups;
  std::vector<std::size_t> group_of;
  std::vector<bool> reads;
  std::vector<State> state;
  std::vector<std::pair<int, int>> log;  // (strand, leads)

  void arrive(int id) {
    Group& g = groups[group_of[id]];
    if (g.active == 0) {
      g.active = 1;
      g.reading = reads[id];
      enter(id, true);
    } else if (reads[id] && g.reading && g.held && g.waiters.empty()) {
      ++g.active;
      enter(id, false);
    } else {
      g.waiters.push_back(id);
      state[id] = State::kParked;
    }
  }
  void enter(int id, bool lead) {
    log.emplace_back(id, lead ? 1 : 0);
    state[id] = lead ? State::kLeading : State::kIn;
  }
  void woken(int id) { enter(id, !groups[group_of[id]].held); }
  void acquired(int id) {
    Group& g = groups[group_of[id]];
    state[id] = State::kIn;
    g.held = true;
    if (!g.reading) return;
    while (!g.waiters.empty() && reads[g.waiters.front()]) {
      ++g.active;
      ring.schedule([this, w = pop_front(g.waiters)] { woken(w); });
    }
  }
  void leave(int id) {
    Group& g = groups[group_of[id]];
    state[id] = State::kDone;
    if (g.active > 1) {
      --g.active;
      return;
    }
    if (g.waiters.empty()) {
      g = Group{};
      return;
    }
    g.held = false;
    g.active = 1;
    g.reading = reads[g.waiters.front()];
    ring.schedule([this, w = pop_front(g.waiters)] { woken(w); });
  }
  /// A random strand in `s`, or -1.
  int pick(Rng& rng, State s) const {
    std::vector<int> ids;
    for (std::size_t i = 0; i < state.size(); ++i) {
      if (state[i] == s) ids.push_back(static_cast<int>(i));
    }
    return ids.empty() ? -1 : ids[rng.uniform(ids.size())];
  }
};

/// The body's commands to one cohort strand: `grant` completes the remote
/// acquire it leads, `go` makes it leave its tenure.
struct CohortCommands {
  explicit CohortCommands(Engine& eng) : grant(eng), go(eng) {}
  Event grant;
  Event go;
};

Task<void> cohort_strand(dlm::Cohort& cohort, std::uint64_t lock,
                         fabric::NodeId node, bool read, CohortCommands& cmd,
                         std::vector<std::pair<int, int>>& log, int id) {
  const bool lead = co_await cohort.enter(
      lock, node, read ? dlm::LockMode::kShared : dlm::LockMode::kExclusive);
  log.emplace_back(id, lead ? 1 : 0);
  if (lead) {
    co_await cmd.grant.wait();
    cohort.acquired(lock, node);
  }
  co_await cmd.go.wait();
  if (cohort.leave(lock, node)) cohort.finish(lock, node);
}

TEST(SimPropertyTest, CohortWakeOrderMatchesADequeModel) {
  // Readers and writers of two locks on two nodes (four groups).
  using State = CohortModel::State;
  for (std::uint64_t seed = 1; seed <= kOrderSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    Engine eng;
    dlm::Cohort cohort(eng);
    std::deque<CohortCommands> cmds;
    CohortModel model;
    std::vector<std::pair<int, int>> log;
    for (int step = 0; step < kOrderSteps; ++step) {
      for (auto ops = rng.uniform(1, 3); ops > 0; --ops) {
        const auto op = rng.uniform(10);
        if (op < 4) {
          const int id = static_cast<int>(model.state.size());
          const std::size_t group = rng.uniform(model.groups.size());
          const bool read = rng.chance(0.5);
          model.group_of.push_back(group);
          model.reads.push_back(read);
          model.state.push_back(State::kBusy);
          model.ring.schedule([&model, id] { model.arrive(id); });
          eng.spawn(cohort_strand(cohort, group / 2,
                                  static_cast<fabric::NodeId>(group % 2), read,
                                  cmds.emplace_back(eng), log, id));
        } else if (op < 7) {
          if (const int id = model.pick(rng, State::kLeading); id >= 0) {
            model.state[id] = State::kBusy;
            model.ring.schedule([&model, id] { model.acquired(id); });
            cmds[id].grant.set();
          }
        } else if (const int id = model.pick(rng, State::kIn); id >= 0) {
          model.state[id] = State::kBusy;
          model.ring.schedule([&model, id] { model.leave(id); });
          cmds[id].go.set();
        }
      }
      model.ring.drain();
      eng.run();
      ASSERT_EQ(log, model.log) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace dcs::sim
