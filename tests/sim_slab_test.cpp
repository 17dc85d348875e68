// Coroutine-frame slab allocator: frames must be recycled through the
// size-class free lists (steady-state churn allocates no new chunks), every
// teardown path must return its frames, and oversized frames must fall
// through to the heap.  Run under the asan preset, the slab's manual
// poisoning also turns any touch of a freed frame into a hard fault.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/context.hpp"
#include "sim/slab.hpp"
#include "sim/sync.hpp"

namespace dcs::sim {
namespace {

using detail::FrameSlab;

/// Deltas against this thread's slab counters (tests share the binary).
struct StatDelta {
  FrameSlab::Stats before = context().slab().stats();

  std::uint64_t allocs() const {
    return context().slab().stats().allocs - before.allocs;
  }
  std::uint64_t reuses() const {
    return context().slab().stats().reuses - before.reuses;
  }
  std::uint64_t heap_allocs() const {
    return context().slab().stats().heap_allocs - before.heap_allocs;
  }
  std::uint64_t chunks() const {
    return context().slab().stats().chunks - before.chunks;
  }
  std::int64_t live() const {
    return static_cast<std::int64_t>(context().slab().stats().live) -
           static_cast<std::int64_t>(before.live);
  }
};

Task<void> yield_once(Engine& eng) { co_await eng.yield(); }

void run_storm(Engine& eng, int batches, int width) {
  eng.spawn([](Engine& e, int nb, int w) -> Task<void> {
    for (int b = 0; b < nb; ++b) {
      std::vector<Task<void>> tasks;
      tasks.reserve(static_cast<std::size_t>(w));
      for (int i = 0; i < w; ++i) tasks.push_back(yield_once(e));
      co_await e.when_all(std::move(tasks));
    }
  }(eng, batches, width));
  eng.run();
}

TEST(SlabTest, FramesComeFromSlabAndAreFreedOnCompletion) {
  StatDelta d;
  {
    Engine eng;
    run_storm(eng, 10, 8);
  }
  EXPECT_GT(d.allocs(), 0u) << "coroutine frames should route through slab";
  EXPECT_EQ(d.live(), 0) << "all frames must be returned after teardown";
}

TEST(SlabTest, SteadyStateChurnRecyclesFramesWithoutNewChunks) {
  // Warm the free lists, then a much larger run must be served almost
  // entirely from them: no new chunks, near-total reuse.
  {
    Engine warm;
    run_storm(warm, 4, 16);
  }
  StatDelta d;
  {
    Engine eng;
    run_storm(eng, 200, 16);
  }
  EXPECT_EQ(d.chunks(), 0u) << "steady-state churn must not carve new chunks";
  EXPECT_GT(d.allocs(), 3000u);
  EXPECT_GT(d.reuses(), d.allocs() * 9 / 10)
      << "free lists should serve nearly every frame";
  EXPECT_EQ(d.live(), 0);
}

TEST(SlabTest, TeardownWithSuspendedCoroutinesReturnsFrames) {
  StatDelta d;
  {
    Engine eng;
    Event never(eng);
    // A chain of roots parked on an event that never fires, plus a pending
    // when_all: destruction must unwind every frame through the slab.
    for (int i = 0; i < 16; ++i) {
      eng.spawn([](Event& ev) -> Task<void> { co_await ev.wait(); }(never));
    }
    eng.spawn([](Engine& e, Event& ev) -> Task<void> {
      std::vector<Task<void>> tasks;
      for (int i = 0; i < 8; ++i) {
        tasks.push_back([](Event& ev2) -> Task<void> {
          co_await ev2.wait();
        }(ev));
      }
      co_await e.when_all(std::move(tasks));
    }(eng, never));
    eng.run_until(microseconds(1));
    EXPECT_EQ(eng.live_roots(), 17u);
  }
  EXPECT_EQ(d.live(), 0) << "suspended frames must be freed by engine dtor";
}

TEST(SlabTest, OversizedFramesFallThroughToHeap) {
  StatDelta d;
  {
    Engine eng;
    eng.spawn([](Engine& e) -> Task<void> {
      // Big enough locals to push the frame past the 4 KiB slab ceiling.
      std::array<std::uint64_t, 1024> big{};
      for (std::size_t i = 0; i < big.size(); ++i) {
        big[i] = i;
        if (i % 512 == 0) co_await e.yield();
      }
      EXPECT_EQ(big[1023], 1023u);
    }(eng));
    eng.run();
  }
  EXPECT_GT(d.heap_allocs(), 0u)
      << "an >4 KiB frame should bypass the size classes";
  EXPECT_EQ(d.live(), 0);
}

TEST(SlabTest, ChannelRecvAllocatesNoFrames) {
  // recv() is a frameless awaiter: a full ping-pong round trip must not
  // touch the slab (only the two root frames do).
  Engine eng;
  Channel<int> ping(eng);
  Channel<int> pong(eng);
  StatDelta d;
  eng.spawn([](Channel<int>& rx, Channel<int>& tx, int n) -> Task<void> {
    for (int i = 0; i < n; ++i) tx.push(co_await rx.recv() + 1);
  }(ping, pong, 1000));
  eng.spawn([](Channel<int>& tx, Channel<int>& rx, int n) -> Task<void> {
    tx.push(0);
    for (int i = 0; i < n; ++i) {
      const int v = co_await rx.recv();
      if (i + 1 < n) tx.push(v + 1);
    }
  }(ping, pong, 1000));
  const std::uint64_t roots_only = d.allocs();
  eng.run();
  EXPECT_EQ(d.allocs(), roots_only)
      << "2000 channel receives must not allocate coroutine frames";
}

}  // namespace
}  // namespace dcs::sim
