// Frame-slab counter deltas for tests: how many coroutine frames a piece of
// simulated code allocated, reused or still holds, measured against the
// calling thread's context slab (tests in one binary share it).
#pragma once

#include <cstdint>

#include "sim/context.hpp"
#include "sim/slab.hpp"

namespace dcs::sim {

/// Deltas against this thread's slab counters since construction.
struct StatDelta {
  detail::FrameSlab::Stats before = context().slab().stats();

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

}  // namespace dcs::sim
