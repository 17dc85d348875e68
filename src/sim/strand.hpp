// Per-strand trace context.
//
// A "strand" is one logical chain of coroutine execution.  Each engine runs
// single-threaded, so the ambient context is one slot per OS thread; awaiters
// save it in await_suspend and restore it in await_resume (exactly like the
// audit tokens), and the engine installs the spawner's snapshot before the
// first resume of a spawned root so detached work inherits a follows-from
// link.  The slot lives in sim (not trace) because the engine and the sync
// primitives cannot depend on the trace layer.
//
// The slot is thread_local, not part of the execution context
// (sim/context.hpp): it names the strand running on this thread right now,
// every schedule and dispatch touches it, and Engine::run_until saves and
// restores it around each run, so it carries nothing from one run to the
// next.  A sharded run (sim/shard.hpp) starts every claimed partition with
// an empty slot, whichever thread runs it, so no strand leaks context into
// another partition.
//
// `request` is the causal request id a request-scoped tracer assigns
// (0 = untracked), `span` the innermost open span on this strand
// (0 = none).  Reading or writing the slot is two word moves — cheap
// enough to do unconditionally on every suspend/resume.
#pragma once

#include <cstdint>

namespace dcs::sim {

struct StrandCtx {
  std::uint64_t request = 0;
  std::uint64_t span = 0;
};

/// The ambient context of the strand currently running on this thread.
inline StrandCtx& strand_ctx() {
  static thread_local StrandCtx ctx;
  return ctx;
}

}  // namespace dcs::sim
