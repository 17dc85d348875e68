// Stall-detection interface for the flight recorder (see src/trace/flight).
//
// The engine publishes the two signals a post-mortem system needs to notice
// "no dispatch progress" without taxing the dispatch loop:
//
//   time jump   the ready ring is empty and the next timer is more than
//               stall_horizon() nanoseconds ahead, so the virtual clock is
//               about to leap.  Healthy workloads advance in small steps;
//               a large jump means every runnable strand is gone and only
//               slow timers (retry timeouts, patrol loops) remain — the
//               classic signature of a wedged request.
//   wedged      an unbounded run() drained every queue while spawned root
//               processes are still alive.  Those strands are parked on
//               events/channels nobody can ever signal; the simulation is
//               deadlocked and would silently return without this callback.
//
// Like sim::AuditHook, the hook is sampled once per run_until call, so the
// per-dispatch cost with no hook installed is zero and with one installed
// it is a single predictable branch on the rare time-advance path.  Install
// and uninstall only while the loop is not running.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "sim/context.hpp"

namespace dcs::sim {

class StallHook {
 public:
  StallHook() = default;
  StallHook(const StallHook&) = delete;
  StallHook& operator=(const StallHook&) = delete;
  virtual ~StallHook() = default;

  /// Virtual-time gap beyond which a clock advance counts as a jump.
  virtual SimNanos stall_horizon() const = 0;
  /// The clock is about to advance from `from` to `to`
  /// (to - from > stall_horizon()).  Called before now() moves.
  virtual void on_time_jump(SimNanos from, SimNanos to) = 0;
  /// An unbounded run() drained with `live_roots` root processes still
  /// parked: no event can ever wake them again.
  virtual void on_wedged(std::size_t live_roots) = 0;
};

/// The hook installed in the current execution context, or nullptr.  Per
/// context for the same reason as sim::audit_hook(): every engine of a
/// sharded run has a context of its own, and its stall detector must
/// watch only that engine.
inline StallHook*& stall_hook() { return context().stall_hook(); }

}  // namespace dcs::sim
