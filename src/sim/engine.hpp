// Deterministic discrete-event simulation engine.
//
// Single-threaded virtual-time event loop.  Coroutines suspend on awaitables
// (delays, events, channels, semaphores) and are resumed by the loop in
// (time, insertion-sequence) order, so every run with the same seed replays
// identically.  All simulated time is in nanoseconds.
//
// Event storage is split by destination time (docs/ARCHITECTURE.md, "Engine
// internals"):
//
//   ready ring   entries scheduled at the current time (wake-ups, yields,
//                spawns).  A plain FIFO ring buffer: same-time dispatch order
//                is insertion order, so no comparisons at all on the
//                schedule_now fast path.
//   timer heap   every future timer, in one contiguous 4-ary (time, seq)
//                min-heap.  A partition keeps a few dozen timers pending, so
//                the whole heap stays cache-resident; each level compares
//                the 128-bit key (time << 64 | seq) of up to four children.
//
// Ordering invariant: dispatch order is lexicographic (time, seq) with seq
// assigned at schedule time.  The split preserves it without a global
// comparison structure because a timer for time T is always scheduled while
// now < T, so every timer seq at T is smaller than every ready-ring seq
// enqueued at T; draining same-time timers before the ring is exactly
// (time, seq) order.  The one exception is a cross wake (kCrossSeq below).
//
// The per-dispatch instrumentation cost is one cached pointer test: the
// audit/trace hook is sampled once per run_until call, so hooks must be
// (un)installed only while the loop is not running.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "sim/audit_hook.hpp"
#include "sim/stall_hook.hpp"
#include "sim/strand.hpp"
#include "sim/task.hpp"

namespace dcs::sim {

using Time = SimNanos;

class Engine {
 public:
  /// "No pending event" / "run unbounded" sentinel time.
  static constexpr Time kForever = ~Time{0};

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  Time now() const { return now_; }

  /// Earliest pending dispatch time: now() when same-time work sits in the
  /// ready ring, the minimum pending timer deadline otherwise, kForever when
  /// the engine is fully drained (parked strands hold no events).  The
  /// sharded runner (sim/shard.hpp) uses this to compute the global minimum
  /// the conservative-PDES safe horizon derives from.
  Time next_event_time() const {
    if (ring_size_ != 0) return now_;
    if (!timers_.empty()) return std::max(timers_.front().t, now_);
    return kForever;
  }

  /// Schedules a raw coroutine handle to resume at absolute time `t >= now`.
  void schedule(std::coroutine_handle<> h, Time t) {
    DCS_CHECK_MSG(t >= now_, "cannot schedule into the past");
    if (t == now_) {
      ring_push(h, seq_++);
    } else {
      timer_push(TimerEntry{t, seq_++, h, strand_ctx()});
    }
    if (auto* hook = audit_hook()) hook->on_schedule(h.address());
  }

  /// Schedules at the current time (runs after already-queued same-time work).
  void schedule_now(std::coroutine_handle<> h) {
    ring_push(h, seq_++);
    if (auto* hook = audit_hook()) hook->on_schedule(h.address());
  }

  /// Sequence number of every cross-shard wake: a fixed value in a band
  /// above anything the counter assigns, so the (time, seq) fingerprint
  /// contribution of a cross delivery is a pure function of its delivery
  /// time.  A cross wake is a timer: at time T it dispatches after the
  /// counter-assigned timers due at T but BEFORE the ready-ring entries
  /// strands enqueue at T after T's first timer, whose seqs are smaller.
  /// E.g. timer (10, 2), then cross (10, kCrossSeq), then the yield the
  /// timer's strand queued, (10, 3).  So the stream is not lexicographic in
  /// (t, seq) at a cross-wake time, but the order is the same for every
  /// worker count and cut, and fingerprints depend on it.
  static constexpr std::uint64_t kCrossSeq = std::uint64_t{1} << 62;

  /// Schedules a cross-shard delivery wake (sim/shard.hpp) at strictly
  /// future time `t` WITHOUT consuming a sequence number.  The runner calls
  /// this at window start, a point that moves with worker count and
  /// run_until chop points; drawing from seq_ here would make fingerprints
  /// depend on both.  At most one wake per (strand, time) — the fixed seq
  /// never has to break a tie against another cross entry.
  void schedule_cross(std::coroutine_handle<> h, Time t) {
    DCS_CHECK_MSG(t > now_, "cross wake must be strictly in the future");
    timer_push(TimerEntry{t, kCrossSeq, h, strand_ctx()});
    if (auto* hook = audit_hook()) hook->on_schedule(h.address());
  }

  /// Launches a detached root process.  The engine owns its frame.
  void spawn(Task<void> task);

  /// Runs until no events remain.  Rethrows the first root-process exception.
  void run();
  /// Runs until the virtual clock would pass `t` (events at exactly `t` run).
  /// Remaining events stay queued; now() is clamped to `t` on return.
  void run_until(Time t);
  /// The clock clamp of run_until(t) on an engine with nothing due at or
  /// before `t` (next_event_time() > t): dispatches nothing.  The sharded
  /// runner applies it to idle partitions instead of running them.
  void advance_idle(Time t) {
    DCS_CHECK_MSG(next_event_time() > t, "advance_idle over pending work");
    if (now_ < t) now_ = t;
  }
  /// Requests the loop to stop after the current event.
  void stop() { stopped_ = true; }

  /// Number of live spawned root processes (for quiescence checks in tests).
  std::size_t live_roots() const { return root_count_; }
  /// Total events dispatched (determinism fingerprinting in tests).
  std::uint64_t events_dispatched() const { return dispatched_; }
  /// Sequence number of the most recently dispatched event.  Together with
  /// now() this names the dispatch's (time, seq) coordinates; the
  /// determinism oracle asserts the stream is lexicographically increasing
  /// (for an engine with no cross wakes, see kCrossSeq).
  std::uint64_t last_dispatch_seq() const { return last_seq_; }
  /// FNV-style hash over every dispatched (time, seq) pair.  Two runs that
  /// dispatched the same events in the same order have the same value;
  /// cheap enough to mix unconditionally on every dispatch.
  std::uint64_t dispatch_fingerprint() const { return fingerprint_; }
  /// Host-time telemetry: while enabled, run()/run_until() add the host
  /// (wall-clock) nanoseconds they spend to host_run_ns().  This is the run
  /// phase of a scenario, without the setup and teardown around it.  Off by
  /// default; no simulated state reads it.
  void time_host_runs(bool on) { time_host_runs_ = on; }
  std::uint64_t host_run_ns() const { return host_run_ns_; }

  // Dispatch-structure occupancy, exposed for post-mortem engine-state
  // snapshots (src/trace/flight).  All O(1).
  std::size_t ready_ring_size() const { return ring_size_; }
  std::size_t pending_timer_count() const { return timers_.size(); }

  /// Awaitable: suspend for `d` nanoseconds of virtual time.
  auto delay(Time d) {
    struct Awaiter {
      Engine& eng;
      Time dur;
      std::uint64_t audit_token = 0;
      StrandCtx saved_ctx{};
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        eng.schedule(h, eng.now_ + dur);
        saved_ctx = strand_ctx();
        if (auto* hook = audit_hook()) audit_token = hook->suspend_strand();
      }
      void await_resume() const noexcept {
        strand_ctx() = saved_ctx;
        if (auto* hook = audit_hook()) hook->resume_strand(audit_token);
      }
    };
    return Awaiter{*this, d};
  }

  /// Awaitable: yield to other ready coroutines at the current time.
  auto yield() { return delay(0); }

  /// Runs all of `tasks` concurrently; completes when the last one does.
  Task<void> when_all(std::vector<Task<void>> tasks);

  // -- internal hooks (used by Task's final awaiter) --
  void on_root_done(detail::PromiseBase& p);
  void on_child_error(std::exception_ptr error);

 private:
  // Entries snapshot the scheduling strand's trace context.  The engine
  // installs it before the resume so spawned roots and woken waiters start
  // with a follows-from link; awaiters that saved their own context in
  // await_suspend overwrite it again in await_resume.
  struct ReadyEntry {
    std::coroutine_handle<> h;
    std::uint64_t seq;
    StrandCtx ctx;
  };
  // (time << 64 | seq): one integer compare orders two timers.
  __extension__ typedef unsigned __int128 TimerKey;
  struct TimerEntry {
    Time t;
    std::uint64_t seq;
    std::coroutine_handle<> h;
    StrandCtx ctx;
    TimerKey key() const { return (static_cast<TimerKey>(t) << 64) | seq; }
  };

  void ring_push(std::coroutine_handle<> h, std::uint64_t seq) {
    if (ring_size_ == ring_.size()) ring_grow();
    ring_[(ring_head_ + ring_size_) & (ring_.size() - 1)] =
        ReadyEntry{h, seq, strand_ctx()};
    ++ring_size_;
  }
  void ring_grow();

  void timer_push(const TimerEntry& e);
  TimerEntry timer_pop();

  void reap_finished();

  // Ready ring: FIFO over a power-of-two buffer.
  std::vector<ReadyEntry> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;

  // Timer heap: 4-ary min-heap on key(), children of i at 4i+1 .. 4i+4.
  std::vector<TimerEntry> timers_;

  // Live spawned roots: intrusive doubly-linked list through PromiseBase.
  detail::PromiseBase* roots_head_ = nullptr;
  std::size_t root_count_ = 0;
  std::vector<std::coroutine_handle<>> finished_;

  std::exception_ptr error_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t last_seq_ = 0;
  std::uint64_t fingerprint_ = 0xcbf29ce484222325ULL;
  std::uint64_t host_run_ns_ = 0;
  bool stopped_ = false;
  bool time_host_runs_ = false;
};

namespace detail {

template <typename Promise>
std::coroutine_handle<> PromiseBase::FinalAwaiter::await_suspend(
    std::coroutine_handle<Promise> h) noexcept {
  auto& promise = h.promise();
  if (promise.owner != nullptr) {
    // Root process: hand the frame back to the engine for deferred destruction.
    promise.owner->on_root_done(promise);
    return std::noop_coroutine();
  }
  if (JoinState* join = promise.join) {
    // when_all child.  A failure aborts the run (the error surfaces from
    // run(), and the joiner is deliberately never woken — matching a failed
    // child having skipped its countdown).  Success counts down and wakes
    // the joiner after the last child; joining is a sync edge from every
    // finishing child, not just the one that schedules the wake.
    if (promise.error) {
      join->eng->on_child_error(promise.error);
    } else {
      if (auto* hook = audit_hook()) hook->release(&join->remaining);
      if (--join->remaining == 0 && join->waiter) {
        join->eng->schedule_now(join->waiter);
      }
    }
    return std::noop_coroutine();
  }
  if (promise.continuation) return promise.continuation;
  return std::noop_coroutine();
}

}  // namespace detail

}  // namespace dcs::sim
