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
//   calendar     future timers within ~4 ms of now, bucketed by bits 12+ of
//   wheel        their deadline (1024 buckets x 4096 ns).  Buckets hold a
//                few unsorted entries each; popping min-scans the first
//                occupied bucket, found via a 1024-bit occupancy bitmap.
//   overflow     far-future timers beyond the wheel window, in one (time,
//   heap         seq) min-heap.  When the wheel drains, the window re-bases
//                at the current time and in-window overflow entries migrate.
//
// Ordering invariant: dispatch order is lexicographic (time, seq) with seq
// assigned at schedule time.  The split preserves it without a global
// comparison structure because a timer for time T is always scheduled while
// now < T, so every timer seq at T is smaller than every ready-ring seq
// enqueued at T; draining same-time timers before the ring is exactly
// (time, seq) order.
//
// The per-dispatch instrumentation cost is one cached pointer test: the
// audit/trace hook is sampled once per run_until call, so hooks must be
// (un)installed only while the loop is not running.
#pragma once

#include <array>
#include <bit>
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
    if (timer_count_ != 0) return next_timer_ > now_ ? next_timer_ : now_;
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
  /// above anything the counter assigns, so same-time counter entries
  /// dispatch first and the (time, seq) fingerprint contribution of a
  /// cross delivery is a pure function of its delivery time.
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
  /// Requests the loop to stop after the current event.
  void stop() { stopped_ = true; }

  /// Number of live spawned root processes (for quiescence checks in tests).
  std::size_t live_roots() const { return root_count_; }
  /// Total events dispatched (determinism fingerprinting in tests).
  std::uint64_t events_dispatched() const { return dispatched_; }
  /// Sequence number of the most recently dispatched event.  Together with
  /// now() this names the dispatch's (time, seq) coordinates; the
  /// determinism oracle asserts the stream is lexicographically increasing.
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
  std::size_t wheel_timer_count() const { return wheel_count_; }
  std::size_t overflow_timer_count() const { return overflow_.size(); }
  std::size_t pending_timer_count() const { return timer_count_; }

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
  // The wheel covers kBuckets * 2^kBucketBits ns (~4.2 ms) from its base.
  static constexpr std::size_t kBucketBits = 12;
  static constexpr std::size_t kBuckets = 1024;
  static constexpr Time kNever = kForever;

  // Entries snapshot the scheduling strand's trace context.  The engine
  // installs it before the resume so spawned roots and woken waiters start
  // with a follows-from link; awaiters that saved their own context in
  // await_suspend overwrite it again in await_resume.
  struct ReadyEntry {
    std::coroutine_handle<> h;
    std::uint64_t seq;
    StrandCtx ctx;
  };
  struct TimerEntry {
    Time t;
    std::uint64_t seq;
    std::coroutine_handle<> h;
    StrandCtx ctx;
  };

  void ring_push(std::coroutine_handle<> h, std::uint64_t seq) {
    if (ring_size_ == ring_.size()) ring_grow();
    ring_[(ring_head_ + ring_size_) & (ring_.size() - 1)] =
        ReadyEntry{h, seq, strand_ctx()};
    ++ring_size_;
  }
  void ring_grow();

  void timer_push(TimerEntry e);
  TimerEntry timer_pop();
  void rebase_wheel();
  std::size_t first_occupied_from(std::size_t slot) const;

  void reap_finished();

  // Ready ring: FIFO over a power-of-two buffer.
  std::vector<ReadyEntry> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;

  // Calendar wheel + overflow heap.  `wheel_base_` is the absolute bucket
  // number (time >> kBucketBits) slot 0 maps to; the window never rotates,
  // it re-bases when the wheel is empty.
  std::array<std::vector<TimerEntry>, kBuckets> wheel_;
  std::uint64_t wheel_bits_[kBuckets / 64] = {};
  std::uint64_t wheel_base_ = 0;
  std::size_t wheel_count_ = 0;
  std::vector<TimerEntry> overflow_;
  std::size_t timer_count_ = 0;  // wheel_count_ + overflow_.size()
  Time next_timer_ = kNever;     // min pending timer deadline (valid iff any)

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
