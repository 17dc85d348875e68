#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>

namespace dcs::sim {

namespace {

/// Min-heap comparator over (time, seq): used for wheel buckets and the
/// overflow heap via std::push_heap/pop_heap.
struct TimerLater {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }
};

}  // namespace

Engine::~Engine() {
  reap_finished();
  // Destroy any still-live root frames; child frames are owned by parents and
  // are destroyed transitively.  Queued handles into destroyed frames are
  // never resumed after this point, so dropping the queues is safe.
  for (detail::PromiseBase* p = roots_head_; p != nullptr;) {
    detail::PromiseBase* next = p->root_next;
    p->self.destroy();
    p = next;
  }
}

void Engine::ring_grow() {
  const std::size_t old_cap = ring_.size();
  std::vector<ReadyEntry> bigger(std::max<std::size_t>(64, old_cap * 2));
  for (std::size_t i = 0; i < ring_size_; ++i) {
    bigger[i] = ring_[(ring_head_ + i) & (old_cap - 1)];
  }
  ring_ = std::move(bigger);
  ring_head_ = 0;
}

void Engine::timer_push(TimerEntry e) {
  ++timer_count_;
  if (e.t < next_timer_) next_timer_ = e.t;
  std::uint64_t slot = (e.t >> kBucketBits) - wheel_base_;
  if (slot >= kBuckets) {
    // Out of window.  If the wheel is empty nothing pins the base, so slide
    // the window up to the current time first; the entry (and any overflow
    // now in range) may then land in a bucket.
    if (wheel_count_ == 0) {
      rebase_wheel();
      slot = (e.t >> kBucketBits) - wheel_base_;
    }
    if (slot >= kBuckets) {
      overflow_.push_back(e);
      std::push_heap(overflow_.begin(), overflow_.end(), TimerLater{});
      return;
    }
  }
  auto& bucket = wheel_[slot];
  bucket.push_back(e);
  std::push_heap(bucket.begin(), bucket.end(), TimerLater{});
  wheel_bits_[slot >> 6] |= 1ULL << (slot & 63);
  ++wheel_count_;
}

void Engine::rebase_wheel() {
  wheel_base_ = now_ >> kBucketBits;
  // Migrate overflow entries that the new window covers.  This keeps the
  // invariant that every overflow deadline lies beyond every wheel deadline,
  // so the pop path never has to compare the two.
  std::size_t kept = 0;
  for (TimerEntry& e : overflow_) {
    const std::uint64_t slot = (e.t >> kBucketBits) - wheel_base_;
    if (slot < kBuckets) {
      auto& bucket = wheel_[slot];
      bucket.push_back(e);
      std::push_heap(bucket.begin(), bucket.end(), TimerLater{});
      wheel_bits_[slot >> 6] |= 1ULL << (slot & 63);
      ++wheel_count_;
    } else {
      overflow_[kept++] = e;
    }
  }
  if (kept != overflow_.size()) {
    overflow_.resize(kept);
    std::make_heap(overflow_.begin(), overflow_.end(), TimerLater{});
  }
}

std::size_t Engine::first_occupied_from(std::size_t slot) const {
  // The caller guarantees an occupied bucket at `slot` or beyond exists, so
  // the scan terminates.
  std::size_t word = slot >> 6;
  std::uint64_t bits = wheel_bits_[word] & (~0ULL << (slot & 63));
  while (bits == 0) bits = wheel_bits_[++word];
  return (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
}

Engine::TimerEntry Engine::timer_pop() {
  --timer_count_;
  TimerEntry out;
  if (wheel_count_ != 0) {
    // Every wheel deadline is >= now_ and this scan found the first occupied
    // bucket, so that bucket holds the global minimum (bucket time ranges
    // are disjoint and ordered, and the overflow invariant puts every
    // overflow deadline after every wheel deadline).
    const std::uint64_t now_bucket = now_ >> kBucketBits;
    const std::size_t slot = first_occupied_from(
        now_bucket > wheel_base_ ? now_bucket - wheel_base_ : 0);
    auto& bucket = wheel_[slot];
    std::pop_heap(bucket.begin(), bucket.end(), TimerLater{});
    out = bucket.back();
    bucket.pop_back();
    --wheel_count_;
    if (!bucket.empty()) {
      next_timer_ = bucket.front().t;
      return out;
    }
    wheel_bits_[slot >> 6] &= ~(1ULL << (slot & 63));
    if (wheel_count_ != 0) {
      // Resume the bitmap scan where this one left off rather than
      // restarting from now_'s bucket.
      next_timer_ = wheel_[first_occupied_from(slot + 1)].front().t;
      return out;
    }
  } else {
    std::pop_heap(overflow_.begin(), overflow_.end(), TimerLater{});
    out = overflow_.back();
    overflow_.pop_back();
  }
  next_timer_ = overflow_.empty() ? kNever : overflow_.front().t;
  return out;
}

void Engine::spawn(Task<void> task) {
  auto h = task.release();
  DCS_CHECK_MSG(h, "spawn of empty task");
  auto& p = h.promise();
  p.owner = this;
  p.self = h;
  p.root_next = roots_head_;
  p.root_pprev = &roots_head_;
  if (roots_head_ != nullptr) roots_head_->root_pprev = &p.root_next;
  roots_head_ = &p;
  ++root_count_;
  schedule_now(h);
  // After schedule_now so the fresh-strand mark survives the snapshot taken
  // by on_schedule.
  if (auto* hook = audit_hook()) hook->on_spawn(h.address());
}

void Engine::on_root_done(detail::PromiseBase& p) {
  *p.root_pprev = p.root_next;
  if (p.root_next != nullptr) p.root_next->root_pprev = p.root_pprev;
  --root_count_;
  finished_.push_back(p.self);
  if (p.error && !error_) {
    error_ = p.error;
    stopped_ = true;
  }
}

void Engine::on_child_error(std::exception_ptr error) {
  if (error && !error_) {
    error_ = std::move(error);
    stopped_ = true;
  }
}

void Engine::reap_finished() {
  for (auto h : finished_) h.destroy();
  finished_.clear();
}

void Engine::run() { run_until(~Time{0}); }

void Engine::run_until(Time t) {
  // dcs-lint: allow(R1, host run time only feeds the dcs-bench-wall-v1
  // report, which is outside the byte-stability contract; no sim-visible
  // state reads this clock)
  using HostClock = std::chrono::steady_clock;
  const HostClock::time_point host_start =
      time_host_runs_ ? HostClock::now() : HostClock::time_point{};
  stopped_ = false;
  // The caller's strand context must not leak into dispatched strands, nor
  // the last strand's context into the caller.
  const StrandCtx caller_ctx = strand_ctx();
  // One sample per run: dispatching costs a single (predictable) branch on
  // this pointer instead of a hook check per callback site.
  AuditHook* const hook = audit_hook();
  StallHook* const stall = stall_hook();
  if (hook != nullptr) hook->on_run_start();
  // If now_ already passed the bound, every pending entry does too (nothing
  // is ever scheduled into the past), so the loop is skipped outright; inside
  // the loop, time only advances through the bound check below.
  if (now_ <= t) {
    while (!stopped_) {
      std::coroutine_handle<> h;
      std::uint64_t seq;
      if (timer_count_ != 0 && next_timer_ <= now_) {
        // Timers that have come due at the current time run before the ready
        // ring: their seqs predate every same-time ring entry (see header).
        const TimerEntry e = timer_pop();
        h = e.h;
        seq = e.seq;
        strand_ctx() = e.ctx;
      } else if (ring_size_ != 0) {
        const ReadyEntry& e = ring_[ring_head_ & (ring_.size() - 1)];
        ++ring_head_;
        --ring_size_;
        h = e.h;
        seq = e.seq;
        strand_ctx() = e.ctx;
      } else if (timer_count_ != 0) {
        if (next_timer_ > t) break;
        const TimerEntry e = timer_pop();
        // Ready ring empty and the next timer far away: the clock is about
        // to leap.  Only this rare time-advancing branch pays the check, so
        // the same-time dispatch fast paths stay untouched.
        if (stall != nullptr && e.t - now_ > stall->stall_horizon()) {
          stall->on_time_jump(now_, e.t);
        }
        now_ = e.t;
        h = e.h;
        seq = e.seq;
        strand_ctx() = e.ctx;
      } else {
        break;
      }
      ++dispatched_;
      last_seq_ = seq;
      fingerprint_ = (fingerprint_ ^ now_) * 0x100000001b3ULL;
      fingerprint_ = (fingerprint_ ^ seq) * 0x100000001b3ULL;
      if (hook != nullptr) hook->on_dispatch(h.address());
      h.resume();
      if (!finished_.empty()) reap_finished();
    }
  }
  strand_ctx() = caller_ctx;
  // An unbounded run that drained every queue with root processes still
  // alive is deadlocked: the parked strands can never be woken again.
  // Bounded runs exit with parked roots routinely, so only t == forever
  // counts.
  if (stall != nullptr && !stopped_ && t == kNever && root_count_ > 0) {
    stall->on_wedged(root_count_);
  }
  // Virtual time passes up to the bound even if no event lands exactly on it
  // (unless the loop was stopped early or drained an unbounded run).
  if (!stopped_ && now_ < t && t != ~Time{0}) now_ = t;
  if (hook != nullptr) hook->on_run_done();
  if (time_host_runs_) {
    host_run_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(HostClock::now() -
                                                             host_start)
            .count());
  }
  if (error_) {
    auto err = std::exchange(error_, nullptr);
    std::rethrow_exception(err);
  }
}

Task<void> Engine::when_all(std::vector<Task<void>> tasks) {
  // Children complete through the shared JoinState instead of a continuation
  // (Task's final awaiter).  They stay owned by `tasks`, which lives in this
  // frame until every child has finished, so no per-child wrapper root (and
  // no extra coroutine frame) is needed.
  detail::JoinState join{tasks.size(), {}, this};
  for (auto& task : tasks) {
    DCS_CHECK_MSG(task.handle_, "when_all over empty task");
    task.handle_.promise().join = &join;
    schedule_now(task.handle_);
    // After schedule_now so the fresh-strand mark survives the snapshot
    // taken by on_schedule (same as spawn).
    if (auto* hook = audit_hook()) hook->on_spawn(task.handle_.address());
  }
  if (join.remaining > 0) {
    struct Suspend {
      detail::JoinState& join;
      std::uint64_t audit_token = 0;
      StrandCtx saved_ctx{};
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        join.waiter = h;
        saved_ctx = strand_ctx();
        if (auto* hook = audit_hook()) audit_token = hook->suspend_strand();
      }
      void await_resume() const noexcept {
        strand_ctx() = saved_ctx;
        if (auto* hook = audit_hook()) {
          hook->resume_strand(audit_token);
          hook->acquire(&join.remaining);
        }
      }
    };
    co_await Suspend{join};
  }
}

}  // namespace dcs::sim
