// Synchronization primitives for simulated processes.
//
// All wake-ups are routed through the engine queue (scheduled at the current
// virtual time) rather than resumed inline, which keeps stacks shallow and
// makes wake ordering deterministic (FIFO by enqueue sequence).
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "sim/audit_hook.hpp"
#include "sim/engine.hpp"

namespace dcs::sim {

namespace detail {

/// Shared suspension logic for every primitive that parks a coroutine on a
/// FIFO wait list: saving/restoring the strand context and reporting the
/// suspend/resume (and optional acquire) edges to the audit hook.  The
/// strand-level hook calls fire only when the awaiter actually suspended —
/// an await_ready fast path never was a strand switch, so it must not
/// report one.  The acquire edge on `sync_obj` (when set) is unconditional:
/// taking a permit or observing a set event synchronizes-with the releaser
/// whether or not the taker had to wait.  A `Waiter` other than the handle
/// carries what the primitive needs to know about each parked strand.
template <typename Waiter = std::coroutine_handle<>>
struct ParkAwaiter {
  std::deque<Waiter>& queue;
  const void* sync_obj = nullptr;  // reported acquired on resume, if set
  std::uint64_t audit_token = 0;
  StrandCtx saved_ctx{};
  bool suspended = false;

  void park(Waiter w) {
    queue.push_back(w);
    saved_ctx = strand_ctx();
    suspended = true;
    if (auto* hook = audit_hook()) audit_token = hook->suspend_strand();
  }

  void unpark() const noexcept {
    if (suspended) strand_ctx() = saved_ctx;
    if (auto* hook = audit_hook()) {
      if (suspended) hook->resume_strand(audit_token);
      if (sync_obj != nullptr) hook->acquire(sync_obj);
    }
  }
};

}  // namespace detail

/// One-shot (resettable) broadcast event.
class Event {
 public:
  explicit Event(Engine& eng) : eng_(eng) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Wakes all current waiters and latches the set state.
  void set() {
    if (auto* hook = audit_hook()) hook->release(this);
    set_ = true;
    for (auto h : waiters_) eng_.schedule_now(h);
    waiters_.clear();
  }

  /// Un-latches; future wait() calls block again.
  void reset() { set_ = false; }

  auto wait() {
    struct Awaiter : detail::ParkAwaiter<> {
      Event& ev;
      bool await_ready() const noexcept { return ev.set_; }
      void await_suspend(std::coroutine_handle<> h) { park(h); }
      void await_resume() const noexcept { unpark(); }
    };
    return Awaiter{{waiters_, this}, *this};
  }

 private:
  Engine& eng_;
  std::deque<std::coroutine_handle<>> waiters_;
  bool set_ = false;
};

/// Counting semaphore with FIFO wake order.
class Semaphore {
 public:
  Semaphore(Engine& eng, std::size_t initial) : eng_(eng), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  std::size_t available() const { return count_; }
  std::size_t waiting() const { return waiters_.size(); }

  auto acquire() {
    struct Awaiter : detail::ParkAwaiter<> {
      Semaphore& sem;
      bool await_ready() const noexcept {
        if (sem.count_ > 0) {
          --sem.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { park(h); }
      void await_resume() const noexcept { unpark(); }
    };
    return Awaiter{{waiters_, this}, *this};
  }

  void release() {
    if (auto* hook = audit_hook()) hook->release(this);
    if (!waiters_.empty()) {
      // Hand the permit directly to the first waiter.
      auto h = waiters_.front();
      waiters_.pop_front();
      eng_.schedule_now(h);
    } else {
      ++count_;
    }
  }

 private:
  Engine& eng_;
  std::size_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Mutual exclusion; RAII guard via `co_await mtx.scoped()`.
class Mutex {
 public:
  explicit Mutex(Engine& eng) : sem_(eng, 1) {}

  auto acquire() { return sem_.acquire(); }
  void release() { sem_.release(); }

  class Guard {
   public:
    explicit Guard(Mutex* m) : m_(m) {}
    Guard(Guard&& other) noexcept : m_(std::exchange(other.m_, nullptr)) {}
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        unlock();
        m_ = std::exchange(other.m_, nullptr);
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { unlock(); }
    void unlock() {
      if (m_ != nullptr) {
        m_->release();
        m_ = nullptr;
      }
    }

   private:
    Mutex* m_;
  };

  /// A frameless awaiter, not a Task: `auto guard = co_await m.scoped();`
  /// takes the mutex (FIFO, as acquire()) and allocates no coroutine frame.
  auto scoped() {
    struct Awaiter {
      decltype(std::declval<Semaphore&>().acquire()) take;
      Mutex* m;
      bool await_ready() const noexcept { return take.await_ready(); }
      void await_suspend(std::coroutine_handle<> h) { take.await_suspend(h); }
      Guard await_resume() const noexcept {
        take.await_resume();
        return Guard{m};
      }
    };
    return Awaiter{sem_.acquire(), this};
  }

 private:
  Semaphore sem_;
};

/// FIFO message queue; unbounded unless a capacity is given.
template <typename T>
class Channel {
 public:
  explicit Channel(Engine& eng, std::size_t capacity = 0)
      : eng_(eng), capacity_(capacity) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// Non-suspending push (only valid for unbounded channels).
  void push(T item) {
    DCS_CHECK_MSG(capacity_ == 0, "push() on bounded channel; use send()");
    if (auto* hook = audit_hook()) hook->release(this);
    items_.push_back(std::move(item));
    wake_one_receiver();
  }

  /// Suspends while the channel is full (bounded channels only).
  Task<void> send(T item) {
    while (capacity_ != 0 && items_.size() >= capacity_) {
      co_await suspend_on(send_waiters_);
    }
    if (auto* hook = audit_hook()) hook->release(this);
    items_.push_back(std::move(item));
    wake_one_receiver();
  }

  /// Suspends until an item is available.
  ///
  /// A frameless awaiter, not a Task: receiving allocates no coroutine
  /// frame.  Waking a parked receiver reserves the queue head for it
  /// (`reserved_`), so a woken receiver never races a fast-path arrival for
  /// the item and needs no re-check loop.
  auto recv() {
    struct Awaiter : detail::ParkAwaiter<> {
      Channel& ch;
      bool await_ready() const noexcept {
        return ch.items_.size() > ch.reserved_;
      }
      void await_suspend(std::coroutine_handle<> h) { park(h); }
      T await_resume() {
        if (suspended) --ch.reserved_;
        unpark();
        return ch.take_front();
      }
    };
    return Awaiter{{recv_waiters_}, *this};
  }

  /// Non-suspending receive attempt (never takes an item already promised
  /// to a woken receiver).
  std::optional<T> try_recv() {
    if (items_.size() <= reserved_) return std::nullopt;
    return take_front();
  }

 private:
  auto suspend_on(std::deque<std::coroutine_handle<>>& list) {
    struct Awaiter : detail::ParkAwaiter<> {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { park(h); }
      void await_resume() const noexcept { unpark(); }
    };
    return Awaiter{{list}};
  }

  /// Pops the head item and hands a freed capacity slot to the first parked
  /// sender (shared by recv/try_recv).
  T take_front() {
    if (auto* hook = audit_hook()) hook->acquire(this);
    T item = std::move(items_.front());
    items_.pop_front();
    // Parked senders loop on the capacity check, so no reservation needed.
    if (!send_waiters_.empty()) {
      eng_.schedule_now(send_waiters_.front());
      send_waiters_.pop_front();
    }
    return item;
  }

  void wake_one_receiver() {
    if (!recv_waiters_.empty()) {
      ++reserved_;
      eng_.schedule_now(recv_waiters_.front());
      recv_waiters_.pop_front();
    }
  }

  Engine& eng_;
  std::size_t capacity_;
  std::deque<T> items_;
  std::deque<std::coroutine_handle<>> recv_waiters_;
  std::deque<std::coroutine_handle<>> send_waiters_;
  std::size_t reserved_ = 0;  // queued items promised to woken receivers
};

}  // namespace dcs::sim
