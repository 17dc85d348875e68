// Synchronization primitives for simulated processes.
//
// All wake-ups are routed through the engine queue (scheduled at the current
// virtual time) rather than resumed inline, which keeps stacks shallow and
// makes wake ordering deterministic (FIFO by enqueue sequence).
//
// A primitive keeps its parked strands in a `detail::WaitList`: an
// intrusive FIFO whose links are the parked awaiters themselves.  An
// awaiter lives in its suspended coroutine's frame for as long as the
// strand is parked, so the list is two pointers and neither building a
// primitive nor parking on it allocates anything.  What follows from that:
//   - a primitive must not move while strands are parked on it (awaiters
//     point back at it), which is why every primitive is non-copyable and
//     an owner that must relocate them holds them by pointer;
//   - a parked awaiter must not move either: it is the materialised
//     operand of `co_await` (or a variable the frame awaits), and its copy
//     constructor is deleted;
//   - teardown in either order is safe: a frame destroyed while its strand
//     is parked unlinks its awaiter, and a list destroyed with strands on
//     it forgets them (they stay parked, as the engine's teardown expects).
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

class WaitList;

/// Shared suspension logic for every primitive that parks a coroutine on a
/// WaitList: linking the awaiter, saving/restoring the strand context and
/// reporting the suspend/resume (and optional acquire) edges to the audit
/// hook.  The strand-level hook calls fire only when the awaiter actually
/// suspended — an await_ready fast path never was a strand switch, so it
/// must not report one.  The acquire edge on `sync_obj` (when set) is
/// unconditional: taking a permit or observing a set event
/// synchronizes-with the releaser whether or not the taker had to wait.  A
/// primitive that needs more per parked strand (a cohort's read flag)
/// derives from this and reads the extra fields off the list's front.
struct ParkAwaiter {
  WaitList* list;                  // null once woken or forgotten
  const void* sync_obj = nullptr;  // reported acquired on resume, if set
  std::uint64_t audit_token = 0;
  StrandCtx saved_ctx{};
  std::coroutine_handle<> strand;  // set when parked
  ParkAwaiter* next = nullptr;     // the strand parked behind this one

  ParkAwaiter(WaitList& l, const void* obj = nullptr)
      : list(&l), sync_obj(obj) {}
  ParkAwaiter(const ParkAwaiter&) = delete;
  ParkAwaiter& operator=(const ParkAwaiter&) = delete;
  inline ~ParkAwaiter();

  bool suspended() const noexcept { return static_cast<bool>(strand); }

  inline void park(std::coroutine_handle<> h);

  void unpark() const noexcept {
    if (suspended()) strand_ctx() = saved_ctx;
    if (auto* hook = audit_hook()) {
      if (suspended()) hook->resume_strand(audit_token);
      if (sync_obj != nullptr) hook->acquire(sync_obj);
    }
  }
};

/// FIFO of parked awaiters, linked through their `next` fields.
class WaitList {
 public:
  WaitList() = default;
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;
  ~WaitList() {
    while (head_ != nullptr) std::exchange(head_, head_->next)->list = nullptr;
  }

  bool empty() const noexcept { return head_ == nullptr; }
  /// The longest-parked awaiter; the list must not be empty.
  ParkAwaiter& front() const noexcept { return *head_; }

  void push_back(ParkAwaiter& a) noexcept {
    a.next = nullptr;
    (head_ == nullptr ? head_ : tail_->next) = &a;
    tail_ = &a;
  }

  /// Unlinks the longest-parked awaiter and returns its strand.
  std::coroutine_handle<> pop_front() noexcept {
    ParkAwaiter& a = *head_;
    head_ = a.next;
    a.list = nullptr;
    return a.strand;
  }

  /// Unlinks `a` wherever it is (a frame destroyed while parked).
  void remove(ParkAwaiter& a) noexcept {
    ParkAwaiter* prev = nullptr;
    for (ParkAwaiter* p = head_; p != &a; p = p->next) prev = p;
    (prev == nullptr ? head_ : prev->next) = a.next;
    if (tail_ == &a) tail_ = prev;
    a.list = nullptr;
  }

 private:
  ParkAwaiter* head_ = nullptr;
  ParkAwaiter* tail_ = nullptr;  // meaningful only while head_ is set
};

ParkAwaiter::~ParkAwaiter() {
  if (suspended() && list != nullptr) list->remove(*this);
}

void ParkAwaiter::park(std::coroutine_handle<> h) {
  strand = h;
  list->push_back(*this);
  saved_ctx = strand_ctx();
  if (auto* hook = audit_hook()) audit_token = hook->suspend_strand();
}

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
    while (!waiters_.empty()) eng_.schedule_now(waiters_.pop_front());
  }

  /// Un-latches; future wait() calls block again.
  void reset() { set_ = false; }

  auto wait() {
    struct Awaiter : detail::ParkAwaiter {
      Event& ev;
      bool await_ready() const noexcept { return ev.set_; }
      void await_suspend(std::coroutine_handle<> h) { park(h); }
      void await_resume() const noexcept { unpark(); }
    };
    return Awaiter{{waiters_, this}, *this};
  }

 private:
  Engine& eng_;
  detail::WaitList waiters_;
  bool set_ = false;
};

/// Counting semaphore with FIFO wake order.
class Semaphore {
 public:
  Semaphore(Engine& eng, std::size_t initial) : eng_(eng), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  std::size_t available() const { return count_; }

  auto acquire() {
    struct Awaiter : detail::ParkAwaiter {
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
      eng_.schedule_now(waiters_.pop_front());
    } else {
      ++count_;
    }
  }

 private:
  Engine& eng_;
  std::size_t count_;
  detail::WaitList waiters_;
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
    struct Awaiter : detail::ParkAwaiter {
      Channel& ch;
      bool await_ready() const noexcept {
        return ch.items_.size() > ch.reserved_;
      }
      void await_suspend(std::coroutine_handle<> h) { park(h); }
      T await_resume() {
        if (suspended()) --ch.reserved_;
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
  auto suspend_on(detail::WaitList& list) {
    struct Awaiter : detail::ParkAwaiter {
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
    if (!send_waiters_.empty()) eng_.schedule_now(send_waiters_.pop_front());
    return item;
  }

  void wake_one_receiver() {
    if (!recv_waiters_.empty()) {
      ++reserved_;
      eng_.schedule_now(recv_waiters_.pop_front());
    }
  }

  Engine& eng_;
  std::size_t capacity_;
  std::deque<T> items_;
  detail::WaitList recv_waiters_;
  detail::WaitList send_waiters_;
  std::size_t reserved_ = 0;  // queued items promised to woken receivers
};

}  // namespace dcs::sim
