// Coroutine task type for the discrete-event simulator.
//
// `Task<T>` is a lazy coroutine: creating one does not run any code; it runs
// when awaited (as a subroutine of another task) or when handed to
// `Engine::spawn` (as a detached root process).  Completion resumes the
// awaiting coroutine by symmetric transfer; exceptions propagate to the
// awaiter, or — for root processes — abort the simulation run.
//
// Ownership: a Task object owns its coroutine frame.  `Engine::spawn` takes
// over ownership of root frames; awaited child frames are owned by the Task
// object living in the parent's frame, so tearing down a root tears down its
// whole call tree.  `Engine::when_all` children keep being owned by their
// Task objects but complete through a shared JoinState instead of a
// continuation (see engine.hpp).
//
// Frames are allocated from the current execution context's FrameSlab
// (slab.hpp, context.hpp) via the promise's operator new/delete:
// spawn/finish/respawn churn recycles frames out of free lists instead of
// hitting the general-purpose heap.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "sim/context.hpp"

namespace dcs::sim {

class Engine;

namespace detail {

/// Fan-out bookkeeping shared by an `Engine::when_all` call and its
/// children; lives in the when_all coroutine frame, which outlives every
/// child completion.
struct JoinState {
  std::size_t remaining;
  std::coroutine_handle<> waiter;
  Engine* eng;
};

/// Part of the promise shared by all Task instantiations.
struct PromiseBase {
  std::coroutine_handle<> continuation;  // resumed when this task completes
  Engine* owner = nullptr;               // non-null only for spawned roots
  JoinState* join = nullptr;             // non-null only for when_all children
  std::exception_ptr error;

  // Intrusive membership in the owning engine's live-root list (roots only;
  // replaces the per-spawn hash-map insert/erase the engine used to pay).
  PromiseBase* root_next = nullptr;
  PromiseBase** root_pprev = nullptr;
  std::coroutine_handle<> self;  // set by spawn; used for teardown

  // Route coroutine frames through the slab.  Both the sized and unsized
  // delete are provided: the frame's own size is recorded in a block
  // header, so either entry point finds the right free list.
  static void* operator new(std::size_t size) {
    return context().slab().allocate(size);
  }
  static void operator delete(void* p) noexcept {
    context().slab().deallocate(p);
  }
  static void operator delete(void* p, std::size_t) noexcept {
    context().slab().deallocate(p);
  }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept;
    void await_resume() const noexcept {}
  };
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_value(T v) { value.emplace(std::move(v)); }
    void unhandled_exception() { error = std::current_exception(); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  /// Releases ownership of the frame (used by Engine::spawn).
  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, {});
  }

  struct Awaiter {
    std::coroutine_handle<promise_type> handle;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
      handle.promise().continuation = parent;
      return handle;  // start the child now (symmetric transfer)
    }
    T await_resume() {
      auto& p = handle.promise();
      if (p.error) std::rethrow_exception(p.error);
      DCS_CHECK_MSG(p.value.has_value(), "task completed without a value");
      return std::move(*p.value);
    }
  };

  /// Awaiting runs the task to completion as a subroutine.
  Awaiter operator co_await() && {
    DCS_CHECK_MSG(handle_, "co_await on empty Task");
    return Awaiter{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { error = std::current_exception(); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, {});
  }

  struct Awaiter {
    std::coroutine_handle<promise_type> handle;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
      handle.promise().continuation = parent;
      return handle;
    }
    void await_resume() {
      auto& p = handle.promise();
      if (p.error) std::rethrow_exception(p.error);
    }
  };

  Awaiter operator co_await() && {
    DCS_CHECK_MSG(handle_, "co_await on empty Task");
    return Awaiter{handle_};
  }

 private:
  friend class Engine;  // when_all wires children to a JoinState in place

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace dcs::sim
