// Execution contexts: the ambient state simulated code reaches without an
// argument.
//
// Code running inside an engine finds a handful of things ambiently, through
// free functions rather than parameters: the coroutine frame slab
// (slab.hpp), the audit and stall hooks (audit_hook.hpp, stall_hook.hpp), and
// in the layers above sim the metrics registry, the cached metric handles,
// the trace record stream and the hot-key sink (trace/trace.hpp,
// trace/hot.hpp).  All of them live in one sim::Context, and the context the
// calling thread currently runs in is reached through a single thread_local
// pointer.
//
//   - Every OS thread has a default context of its own, bound on first use.
//     A single-threaded program only ever sees that one, so it behaves as if
//     every piece of ambient state were a thread_local of its own.
//   - A sharded run (sim/shard.hpp) owns one context per partition, created
//     with the run; none is the caller's.  Whichever OS thread claims a
//     partition installs the partition's context while it runs it
//     (ContextScope), so a partition's setup, dispatches, deliveries and
//     teardown always see the same slab, hooks, registry and sinks, even
//     when the thread that runs them changes from one window to the next.
//
// A context is not thread-safe: at most one thread runs in it at a time.
// The sharded runner's hand-offs (the claim word and the done count in
// shard.cpp) order one thread's use of a partition context before the next.
//
// Upper layers keep their per-context state in `Context::local<T>()`: one
// default-constructed T per context, created on first use and destroyed
// with the context.  sim never names those types, so the layering stays
// sim <- trace.
#pragma once

#include <cstddef>
#include <utility>

#include "sim/slab.hpp"

namespace dcs::sim {

class AuditHook;
class StallHook;

class Context {
 public:
  Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;
  ~Context();

  /// Where every coroutine frame created in this context is allocated.
  detail::FrameSlab& slab() { return slab_; }
  /// The installed dynamic checker (sim::audit_hook()), or nullptr.
  AuditHook*& audit_hook() { return audit_hook_; }
  /// The installed stall detector (sim::stall_hook()), or nullptr.
  StallHook*& stall_hook() { return stall_hook_; }

  /// This context's instance of `T`, default-constructed on first use.
  template <class T>
  T& local() {
    static const std::size_t id = next_local_id();
    if (void* p = locals_[id].ptr) [[likely]] {
      return *static_cast<T*>(p);
    }
    T* made = new T();
    locals_[id] = Local{made, [](void* p) { delete static_cast<T*>(p); }};
    return *made;
  }

 private:
  struct Local {
    void* ptr = nullptr;
    void (*destroy)(void*) = nullptr;
  };
  /// Upper-layer types that keep per-context state (the registry, the
  /// trace and hot sinks, one handle cache per instrumented layer).
  static constexpr std::size_t kMaxLocals = 32;

  /// A fresh process-wide slot index, one per local<T> type.
  static std::size_t next_local_id();

  detail::FrameSlab slab_;
  AuditHook* audit_hook_ = nullptr;
  StallHook* stall_hook_ = nullptr;
  Local locals_[kMaxLocals] = {};
};

namespace detail {

/// The calling thread's current context; nullptr until first use.
inline Context*& current_context() {
  static thread_local Context* ctx = nullptr;
  return ctx;
}

/// Binds the calling thread's default context and returns it.
Context& bind_thread_context();

}  // namespace detail

/// The context the calling thread runs in.
inline Context& context() {
  Context* ctx = detail::current_context();
  return ctx != nullptr ? *ctx : detail::bind_thread_context();
}

/// Runs the enclosing scope in `ctx`, then restores the thread's previous
/// context.
class ContextScope {
 public:
  explicit ContextScope(Context& ctx)
      : prev_(std::exchange(detail::current_context(), &ctx)) {}
  ~ContextScope() { detail::current_context() = prev_; }
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  Context* prev_;
};

}  // namespace dcs::sim
