// Low-level instrumentation interface for dynamic checkers (see src/audit).
//
// The engine and the synchronization primitives publish the events a
// happens-before checker needs — coroutine scheduling, strand suspension and
// resumption, and release/acquire pairs on sync objects — through a single
// hook slot in the current execution context (sim/context.hpp).  The
// simulator itself has no idea what a checker does with them:
// `dcs::audit::Auditor` installs itself here, and with no hook installed
// every call site costs one context lookup and one pointer test.
//
// Vocabulary (mirrors docs/AUDIT.md):
//   strand   one logical thread of execution: a spawned root process and
//            everything it runs synchronously between suspension points.
//   token    opaque strand identity saved across a suspension so the checker
//            can re-establish "who is running" when the coroutine resumes.
//            0 is reserved for "nothing saved" (e.g. an awaiter whose
//            await_ready fast path never suspended).
#pragma once

#include <cstdint>

#include "sim/context.hpp"

namespace dcs::sim {

class AuditHook {
 public:
  AuditHook() = default;
  AuditHook(const AuditHook&) = delete;
  AuditHook& operator=(const AuditHook&) = delete;
  virtual ~AuditHook() = default;

  // --- engine scheduling ---

  /// A handle was queued for resumption.  The checker snapshots the
  /// scheduling strand's happens-before context: waking someone is an edge.
  virtual void on_schedule(void* handle) = 0;
  /// A handle queued by Engine::spawn: its first resumption starts a fresh
  /// strand (child of the spawning strand).
  virtual void on_spawn(void* handle) = 0;
  /// The engine is about to resume `handle`.
  virtual void on_dispatch(void* handle) = 0;

  // --- strand save/restore around suspension points ---

  /// Called from await_suspend: returns a token naming the current strand.
  virtual std::uint64_t suspend_strand() = 0;
  /// Called from await_resume with the token from suspend_strand (or 0 when
  /// the awaiter never suspended).  Re-installs the strand as current.
  virtual void resume_strand(std::uint64_t token) = 0;

  // --- run-loop barriers ---
  //
  // The process is single-threaded: everything the run-loop caller did
  // before entering run_until() happens-before every event dispatched in
  // that run, and everything dispatched happens-before the caller's code
  // after run_until() returns.  These two callbacks let the checker model
  // that, so test code inspecting memory between runs is never reported as
  // racing with strand accesses.

  /// run_until() entered: the calling context becomes a barrier source.
  virtual void on_run_start() = 0;
  /// run_until() returned: the calling context joins all strand histories.
  virtual void on_run_done() = 0;

  // --- release/acquire edges on sync objects ---

  /// The current strand released `obj` (event set, channel push, semaphore
  /// release): later acquirers of `obj` happen-after everything so far.
  virtual void release(const void* obj) = 0;
  /// The current strand acquired `obj` (event observed set, channel item
  /// received, semaphore permit taken).
  virtual void acquire(const void* obj) = 0;

  // --- cross-shard boundaries ---

  /// A sharded run (sim/shard.hpp) delivered an inbound cross-shard message
  /// on the current strand.  The sender ran in another partition's context
  /// under a different hook instance, so no release/acquire pairing is
  /// possible; instead the delivery opens a fresh vector-clock epoch on the
  /// receiving strand, ordered by the deterministic merge position (src
  /// shard, seq).
  /// Default: ignored, so checkers that predate sharding stay correct.
  virtual void on_cross_shard(std::uint32_t src_shard, std::uint64_t seq) {
    (void)src_shard;
    (void)seq;
  }
};

/// The hook installed in the current execution context, or nullptr.  One
/// slot per context (sim/context.hpp): each partition of a sharded run
/// (sim/shard.hpp) has its own context, so it may install its own checker
/// from its setup factory, and a hook installed in the caller's context
/// never observes (or races with) a partition's dispatches.
inline AuditHook*& audit_hook() { return context().audit_hook(); }

}  // namespace dcs::sim
