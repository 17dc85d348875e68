// N-CoSED — Network-based Combined Shared/Exclusive Distributed locking,
// the paper's design (Section 4.2, Figure 4 / [14]).
//
// Per lock, the home node hosts:
//   W0 (64-bit lock window) = [exclusive-tail(+1) : 32 | shared-request
//       count since the last exclusive enqueue : 32]
//   W1 (64-bit)             = shared-release count for the current epoch
//
// Protocol:
//   shared lock      FAA(W0, +1).  If the returned tail is 0 the lock is
//                    granted immediately (one atomic, no host CPU anywhere);
//                    otherwise notify the tail node and await its cascading
//                    grant at release time.
//   shared unlock    FAA(W1, +1) — purely one-sided.
//   exclusive lock   CAS loop swapping W0 to {self, 0}; the captured old
//                    value names the previous tail and the count C of shared
//                    requests in that epoch.  Queue behind the previous tail
//                    (direct handoff message at its release), then drain the
//                    C shared holders by polling W1 one-sidedly, reset W1,
//                    and enter.
//   exclusive unlock If the tail is still us: CAS the tail out, then grant
//                    every shared waiter that queued behind us in one batch
//                    (the shared cascade of Figure 5a).  If a newer
//                    exclusive closed our epoch: grant our epoch's shared
//                    waiters, then hand off to that successor.
//
// All lock-word manipulation is one-sided (CAS/FAA/read/write); messages
// appear only for waiter notification and cascading grants, exactly as in
// the paper.  "Us" above is one tenure of a node's hold: the node's strands
// meet in the LockManager's cohort first, its shared requests share one
// FAA, and the tenure's mode comes from the cohort at release.
#pragma once

#include <optional>

#include "dlm/lock_manager.hpp"

namespace dcs::dlm {

class NcosedLockManager final : public LockManager {
 public:
  NcosedLockManager(verbs::Network& net, NodeId home,
                    std::size_t max_locks = 64,
                    SimNanos drain_poll_interval = microseconds(3));

  const char* name() const override { return "N-CoSED"; }

  std::uint64_t drain_polls() const { return drain_polls_; }

 private:
  static constexpr std::size_t kEntryBytes = 16;  // W0 + W1

  sim::Task<void> acquire(NodeId self, LockId id, LockMode mode) override;
  sim::Task<void> release(NodeId self, LockId id, LockMode mode) override;

  sim::Task<void> lock_shared_impl(NodeId self, LockId id);
  sim::Task<void> lock_exclusive_impl(NodeId self, LockId id);
  sim::Task<void> unlock_exclusive_impl(NodeId self, LockId id);
  /// Passes the lock to the exclusive successor named by its WAIT message:
  /// grants the shared waiters our epoch owes, then sends the HANDOFF.
  sim::Task<void> hand_off(NodeId self, LockId id, const verbs::Message& wait);
  /// Receives `count` shared-waiter notifications and grants them in a batch.
  sim::Task<void> grant_shared_batch(NodeId self, LockId id,
                                     std::uint32_t count);
  /// One-sided poll of W1 until `target` shared releases have landed.
  /// `observed` seeds the poll with a W1 value already fetched (the CAS+read
  /// acquisition batch piggybacks one), saving the first poll round trip.
  sim::Task<void> drain_shared(NodeId self, LockId id, std::uint32_t target,
                               std::optional<std::uint64_t> observed);

  std::size_t w0_off(LockId id) const { return id * kEntryBytes; }
  std::size_t w1_off(LockId id) const { return id * kEntryBytes + 8; }

  static std::uint32_t tail_of(std::uint64_t w0) {
    return static_cast<std::uint32_t>(w0 >> 32);
  }
  static std::uint32_t count_of(std::uint64_t w0) {
    return static_cast<std::uint32_t>(w0 & 0xFFFFFFFFu);
  }
  static std::uint64_t make_w0(std::uint32_t tail, std::uint32_t count) {
    return (static_cast<std::uint64_t>(tail) << 32) | count;
  }

  SimNanos poll_interval_;
  LockTable table_;  // per lock: W0, W1
  std::uint64_t drain_polls_ = 0;
};

}  // namespace dcs::dlm
