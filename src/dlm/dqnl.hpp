// DQNL — Distributed Queue based Non-shared Locking (Devulapalli &
// Wyckoff [10]).
//
// The home node hosts one 64-bit word per lock holding the id of the tail
// of a distributed waiter queue (0 = free).  A requester atomically swaps
// itself in with a CAS retry loop; if the previous tail was non-zero it
// notifies that node and waits for a direct grant at release time.  The
// queue itself is dlm::QueueLock, which DDSS's allocation locks share; a
// node's strands meet in the LockManager's cohort first, so the node is in
// the queue at most once.
//
// Shared locks are NOT supported natively: every request is exclusive, so a
// crowd of readers serializes into a grant chain — the weakness N-CoSED's
// fetch-and-add path removes (Figure 5a).
#pragma once

#include "dlm/lock_manager.hpp"
#include "dlm/queue_lock.hpp"

namespace dcs::dlm {

class DqnlLockManager final : public LockManager {
 public:
  /// Lock words live on `home`; supports lock ids < max_locks.
  DqnlLockManager(verbs::Network& net, NodeId home, std::size_t max_locks = 64);

  const char* name() const override { return "DQNL"; }

  std::uint64_t cas_retries() const { return cas_retries_; }

 private:
  sim::Task<void> acquire(NodeId self, LockId id, LockMode mode) override;
  sim::Task<void> release(NodeId self, LockId id, LockMode mode) override;

  /// Lock `id`'s tail word and mailboxes.
  QueueLock queue(LockId id) const;

  LockTable table_;  // max_locks x 8 bytes of tail words
  std::uint64_t cas_retries_ = 0;
};

}  // namespace dcs::dlm
