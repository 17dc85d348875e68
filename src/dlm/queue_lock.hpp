// The exclusive queue lock of DQNL [10], shared by dlm::DqnlLockManager and
// the per-allocation lock of DDSS (ddss::Client::lock).
//
// A 64-bit tail word on the home node holds node+1 of the tail of a
// distributed waiter queue, or 0 when the lock is free.  acquire() swaps the
// requester in as the tail with a CAS retry loop (guess 0, then guess what
// the last CAS read).  If the old tail was non-zero, the requester sends that
// node one WAIT naming itself and waits for a GRANT.
//
// A holder releases with CAS(node+1 -> 0) on the tail word, issued alone
// (DQNL) or staged behind the data write in a commit batch (DDSS), and
// passes that CAS's result to hand_off().  When the CAS found another tail,
// a successor swapped in behind the holder: hand_off() takes its WAIT and
// sends it one GRANT.  A holder that already has its successor's WAIT may
// grant() without any CAS.
//
// Mailboxes are addressed by (node, tag): each node has at most one strand
// in one lock's queue at a time, because its strands meet in a dlm::Cohort
// first (only a tenure's first strand calls acquire()), so each WAIT and
// GRANT mailbox carries one message, and acquire()/hand_off() drop it after
// that message.
#pragma once

#include <cstdint>

#include "sim/task.hpp"
#include "verbs/verbs.hpp"

namespace dcs::dlm {

struct QueueLock {
  verbs::RemoteRegion table;   // region holding the tail word
  std::size_t offset = 0;      // the tail word's offset in `table`
  std::uint32_t wait_tag = 0;  // a waiter's WAIT reaches its predecessor here
  std::uint32_t grant_tag = 0;  // a waiter receives its GRANT here
  // The auditor's name for this lock (audit::Auditor::lock_granted).
  const void* owner = nullptr;
  const char* scheme = "";
  std::uint64_t id = 0;

  /// Enqueues `hca`'s node and returns once it holds the lock.  Returns the
  /// number of swap-in CAS retries.
  sim::Task<std::uint64_t> acquire(verbs::Hca& hca) const;
  /// Completes a release whose CAS(node+1 -> 0) returned `unlock_old`: if
  /// that CAS found a successor, grants it the lock.
  sim::Task<void> hand_off(verbs::Hca& hca, std::uint64_t unlock_old) const;
  /// Grants the lock to the successor that sent `wait`.
  sim::Task<void> grant(verbs::Hca& hca, const verbs::Message& wait) const;
};

}  // namespace dcs::dlm
