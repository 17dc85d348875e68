#include "dlm/queue_lock.hpp"

#include "audit/audit.hpp"
#include "verbs/wire.hpp"

namespace dcs::dlm {

sim::Task<std::uint64_t> QueueLock::acquire(verbs::Hca& hca) const {
  const fabric::NodeId self = hca.node_id();
  const std::uint64_t me = self + 1;

  // Atomic swap of the tail word, emulated with a CAS retry loop (IB verbs
  // expose CAS and FAA; [10] builds its queue from exactly these).
  std::uint64_t prev = 0;
  std::uint64_t retries = 0;
  for (;;) {
    const auto old = co_await hca.compare_and_swap(table, offset, prev, me);
    if (old == prev) break;
    prev = old;
    ++retries;
  }

  if (prev != 0) {
    // Tell the previous tail we are behind it, then wait for its grant.
    co_await hca.send(static_cast<fabric::NodeId>(prev - 1), wait_tag,
                      verbs::Encoder().u32(self).take());
    (void)co_await hca.recv_reply(grant_tag);
  }
  if (auto* a = audit::Auditor::current()) {
    a->lock_granted(owner, scheme, id, self, /*exclusive=*/true);
  }
  co_return retries;
}

sim::Task<void> QueueLock::hand_off(verbs::Hca& hca,
                                    std::uint64_t unlock_old) const {
  if (unlock_old == hca.node_id() + 1) co_return;  // nobody queued behind us
  // Someone swapped in behind us; their notification names our successor.
  const verbs::Message wait = co_await hca.recv_reply(wait_tag);
  co_await grant(hca, wait);
}

sim::Task<void> QueueLock::grant(verbs::Hca& hca,
                                 const verbs::Message& wait) const {
  // Direct handoff: the successor gets the lock with a single message, no
  // atomic needed.
  const fabric::NodeId successor = verbs::Decoder(wait.payload).u32();
  if (auto* a = audit::Auditor::current()) {
    a->lock_handoff(owner, scheme, id, hca.node_id(), successor);
  }
  co_await hca.send(successor, grant_tag,
                    verbs::Encoder().u32(static_cast<std::uint32_t>(id)).take());
}

}  // namespace dcs::dlm
