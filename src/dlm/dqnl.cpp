#include "dlm/dqnl.hpp"

#include "audit/audit.hpp"
#include "trace/trace.hpp"

namespace dcs::dlm {

namespace {
struct DqnlMetrics {
  trace::Counter& locks = reg().counter("dlm.dqnl.lock_acquires");
  trace::Counter& unlocks = reg().counter("dlm.dqnl.unlocks");
  trace::Counter& cas_retries = reg().counter("dlm.dqnl.cas_retries");
  trace::Distribution& lock_latency =
      reg().distribution("dlm.dqnl.lock_latency_ns");

  static trace::Registry& reg() { return trace::Registry::global(); }
};

DqnlMetrics& metrics() { return trace::context_metrics<DqnlMetrics>(); }
}  // namespace

DqnlLockManager::DqnlLockManager(verbs::Network& net, NodeId home,
                                 std::size_t max_locks)
    : LockManager(net, "DQNL", "DQNL"),
      table_(net, home, max_locks, 8, "dlm.dqnl.zero-table") {}

QueueLock DqnlLockManager::queue(LockId id) const {
  return {.table = table_,
          .offset = static_cast<std::size_t>(id) * 8,
          .wait_tag = tags::kDqnlWait + id,
          .grant_tag = tags::kDqnlGrant + id,
          .owner = this,
          .scheme = "dqnl",
          .id = id};
}

// DQNL has no shared mode; readers queue like writers.
sim::Task<void> DqnlLockManager::acquire(NodeId self, LockId id,
                                         LockMode /*mode*/) {
  DCS_CHECK(id < table_.locks);
  metrics().locks.add();
  const SimNanos t0 = net_.fabric().engine().now();
  const auto retries = co_await queue(id).acquire(net_.hca(self));
  cas_retries_ += retries;
  metrics().cas_retries.add(retries);
  metrics().lock_latency.record_ns(net_.fabric().engine().now() - t0);
}

sim::Task<void> DqnlLockManager::release(NodeId self, LockId id,
                                         LockMode /*mode*/) {
  metrics().unlocks.add();
  auto& hca = net_.hca(self);
  const QueueLock q = queue(id);
  if (auto* a = audit::Auditor::current()) {
    a->lock_released(this, "dqnl", id, self);
  }

  // A successor that already announced itself gets the lock without a CAS.
  if (auto pending = hca.try_recv(q.wait_tag)) {
    co_await q.grant(hca, *pending);
    co_return;
  }
  const auto old = co_await hca.compare_and_swap(table_, q.offset, self + 1, 0);
  co_await q.hand_off(hca, old);
}

}  // namespace dcs::dlm
