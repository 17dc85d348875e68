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
    : net_(net), home_(home), max_locks_(max_locks) {
  table_ = net_.hca(home_).allocate_region(max_locks_ * 8);
  // The table is all CAS-polled lock words: release/acquire edges, not data.
  if (auto* a = audit::Auditor::current()) {
    a->mark_sync_range(home_, table_.addr, max_locks_ * 8);
  }
  audit::host_write(home_, table_.addr, max_locks_ * 8, "dlm.dqnl.zero-table");
  auto bytes = net_.fabric().node(home_).memory().bytes(table_.addr,
                                                        max_locks_ * 8);
  std::fill(bytes.begin(), bytes.end(), std::byte{0});
}

DqnlLockManager::~DqnlLockManager() {
  if (auto* a = audit::Auditor::current()) {
    a->unmark_sync_range(home_, table_.addr);
  }
  net_.hca(home_).free_region(table_);
}

QueueLock DqnlLockManager::queue(LockId id) const {
  return {.table = table_,
          .offset = static_cast<std::size_t>(id) * 8,
          .wait_tag = tags::kDqnlWait + id,
          .grant_tag = tags::kDqnlGrant + id,
          .owner = this,
          .scheme = "dqnl",
          .id = id};
}

sim::Task<void> DqnlLockManager::lock(NodeId self, LockId id, LockMode mode) {
  // DQNL has no shared mode; readers queue like writers.
  (void)mode;
  DCS_CHECK(id < max_locks_);
  metrics().locks.add();
  DCS_TRACE_COST_SPAN(trace::Cost::kLockWait, "dlm", "lock", self, id,
                      "DQNL");
  const SimNanos t0 = net_.fabric().engine().now();
  const auto retries = co_await queue(id).acquire(net_.hca(self));
  cas_retries_ += retries;
  metrics().cas_retries.add(retries);
  metrics().lock_latency.record_ns(net_.fabric().engine().now() - t0);
}

sim::Task<void> DqnlLockManager::unlock(NodeId self, LockId id) {
  DCS_CHECK(id < max_locks_);
  metrics().unlocks.add();
  DCS_TRACE_SPAN("dlm", "unlock", self, id, "DQNL");
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
