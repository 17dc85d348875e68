#include "dlm/ncosed.hpp"

#include <vector>

#include "audit/audit.hpp"
#include "trace/hot.hpp"
#include "trace/trace.hpp"
#include "verbs/wire.hpp"

namespace dcs::dlm {

namespace {
struct NcosedMetrics {
  trace::Counter& shared_locks = reg().counter("dlm.ncosed.shared_acquires");
  trace::Counter& excl_locks = reg().counter("dlm.ncosed.exclusive_acquires");
  trace::Counter& unlocks = reg().counter("dlm.ncosed.unlocks");
  trace::Counter& drain_polls = reg().counter("dlm.ncosed.drain_polls");
  trace::Counter& handoffs = reg().counter("dlm.ncosed.direct_handoffs");
  trace::Histogram& cascade_depth =
      reg().histogram("dlm.ncosed.cascade_depth");
  trace::Distribution& lock_latency =
      reg().distribution("dlm.ncosed.lock_latency_ns");

  static trace::Registry& reg() { return trace::Registry::global(); }
};

NcosedMetrics& metrics() { return trace::context_metrics<NcosedMetrics>(); }
}  // namespace

NcosedLockManager::NcosedLockManager(verbs::Network& net, NodeId home,
                                     std::size_t max_locks,
                                     SimNanos drain_poll_interval)
    : LockManager(net, "N-CoSED/shared", "N-CoSED/exclusive"),
      poll_interval_(drain_poll_interval),
      table_(net, home, max_locks, kEntryBytes, "dlm.ncosed.zero-table") {}

sim::Task<void> NcosedLockManager::acquire(NodeId self, LockId id,
                                           LockMode mode) {
  DCS_CHECK(id < table_.locks);
  DCS_HOT("dlm.lock", id, 1);
  const SimNanos t0 = net_.fabric().engine().now();
  if (mode == LockMode::kShared) {
    metrics().shared_locks.add();
    co_await lock_shared_impl(self, id);
  } else {
    metrics().excl_locks.add();
    co_await lock_exclusive_impl(self, id);
  }
  if (auto* a = audit::Auditor::current()) {
    a->lock_granted(this, "ncosed", id, self,
                    /*exclusive=*/mode == LockMode::kExclusive);
  }
  metrics().lock_latency.record_ns(net_.fabric().engine().now() - t0);
}

sim::Task<void> NcosedLockManager::release(NodeId self, LockId id,
                                           LockMode mode) {
  metrics().unlocks.add();
  if (auto* a = audit::Auditor::current()) {
    a->lock_released(this, "ncosed", id, self);
  }
  if (mode == LockMode::kShared) {
    // Purely one-sided: count our release; an exclusive drainer observes it.
    (void)co_await net_.hca(self).fetch_and_add(table_, w1_off(id), 1);
  } else {
    co_await unlock_exclusive_impl(self, id);
  }
}

sim::Task<void> NcosedLockManager::lock_shared_impl(NodeId self, LockId id) {
  auto& hca = net_.hca(self);
  // Register the shared request: one fetch-and-add on the lock window.
  const auto old = co_await hca.fetch_and_add(table_, w0_off(id), 1);
  const std::uint32_t tail = tail_of(old);
  if (tail == 0) co_return;  // no exclusive ahead of us: granted
  // Queue behind the exclusive tail; it grants us when it releases.
  DCS_LOG("dlm", "ncosed.queue_shared", self, tail - 1, id);
  co_await hca.send(static_cast<NodeId>(tail - 1), tags::kNcWaitShared + id,
                    verbs::Encoder().u32(self).take());
  (void)co_await hca.recv(tags::kNcGrantShared + id);
}

sim::Task<void> NcosedLockManager::lock_exclusive_impl(NodeId self,
                                                       LockId id) {
  auto& hca = net_.hca(self);
  const std::uint32_t me = self + 1;

  // Close the current epoch: swap ourselves in as tail with cleared count.
  // When the epoch we are closing has shared holders (count_of(guess) > 0),
  // the CAS attempt batches a W1 read onto the same doorbell (a combined
  // CAS+read work queue): the piggybacked read — executed at the home right
  // after the CAS — becomes the drain's first observation, for free.  The
  // uncontended path stays exactly one CAS (Figure 4a).
  std::uint64_t guess = 0;
  std::uint64_t old = 0;
  std::byte w1_img[8];
  std::optional<std::uint64_t> w1_observed;
  for (;;) {
    if (count_of(guess) > 0) {
      verbs::OpBatch batch;
      batch.compare_and_swap(table_, w0_off(id), guess, make_w0(me, 0), &old);
      batch.read(table_, w1_off(id), w1_img);
      co_await hca.post(std::move(batch));
      w1_observed = verbs::load_u64(w1_img, 0);
    } else {
      old = co_await hca.compare_and_swap(table_, w0_off(id), guess,
                                          make_w0(me, 0));
      w1_observed.reset();
    }
    if (old == guess) break;
    guess = old;
  }
  const std::uint32_t prev_tail = tail_of(old);
  const std::uint32_t shared_in_epoch = count_of(old);

  if (prev_tail != 0) {
    // Queue behind the previous exclusive; tell it how many shared waiters
    // its epoch accumulated so it can grant them before handing off.  A
    // holder that never releases leaves this strand parked in the recv
    // below with no timer — the flight recorder's stall trip is the only
    // witness (docs/OBSERVABILITY.md walkthrough).
    DCS_LOG("dlm", "ncosed.queue_excl", self, prev_tail - 1,
            shared_in_epoch);
    co_await hca.send(static_cast<NodeId>(prev_tail - 1),
                      tags::kNcWaitExcl + id,
                      verbs::Encoder().u32(self).u32(shared_in_epoch).take());
    (void)co_await hca.recv(tags::kNcHandoff + id);
    // The piggybacked W1 value predates the handoff (it may still count the
    // *previous* epoch's releases) — discard it; the drain re-reads.
    w1_observed.reset();
  }
  // Wait for the epoch's shared holders to drain, then start a fresh epoch.
  // (W1 is provably zero already when the epoch had no shared requests, so
  // the uncontended path is exactly one CAS — Figure 4a.)
  if (shared_in_epoch > 0) {
    co_await drain_shared(self, id, shared_in_epoch, w1_observed);
    std::byte zero[8] = {};
    co_await hca.write(table_, w1_off(id), zero);
  }
}

sim::Task<void> NcosedLockManager::drain_shared(
    NodeId self, LockId id, std::uint32_t target,
    std::optional<std::uint64_t> observed) {
  auto& hca = net_.hca(self);
  auto& eng = net_.fabric().engine();
  for (;;) {
    std::uint64_t released;
    if (observed.has_value()) {
      // Seeded by the acquisition batch's piggybacked read: no wire round.
      released = *observed;
      observed.reset();
    } else {
      std::byte img[8];
      co_await hca.read(table_, w1_off(id), img);
      released = verbs::load_u64(img, 0);
    }
    ++drain_polls_;
    metrics().drain_polls.add();
    if (released >= target) co_return;
    co_await eng.delay(poll_interval_);
  }
}

sim::Task<void> NcosedLockManager::grant_shared_batch(NodeId self, LockId id,
                                                      std::uint32_t count) {
  if (count > 0) {
    // Cascade depth: how many shared grants one release fans out to.
    metrics().cascade_depth.record(count);
    DCS_TRACE_INSTANT("dlm", "cascade_grant", self, count, "N-CoSED");
  }
  auto& hca = net_.hca(self);
  std::vector<NodeId> waiters;
  waiters.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    // Notifications that arrived during our hold were already processed in
    // the background (completion handling overlaps the critical section);
    // only stragglers cost a blocking receive now.
    if (auto msg = hca.try_recv(tags::kNcWaitShared + id)) {
      waiters.push_back(verbs::Decoder(msg->payload).u32());
      continue;
    }
    verbs::Message msg = co_await hca.recv(tags::kNcWaitShared + id);
    waiters.push_back(verbs::Decoder(msg.payload).u32());
  }
  // Cascading grant: every grant message rides ONE posted batch — a single
  // doorbell, back-to-back serialization, and one completion for the whole
  // cascade instead of a per-waiter post + wake.
  verbs::OpBatch grants;
  for (const NodeId w : waiters) {
    grants.send(w, tags::kNcGrantShared + id, verbs::Encoder().u32(id).take());
  }
  co_await hca.post(std::move(grants));
}

sim::Task<void> NcosedLockManager::unlock_exclusive_impl(NodeId self,
                                                         LockId id) {
  auto& hca = net_.hca(self);
  const std::uint32_t me = self + 1;

  // Direct handoff: if an exclusive successor has already announced itself,
  // no lock-window operation is needed at all — grant our epoch's shared
  // waiters and pass the lock along with one message.
  if (auto pending = hca.try_recv(tags::kNcWaitExcl + id)) {
    metrics().handoffs.add();
    co_await hand_off(self, id, *pending);
    co_return;
  }

  // Otherwise try to CAS the tail out, guessing "no shared arrived" first.
  std::uint64_t guess = make_w0(me, 0);
  for (;;) {
    const auto old = co_await hca.compare_and_swap(
        table_, w0_off(id), guess, make_w0(0, count_of(guess)));
    if (old == guess) {
      // Stepped down; the shared-request count stays so the next epoch
      // closer drains exactly our grantees.
      co_await grant_shared_batch(self, id, count_of(old));
      co_return;
    }
    if (tail_of(old) == me) {
      guess = old;  // shared requests arrived meanwhile; retry with them
      continue;
    }
    // A newer exclusive closed our epoch; its notification carries the
    // number of shared waiters we owe grants to.
    const verbs::Message wait = co_await hca.recv(tags::kNcWaitExcl + id);
    co_await hand_off(self, id, wait);
    co_return;
  }
}

sim::Task<void> NcosedLockManager::hand_off(NodeId self, LockId id,
                                            const verbs::Message& wait) {
  verbs::Decoder dec(wait.payload);
  const NodeId successor = dec.u32();
  const std::uint32_t owed_shared = dec.u32();
  DCS_LOG("dlm", "ncosed.handoff", self, successor, owed_shared);
  if (auto* a = audit::Auditor::current()) {
    a->lock_handoff(this, "ncosed", id, self, successor);
  }
  co_await grant_shared_batch(self, id, owed_shared);
  co_await net_.hca(self).send(successor, tags::kNcHandoff + id,
                               verbs::Encoder().u32(id).take());
}

}  // namespace dcs::dlm
