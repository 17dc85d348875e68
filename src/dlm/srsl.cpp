#include "dlm/srsl.hpp"

#include "audit/audit.hpp"
#include "trace/trace.hpp"
#include "verbs/wire.hpp"

namespace dcs::dlm {

namespace {
enum class Req : std::uint8_t { kLock = 1, kUnlock = 2 };

struct SrslMetrics {
  trace::Counter& locks = reg().counter("dlm.srsl.lock_acquires");
  trace::Counter& unlocks = reg().counter("dlm.srsl.unlocks");
  trace::Counter& requests = reg().counter("dlm.srsl.server_requests");
  trace::Distribution& lock_latency =
      reg().distribution("dlm.srsl.lock_latency_ns");

  static trace::Registry& reg() { return trace::Registry::global(); }
};

SrslMetrics& metrics() { return trace::context_metrics<SrslMetrics>(); }

std::uint64_t holder_key(NodeId node, LockId id) {
  return (static_cast<std::uint64_t>(node) << 32) | id;
}
}  // namespace

SrslLockManager::SrslLockManager(verbs::Network& net, NodeId server)
    : net_(net), server_(server) {}

void SrslLockManager::start() {
  DCS_CHECK(!started_);
  started_ = true;
  net_.fabric().engine().spawn(server_loop());
  net_.fabric().node(server_).add_service_threads(1);
}

sim::Task<void> SrslLockManager::server_loop() {
  auto& hca = net_.hca(server_);
  for (;;) {
    verbs::Message msg = co_await hca.recv(tags::kSrslRequest);
    // Home-node processing is charged to the requester's trace context.
    trace::AdoptContext adopted(msg.ctx);
    ++requests_served_;
    metrics().requests.add();
    verbs::Decoder dec(msg.payload);
    const auto req = static_cast<Req>(dec.u8());
    const LockId id = dec.u32();
    const auto mode = static_cast<LockMode>(dec.u8());
    LockState& st = locks_[id];

    switch (req) {
      case Req::kLock: {
        st.queue.push_back(Waiter{msg.src, mode});
        co_await grant_from_queue(id, st);
        break;
      }
      case Req::kUnlock: {
        const auto it = held_.find(holder_key(msg.src, id));
        DCS_CHECK_MSG(it != held_.end(), "SRSL unlock without hold");
        if (it->second == LockMode::kExclusive) {
          DCS_CHECK(st.exclusive_held && st.exclusive_holder == msg.src);
          st.exclusive_held = false;
        } else {
          DCS_CHECK(st.shared_holders > 0);
          --st.shared_holders;
        }
        held_.erase(it);
        if (auto* a = audit::Auditor::current()) {
          a->lock_released(this, "srsl", id, msg.src);
        }
        co_await grant_from_queue(id, st);
        break;
      }
    }
  }
}

sim::Task<void> SrslLockManager::grant_from_queue(LockId id, LockState& st) {
  // FIFO with shared batching: grant the head; if it is shared, keep
  // granting consecutive shared waiters.
  while (!st.queue.empty() && !st.exclusive_held) {
    const Waiter w = st.queue.front();
    if (w.mode == LockMode::kExclusive) {
      if (st.shared_holders > 0) break;
      st.queue.pop_front();
      st.exclusive_held = true;
      st.exclusive_holder = w.node;
      held_[holder_key(w.node, id)] = LockMode::kExclusive;
      if (auto* a = audit::Auditor::current()) {
        a->lock_granted(this, "srsl", id, w.node, /*exclusive=*/true);
      }
      co_await send_grant(w.node, id);
      break;
    }
    st.queue.pop_front();
    ++st.shared_holders;
    held_[holder_key(w.node, id)] = LockMode::kShared;
    if (auto* a = audit::Auditor::current()) {
      a->lock_granted(this, "srsl", id, w.node, /*exclusive=*/false);
    }
    co_await send_grant(w.node, id);
  }
}

sim::Task<void> SrslLockManager::send_grant(NodeId to, LockId id) {
  co_await net_.hca(server_).send(to, tags::kSrslGrant + id,
                                  verbs::Encoder().u32(id).take());
}

sim::Task<void> SrslLockManager::lock(NodeId self, LockId id, LockMode mode) {
  DCS_CHECK(id < tags::kTagStride);
  metrics().locks.add();
  DCS_TRACE_COST_SPAN(trace::Cost::kLockWait, "dlm", "lock", self, id,
                      mode == LockMode::kShared ? "SRSL/shared"
                                                : "SRSL/exclusive");
  const SimNanos t0 = net_.fabric().engine().now();
  auto& hca = net_.hca(self);
  verbs::Encoder req;
  req.u8(static_cast<std::uint8_t>(Req::kLock))
      .u32(id)
      .u8(static_cast<std::uint8_t>(mode));
  co_await hca.send(server_, tags::kSrslRequest, req.take());
  (void)co_await hca.recv(tags::kSrslGrant + id);
  metrics().lock_latency.record_ns(net_.fabric().engine().now() - t0);
}

sim::Task<void> SrslLockManager::unlock(NodeId self, LockId id) {
  metrics().unlocks.add();
  DCS_TRACE_SPAN("dlm", "unlock", self, id, "SRSL");
  auto& hca = net_.hca(self);
  verbs::Encoder req;
  req.u8(static_cast<std::uint8_t>(Req::kUnlock))
      .u32(id)
      .u8(0);
  co_await hca.send(server_, tags::kSrslRequest, req.take());
}

}  // namespace dcs::dlm
