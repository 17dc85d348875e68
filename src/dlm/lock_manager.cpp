#include "dlm/lock_manager.hpp"

#include <algorithm>

#include "audit/audit.hpp"
#include "dlm/dqnl.hpp"
#include "dlm/ncosed.hpp"
#include "dlm/srsl.hpp"
#include "trace/trace.hpp"

namespace dcs::dlm {

sim::Task<void> LockManager::lock(NodeId self, LockId id, LockMode mode) {
  DCS_TRACE_COST_SPAN(trace::Cost::kLockWait, "dlm", "lock", self, id,
                      mode == LockMode::kShared ? shared_span_
                                                : exclusive_span_);
  const bool lead = co_await cohort_.enter(id, self, mode);
  if (!lead) co_return;
  co_await acquire(self, id, mode);
  cohort_.acquired(id, self);
}

sim::Task<void> LockManager::unlock(NodeId self, LockId id) {
  const auto mode = cohort_.leave(id, self);
  if (!mode) co_return;  // other strands still share the tenure
  DCS_TRACE_SPAN("dlm", "unlock", self, id, name());
  co_await release(self, id, *mode);
  cohort_.finish(id, self);
}

LockTable::LockTable(verbs::Network& n, NodeId h, std::size_t count,
                     std::size_t entry_bytes, const char* site)
    : verbs::RemoteRegion(n.hca(h).allocate_region(count * entry_bytes)),
      net(n),
      home(h),
      locks(count) {
  if (auto* a = audit::Auditor::current()) {
    a->mark_sync_range(home, addr, len);
  }
  audit::host_write(home, addr, len, site);
  auto words = net.fabric().node(home).memory().bytes(addr, len);
  std::fill(words.begin(), words.end(), std::byte{0});
}

LockTable::~LockTable() {
  if (auto* a = audit::Auditor::current()) a->unmark_sync_range(home, addr);
  net.hca(home).free_region(*this);
}

const char* to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSrsl: return "SRSL";
    case Scheme::kDqnl: return "DQNL";
    case Scheme::kNcosed: return "N-CoSED";
  }
  return "?";
}

std::unique_ptr<LockManager> make_lock_manager(Scheme scheme,
                                               verbs::Network& net,
                                               NodeId home) {
  switch (scheme) {
    case Scheme::kSrsl: {
      auto srsl = std::make_unique<SrslLockManager>(net, home);
      srsl->start();
      return srsl;
    }
    case Scheme::kDqnl: return std::make_unique<DqnlLockManager>(net, home);
    case Scheme::kNcosed: return std::make_unique<NcosedLockManager>(net, home);
  }
  return nullptr;
}

}  // namespace dcs::dlm
