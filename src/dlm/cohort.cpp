#include "dlm/cohort.hpp"

#include "common/check.hpp"

namespace dcs::dlm {
namespace {

/// The first parked strand of a group asked for a shared tenure.
bool front_reads(const sim::detail::WaitList& waiters) {
  return static_cast<const Cohort::Enter&>(waiters.front()).read;
}

}  // namespace

bool Cohort::Enter::await_ready() noexcept {
  if (group.active == 0) {
    // A new group: this strand leads the node's first tenure, and no
    // earlier strand of the node has anything to publish to it.
    group.active = 1;
    group.reading = read;
    lead = true;
    sync_obj = nullptr;
    return true;
  }
  if (read && group.reading && group.held && group.waiters.empty()) {
    ++group.active;  // joins the node's read tenure
    return true;
  }
  return false;
}

void Cohort::acquired(std::uint64_t id, fabric::NodeId node) {
  Group& group = groups_.at({id, node});
  group.held = true;
  if (!group.reading) return;
  // The readers that queued behind this acquire share the tenure.
  if (auto* hook = sim::audit_hook()) hook->release(&group);
  while (!group.waiters.empty() && front_reads(group.waiters)) {
    ++group.active;
    eng_.schedule_now(group.waiters.pop_front());
  }
}

std::optional<LockMode> Cohort::leave(std::uint64_t id, fabric::NodeId node) {
  const auto it = groups_.find({id, node});
  DCS_CHECK_MSG(it != groups_.end() && it->second.held,
                "unlock by non-owner");
  Group& group = it->second;
  auto* hook = sim::audit_hook();
  if (group.active > 1) {
    --group.active;
    if (hook != nullptr) hook->release(&group);
    return std::nullopt;
  }
  group.held = false;
  // The release publishes what every strand of the tenure did.
  if (hook != nullptr) hook->acquire(&group);
  return group.reading ? LockMode::kShared : LockMode::kExclusive;
}

void Cohort::finish(std::uint64_t id, fabric::NodeId node) {
  const auto it = groups_.find({id, node});
  Group& group = it->second;
  if (group.waiters.empty()) {
    groups_.erase(it);  // idle: no local strand waits
    return;
  }
  // The first waiter leads the node's next tenure.
  if (auto* hook = sim::audit_hook()) hook->release(&group);
  group.active = 1;
  group.reading = front_reads(group.waiters);
  eng_.schedule_now(group.waiters.pop_front());
}

bool Cohort::forget(std::uint64_t id) {
  bool idle = true;
  for (auto it = groups_.lower_bound({id, 0});
       it != groups_.end() && it->first.first == id; it = groups_.erase(it)) {
    const Group& g = it->second;
    idle = idle && g.held && g.waiters.empty() && !g.reading;
  }
  return idle;
}

}  // namespace dcs::dlm
