#include "audit/audit.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "trace/flight.hpp"
#include "trace/trace.hpp"

namespace dcs::audit {

namespace {

Auditor*& current_slot() {
  static Auditor* current = nullptr;
  return current;
}

bool is_write(AccessKind kind) {
  return kind == AccessKind::kWrite || kind == AccessKind::kHostWrite ||
         kind == AccessKind::kAtomic;
}

bool overlaps(std::uint64_t a, std::uint64_t alen, std::uint64_t b,
              std::uint64_t blen) {
  return a < b + blen && b < a + alen;
}

std::uint64_t rkey_key(std::uint32_t node, std::uint32_t rkey) {
  return (static_cast<std::uint64_t>(node) << 32) | rkey;
}

}  // namespace

const char* to_string(AccessKind kind) {
  switch (kind) {
    case AccessKind::kRead:
      return "rdma-read";
    case AccessKind::kWrite:
      return "rdma-write";
    case AccessKind::kAtomic:
      return "rdma-atomic";
    case AccessKind::kHostRead:
      return "host-read";
    case AccessKind::kHostWrite:
      return "host-write";
  }
  return "?";
}

Auditor::Auditor(sim::Engine& eng, AuditConfig config)
    : eng_(eng), config_(config) {}

Auditor::~Auditor() {
  if (installed_) uninstall();
}

void Auditor::install() {
  DCS_CHECK_MSG(current_slot() == nullptr, "an Auditor is already installed");
  current_slot() = this;
  sim::audit_hook() = this;
  installed_ = true;
  main_strand_ = next_strand_++;
  current_ = main_strand_;
  tick();
}

void Auditor::uninstall() {
  if (!installed_) return;
  DCS_CHECK(current_slot() == this);
  current_slot() = nullptr;
  sim::audit_hook() = nullptr;
  installed_ = false;
}

bool Auditor::installed() const { return installed_; }

Auditor* Auditor::current() { return current_slot(); }

// --- vector-clock plumbing ---

void Auditor::join(Clock& into, const Clock& from) {
  for (const auto& [strand, time] : from) {
    auto& slot = into[strand];
    if (time > slot) slot = time;
  }
}

Auditor::Clock& Auditor::cur_clock() { return clocks_[current_]; }

void Auditor::tick() { ++clocks_[current_][current_]; }

bool Auditor::ordered_before_current(const Access& a) {
  const auto& clock = cur_clock();
  auto it = clock.find(a.strand);
  return it != clock.end() && it->second >= a.epoch;
}

// --- sim::AuditHook ---

void Auditor::on_schedule(void* handle) {
  // Queueing a handle is a wake edge: the receiver happens-after everything
  // the scheduling strand has done so far.
  Pending& p = pending_[handle];
  p.snapshot = cur_clock();
  p.fresh = false;
  tick();
}

void Auditor::on_spawn(void* handle) {
  // Engine::spawn calls schedule_now first, so the snapshot already exists;
  // the first dispatch of this handle opens a fresh strand.
  pending_[handle].fresh = true;
}

void Auditor::on_dispatch(void* handle) {
  Clock staged = run_barrier_;
  bool fresh = false;
  if (auto it = pending_.find(handle); it != pending_.end()) {
    join(staged, it->second.snapshot);
    fresh = it->second.fresh;
    pending_.erase(it);
  }
  if (fresh) {
    // A spawned root's first resumption comes straight out of
    // initial_suspend, which has no instrumented await_resume, so the new
    // strand is opened here instead of in resume_strand().
    current_ = next_strand_++;
    clocks_[current_] = std::move(staged);
    tick();
    incoming_.reset();
    return;
  }
  // An instrumented awaiter's await_resume will call resume_strand() and
  // pick this context up.
  incoming_ = std::move(staged);
}

std::uint64_t Auditor::suspend_strand() { return current_; }

void Auditor::resume_strand(std::uint64_t token) {
  if (token == 0) return;  // fast path: the awaiter never suspended
  current_ = static_cast<std::uint32_t>(token);
  if (incoming_.has_value()) {
    join(cur_clock(), *incoming_);
    incoming_.reset();
  }
  tick();
}

void Auditor::on_run_start() {
  // Single-threaded process: everything the caller did before run_until()
  // happens-before every event dispatched inside it.
  current_ = main_strand_;
  run_barrier_ = cur_clock();
  tick();
}

void Auditor::on_run_done() {
  // ... and everything dispatched happens-before the caller's code after
  // run_until() returns.
  current_ = main_strand_;
  for (const auto& [strand, clock] : clocks_) {
    if (strand != main_strand_) join(clocks_[main_strand_], clock);
  }
  tick();
}

void Auditor::release(const void* obj) {
  join(sync_clocks_[obj], cur_clock());
  tick();
}

void Auditor::acquire(const void* obj) {
  if (auto it = sync_clocks_.find(obj); it != sync_clocks_.end()) {
    join(cur_clock(), it->second);
  }
}

void Auditor::on_cross_shard(std::uint32_t src_shard, std::uint64_t seq) {
  // The sender ran in another partition's context under a different
  // Auditor (or none), so there
  // is no release/acquire pair to join here.  The sharded runner's merge
  // order (time, src shard, seq) is the ordering authority; locally the
  // delivery just opens a fresh epoch on the pump strand so accesses made
  // before and after the handoff are never reported as concurrent with each
  // other.
  (void)src_shard;
  (void)seq;
  tick();
}

// --- reporting ---

std::string Auditor::strand_name(std::uint32_t strand) const {
  if (auto it = strand_names_.find(strand); it != strand_names_.end()) {
    return it->second;
  }
  if (strand == main_strand_) return "main";
  return "strand#" + std::to_string(strand);
}

std::string Auditor::describe(const Access& a) const {
  std::ostringstream os;
  os << to_string(a.kind) << " of [0x" << std::hex << a.addr << ", 0x"
     << a.addr + a.len << std::dec << ") on node " << a.node << " by "
     << strand_name(a.strand) << " at t=" << a.time << "ns";
  if (a.site != nullptr) os << " (" << a.site << ")";
  return os.str();
}

void Auditor::report(const char* checker, std::string message) {
  trace::Registry::global()
      .counter(std::string("audit.") + checker + ".violations")
      .add();
  // Deduplicate retained reports so a hot loop tripping the same checker
  // does not grow the vector unboundedly in kCount mode.
  const bool seen =
      std::any_of(reports_.begin(), reports_.end(), [&](const Report& r) {
        return r.checker == checker && r.message == message;
      });
  if (!seen) {
    reports_.push_back(Report{checker, message, eng_.now()});
  }
  // The flight recorder sees every violation regardless of mode (the ring
  // record is free context for whatever dump comes later); kPostmortem
  // additionally snapshots a dump now, before the throw unwinds the
  // faulting strand and the context evaporates.
  if (auto* flight = trace::FlightRecorder::current()) {
    flight->violation(checker);
    if (config_.on_violation == OnViolation::kPostmortem) {
      flight->trip("audit-violation",
                   std::string("audit[") + checker + "]: " + message);
    }
  }
  if (config_.on_violation != OnViolation::kCount) {
    throw AuditError(std::string("audit[") + checker + "]: " +
                     std::move(message));
  }
}

// --- shadow memory / race detection ---

const Auditor::Range* Auditor::find_range(
    const std::map<std::uint64_t, Range>& ranges, std::uint64_t addr,
    std::size_t len) const {
  auto it = ranges.upper_bound(addr);
  if (it == ranges.begin()) return nullptr;
  --it;
  return it->second.contains(addr, len) ? &it->second : nullptr;
}

void Auditor::on_access(std::uint32_t node, std::uint64_t addr,
                        std::size_t len, AccessKind kind, const char* site) {
  ++accesses_checked_;
  if (auto nit = optimistic_ranges_.find(node);
      nit != optimistic_ranges_.end() &&
      find_range(nit->second, addr, len) != nullptr) {
    // Seqlock-style version-validated data: concurrent access is the
    // protocol's documented design, not a bug.
    return;
  }
  if (auto nit = sync_ranges_.find(node); nit != sync_ranges_.end()) {
    if (const Range* r = find_range(nit->second, addr, len)) {
      // A polled synchronization word (lock table, version counter).  Model
      // the access as a release/acquire on the range's clock instead of a
      // data access: writers publish, readers observe.
      if (is_write(kind)) {
        acquire(r);
        release(r);
      } else {
        acquire(r);
      }
      return;
    }
  }

  const Access access{addr,
                      static_cast<std::uint32_t>(len),
                      node,
                      kind,
                      current_,
                      cur_clock()[current_],
                      eng_.now(),
                      site};
  auto& hist = history_[node];
  // Newest-first scan: the most recent conflicting access gives the most
  // useful report, and one report per access keeps output bounded.
  for (auto it = hist.rbegin(); it != hist.rend(); ++it) {
    const Access& prev = *it;
    if (!overlaps(prev.addr, prev.len, addr, len)) continue;
    if (!is_write(prev.kind) && !is_write(kind)) continue;
    if (prev.kind == AccessKind::kAtomic && kind == AccessKind::kAtomic) {
      continue;  // remote atomics are atomic with each other by definition
    }
    if (ordered_before_current(prev)) continue;  // same strand always is
    report("race", describe(access) + " conflicts with unordered " +
                       describe(prev) +
                       "; no happens-before edge connects them");
    break;
  }
  hist.push_back(access);
  while (hist.size() > config_.history_limit) hist.pop_front();
}

void Auditor::purge_history(std::uint32_t node, std::uint64_t addr,
                            std::uint64_t len) {
  auto it = history_.find(node);
  if (it == history_.end()) return;
  std::erase_if(it->second, [&](const Access& a) {
    return overlaps(a.addr, a.len, addr, len);
  });
}

// --- lifecycle ---

void Auditor::on_register(std::uint32_t node, std::uint32_t rkey,
                          std::uint64_t addr, std::size_t len) {
  const std::uint64_t key = rkey_key(node, rkey);
  if (live_rkeys_.contains(key) || dead_rkeys_.contains(key)) {
    report("rkey-reuse", "rkey " + std::to_string(rkey) + " on node " +
                             std::to_string(node) +
                             " issued twice; rkeys must be unique for the "
                             "HCA's lifetime");
  }
  live_rkeys_[key] = Registration{addr, len};
}

void Auditor::on_deregister(std::uint32_t node, std::uint32_t rkey) {
  const std::uint64_t key = rkey_key(node, rkey);
  auto it = live_rkeys_.find(key);
  if (it == live_rkeys_.end()) return;
  // Tombstone for use-after-deregister detection, and forget the region's
  // shadow history: the arena may hand the same addresses to an unrelated
  // allocation next.
  dead_rkeys_[key] = it->second;
  purge_history(node, it->second.addr, it->second.len);
  live_rkeys_.erase(it);
}

bool Auditor::on_unknown_rkey(std::uint32_t node, std::uint32_t rkey,
                              const char* site) {
  const std::uint64_t key = rkey_key(node, rkey);
  auto it = dead_rkeys_.find(key);
  if (it == dead_rkeys_.end()) return false;
  std::ostringstream os;
  os << "one-sided op names rkey " << rkey << " on node " << node
     << ", deregistered region [0x" << std::hex << it->second.addr << ", 0x"
     << it->second.addr + it->second.len << std::dec << ")";
  if (site != nullptr) os << " (" << site << ")";
  report("use-after-deregister", os.str());
  return true;
}

void Auditor::on_atomic_shape(std::uint32_t node, std::size_t offset,
                              std::size_t len, const char* site) {
  if (len == 8 && offset % 8 == 0) return;
  std::ostringstream os;
  os << "remote atomic on node " << node << " at offset " << offset
     << " with width " << len
     << "; HCA atomics operate on 8-byte-aligned 8-byte words";
  if (site != nullptr) os << " (" << site << ")";
  report("atomic-shape", os.str());
}

// --- range classification ---

void Auditor::mark_sync_range(std::uint32_t node, std::uint64_t addr,
                              std::size_t len) {
  sync_ranges_[node][addr] = Range{addr, len};
}

void Auditor::unmark_sync_range(std::uint32_t node, std::uint64_t addr) {
  auto nit = sync_ranges_.find(node);
  if (nit == sync_ranges_.end()) return;
  if (auto it = nit->second.find(addr); it != nit->second.end()) {
    sync_clocks_.erase(&it->second);
    nit->second.erase(it);
  }
}

void Auditor::mark_optimistic_range(std::uint32_t node, std::uint64_t addr,
                                    std::size_t len) {
  optimistic_ranges_[node][addr] = Range{addr, len};
}

void Auditor::unmark_optimistic_range(std::uint32_t node,
                                      std::uint64_t addr) {
  if (auto nit = optimistic_ranges_.find(node);
      nit != optimistic_ranges_.end()) {
    nit->second.erase(addr);
  }
}

// --- protocol invariants ---

void Auditor::credit_change(const void* stream, const char* what,
                            std::int64_t delta, std::int64_t limit) {
  auto [it, inserted] = credits_.try_emplace(stream, CreditState{limit, limit});
  CreditState& st = it->second;
  st.balance += delta;
  if (st.balance < 0) {
    std::int64_t observed = st.balance;
    st.balance = 0;  // clamp so one bug does not cascade in kCount mode
    report("credit-underflow",
           std::string(what) + " balance dropped to " +
               std::to_string(observed) + " (limit " + std::to_string(limit) +
               "): consumed more than the pool ever held");
  } else if (st.balance > st.limit) {
    std::int64_t observed = st.balance;
    st.balance = st.limit;
    report("credit-overflow",
           std::string(what) + " balance rose to " + std::to_string(observed) +
               " above limit " + std::to_string(limit) +
               ": over-returned or window exceeded");
  }
}

void Auditor::lock_granted(const void* mgr, const char* scheme,
                           std::uint64_t lock, std::uint32_t node,
                           bool exclusive) {
  LockState& st = lock_states_[{mgr, lock}];
  const auto holder_list = [&st] {
    std::string s;
    for (const auto& [n, ex] : st.holders) {
      if (!s.empty()) s += ", ";
      s += std::to_string(n);
      s += ex ? " (exclusive)" : " (shared)";
    }
    return s;
  };
  if (st.holders.contains(node)) {
    report("lock-duplicate-grant",
           std::string(scheme) + " lock " + std::to_string(lock) +
               " granted to node " + std::to_string(node) +
               " which already holds it");
  } else if (exclusive && !st.holders.empty()) {
    report("lock-exclusive-while-held",
           std::string(scheme) + " lock " + std::to_string(lock) +
               " granted exclusively to node " + std::to_string(node) +
               " while held by " + holder_list());
  } else if (!exclusive &&
             std::any_of(st.holders.begin(), st.holders.end(),
                         [](const auto& h) { return h.second; })) {
    report("lock-shared-under-exclusive",
           std::string(scheme) + " lock " + std::to_string(lock) +
               " granted shared to node " + std::to_string(node) +
               " while exclusively held by " + holder_list());
  }
  st.holders[node] = exclusive;
}

void Auditor::lock_released(const void* mgr, const char* scheme,
                            std::uint64_t lock, std::uint32_t node) {
  auto it = lock_states_.find({mgr, lock});
  if (it == lock_states_.end() || !it->second.holders.contains(node)) {
    report("lock-release-without-hold",
           std::string(scheme) + " lock " + std::to_string(lock) +
               " released by node " + std::to_string(node) +
               " which does not hold it");
    return;
  }
  it->second.holders.erase(node);
  if (it->second.holders.empty()) lock_states_.erase(it);
}

void Auditor::lock_handoff(const void* mgr, const char* scheme,
                           std::uint64_t lock, std::uint32_t from,
                           std::uint32_t to) {
  auto it = lock_states_.find({mgr, lock});
  const bool to_holds =
      it != lock_states_.end() && it->second.holders.contains(to);
  if (from == to || to_holds) {
    report("lock-cascade-cycle",
           std::string(scheme) + " lock " + std::to_string(lock) +
               " handed off from node " + std::to_string(from) + " to node " +
               std::to_string(to) +
               (from == to ? " (self-handoff)"
                           : " which already holds it; cascade is cyclic"));
  }
}

void Auditor::name_strand(const char* name) { strand_names_[current_] = name; }

}  // namespace dcs::audit
