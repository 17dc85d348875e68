// RDMA access auditor: happens-before race detection for one-sided
// operations, plus lifecycle and protocol invariant checking.
//
// The paper's designs win because the target CPU never sees one-sided
// traffic — which also means a mis-synchronized `rdma_write` that overlaps a
// host read corrupts data silently.  The auditor makes those bugs loud and
// deterministic (see docs/AUDIT.md):
//
//   Shadow access history   every access to registered memory — NIC-side
//                           read/write/atomic from dcs::verbs, host-side
//                           touches reported by services — is recorded as
//                           (range, kind, virtual time, strand, epoch).
//                           Conflicting accesses with no happens-before path
//                           between them are reported as races.
//
//   Happens-before          vector clocks per strand (one logical thread of
//                           execution = one spawned root process).  Edges
//                           come from the simulator's own synchronization:
//                           event set/wait, channel push/recv, semaphore
//                           release/acquire, spawn and when_all joins
//                           (via sim::AuditHook), plus polled sync words
//                           (lock tables, version counters) that layers mark
//                           with mark_sync_range().
//
//   Lifecycle checkers      use-after-deregister (one-sided op against a
//                           tombstoned rkey), rkey reuse, misaligned or
//                           non-8-byte atomics.
//
//   Protocol checkers       SDP / flow-control credit and window invariants
//                           (credits never negative, never over-returned,
//                           window never exceeded) and DLM invariants
//                           (single exclusive holder, no grant while
//                           exclusively held, no duplicate grant, N-CoSED
//                           cascade acyclicity).
//
// Opt-in and always compilable: with no Auditor installed every call site
// is one pointer test.  Violations either throw AuditError (tests) or are
// counted in trace::Registry under `audit.*` and retained as reports
// (benches).  All output is deterministic for a given seed.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "sim/audit_hook.hpp"
#include "sim/engine.hpp"

namespace dcs::audit {

/// How an audited range was touched.
enum class AccessKind : std::uint8_t {
  kRead,       // NIC-side one-sided read
  kWrite,      // NIC-side one-sided write
  kAtomic,     // NIC-side CAS / FAA (atomic with other atomics)
  kHostRead,   // host CPU load from registered memory
  kHostWrite,  // host CPU store to registered memory
};

const char* to_string(AccessKind kind);

enum class OnViolation : std::uint8_t {
  kThrow,  // raise AuditError at the faulting operation (tests)
  kCount,  // record + count in trace::Registry, keep running (benches)
  /// As kThrow, but first trip the installed trace::FlightRecorder so the
  /// violation leaves a dcs-postmortem-v1 dump behind (post-mortem
  /// debugging of seeded races; no-op without a recorder installed).
  kPostmortem,
};

/// Raised at the faulting operation when on_violation == kThrow.
class AuditError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct AuditConfig {
  OnViolation on_violation = OnViolation::kThrow;
  /// Shadow accesses retained per node; older entries age out.
  std::size_t history_limit = 512;
};

/// One recorded violation.  Deterministic for a given seed: same text,
/// same order, same virtual time.
struct Report {
  std::string checker;  // "race", "use-after-deregister", ...
  std::string message;  // full context: both accesses / both holders
  SimNanos time = 0;    // virtual time of detection
};

class Auditor final : public sim::AuditHook {
 public:
  explicit Auditor(sim::Engine& eng, AuditConfig config = {});
  ~Auditor() override;
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  /// Makes this the current execution context's auditor (at most one at a
  /// time) and hooks the simulation engine.  Install before constructing
  /// the workload so region registrations and sync-range marks are
  /// observed.
  void install();
  void uninstall();
  bool installed() const;

  /// The installed auditor, or nullptr — the one-branch gate every
  /// instrumentation site tests.
  static Auditor* current();

  // --- registered-memory data plane (called by dcs::verbs and services) ---

  /// Records an access to [addr, addr+len) on `node` and checks it against
  /// the shadow history for conflicting concurrent accesses.
  void on_access(std::uint32_t node, std::uint64_t addr, std::size_t len,
                 AccessKind kind, const char* site);
  void on_register(std::uint32_t node, std::uint32_t rkey, std::uint64_t addr,
                   std::size_t len);
  void on_deregister(std::uint32_t node, std::uint32_t rkey);
  /// Consulted when a one-sided op names an rkey the HCA does not know.
  /// Returns true when the rkey was valid once (use-after-deregister).
  bool on_unknown_rkey(std::uint32_t node, std::uint32_t rkey,
                       const char* site);
  /// Validates a remote atomic's shape: 8 bytes, 8-byte-aligned offset.
  void on_atomic_shape(std::uint32_t node, std::size_t offset, std::size_t len,
                       const char* site);

  // --- range classification ---

  /// Marks [addr, addr+len) on `node` as a synchronization word range (lock
  /// table, version counter): accesses to it are release/acquire edges, not
  /// data accesses, mirroring how one-sided protocols synchronize by
  /// polling remote words.
  void mark_sync_range(std::uint32_t node, std::uint64_t addr,
                       std::size_t len);
  void unmark_sync_range(std::uint32_t node, std::uint64_t addr);
  /// Marks a range as optimistically-concurrent by design (seqlock-style
  /// version-validated data): access races there are the protocol's
  /// documented business, so they are not reported.
  void mark_optimistic_range(std::uint32_t node, std::uint64_t addr,
                             std::size_t len);
  void unmark_optimistic_range(std::uint32_t node, std::uint64_t addr);

  // --- protocol invariants ---

  /// Credit/window accounting for an opaque stream object.  The pool starts
  /// full at `limit`; consuming passes delta = -1, returning passes +1.
  /// Violations: balance below zero (underflow: more outstanding than
  /// permits exist) or above `limit` (over-return / window exceeded).
  void credit_change(const void* stream, const char* what, std::int64_t delta,
                     std::int64_t limit);

  /// Lock-grant bookkeeping for an opaque lock-manager object.
  void lock_granted(const void* mgr, const char* scheme, std::uint64_t lock,
                    std::uint32_t node, bool exclusive);
  void lock_released(const void* mgr, const char* scheme, std::uint64_t lock,
                     std::uint32_t node);
  /// A direct handoff of `lock` from one node to another (N-CoSED / DQNL
  /// cascades).  A handoff back into a node that still holds the lock is a
  /// cascade cycle.
  void lock_handoff(const void* mgr, const char* scheme, std::uint64_t lock,
                    std::uint32_t from, std::uint32_t to);

  // --- results ---

  const std::vector<Report>& reports() const { return reports_; }
  std::size_t report_count() const { return reports_.size(); }
  std::uint64_t accesses_checked() const { return accesses_checked_; }
  /// Names the current strand in reports ("ddss.daemon", ...).
  void name_strand(const char* name);

  // --- sim::AuditHook (driven by the engine; not for direct use) ---

  void on_schedule(void* handle) override;
  void on_spawn(void* handle) override;
  void on_dispatch(void* handle) override;
  std::uint64_t suspend_strand() override;
  void resume_strand(std::uint64_t token) override;
  void on_run_start() override;
  void on_run_done() override;
  void release(const void* obj) override;
  void acquire(const void* obj) override;
  void on_cross_shard(std::uint32_t src_shard, std::uint64_t seq) override;

 private:
  /// Sparse vector clock: strand id -> event count.
  using Clock = std::unordered_map<std::uint32_t, std::uint64_t>;

  struct Access {
    std::uint64_t addr;
    std::uint32_t len;
    std::uint32_t node;
    AccessKind kind;
    std::uint32_t strand;
    std::uint64_t epoch;  // strand's own clock value at access time
    SimNanos time;
    const char* site;
  };

  struct Pending {  // happens-before context captured at schedule time
    Clock snapshot;
    bool fresh = false;  // first dispatch of a spawned root: new strand
  };

  struct Range {
    std::uint64_t addr;
    std::uint64_t len;
    bool contains(std::uint64_t a, std::uint64_t l) const {
      return a >= addr && a + l <= addr + len;
    }
  };

  struct LockState {
    std::map<std::uint32_t, bool> holders;  // node -> exclusive?
  };

  static void join(Clock& into, const Clock& from);
  Clock& cur_clock();
  void tick();
  /// True when the recorded access happens-before the current strand.
  bool ordered_before_current(const Access& a);
  std::string strand_name(std::uint32_t strand) const;
  std::string describe(const Access& a) const;
  void report(const char* checker, std::string message);
  /// Sync/optimistic range lookup; nullptr when the access is plain data.
  const Range* find_range(const std::map<std::uint64_t, Range>& ranges,
                          std::uint64_t addr, std::size_t len) const;
  void purge_history(std::uint32_t node, std::uint64_t addr, std::uint64_t len);

  sim::Engine& eng_;
  AuditConfig config_;
  bool installed_ = false;

  // strands
  std::uint32_t next_strand_ = 1;
  std::uint32_t main_strand_ = 0;
  std::uint32_t current_ = 0;
  std::unordered_map<std::uint32_t, Clock> clocks_;
  std::unordered_map<std::uint32_t, std::string> strand_names_;
  std::unordered_map<void*, Pending> pending_;
  std::optional<Clock> incoming_;   // dispatch context awaiting resume_strand
  Clock run_barrier_;               // main's clock at run_until() entry

  // sync objects (pointer-keyed; never iterated, so order never observed)
  std::unordered_map<const void*, Clock> sync_clocks_;

  // shadow memory
  std::unordered_map<std::uint32_t, std::deque<Access>> history_;
  std::unordered_map<std::uint32_t, std::map<std::uint64_t, Range>>
      sync_ranges_;
  std::unordered_map<std::uint32_t, std::map<std::uint64_t, Range>>
      optimistic_ranges_;

  // lifecycle
  struct Registration {
    std::uint64_t addr;
    std::uint64_t len;
  };
  std::unordered_map<std::uint64_t, Registration> live_rkeys_;  // node<<32|rkey
  std::unordered_map<std::uint64_t, Registration> dead_rkeys_;

  // protocol
  struct CreditState {
    std::int64_t balance;
    std::int64_t limit;
  };
  std::unordered_map<const void*, CreditState> credits_;
  std::map<std::pair<const void*, std::uint64_t>, LockState> lock_states_;

  std::vector<Report> reports_;
  std::uint64_t accesses_checked_ = 0;
};

// --- convenience call sites ---

/// Reports a host-CPU touch of registered memory (the target-side accesses
/// one-sided RDMA can race with).  No-ops when no auditor is installed.
inline void host_read(std::uint32_t node, std::uint64_t addr, std::size_t len,
                      const char* site) {
  if (auto* a = Auditor::current()) {
    a->on_access(node, addr, len, AccessKind::kHostRead, site);
  }
}

inline void host_write(std::uint32_t node, std::uint64_t addr, std::size_t len,
                       const char* site) {
  if (auto* a = Auditor::current()) {
    a->on_access(node, addr, len, AccessKind::kHostWrite, site);
  }
}

}  // namespace dcs::audit
