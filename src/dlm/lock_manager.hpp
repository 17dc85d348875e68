// Distributed lock management (Section 4.2 / [14]).
//
// Three schemes, one interface:
//   - SRSL    Send/Receive-based Server Locking: a conventional lock server
//             process on the home node grants locks over two-sided messages.
//   - DQNL    Distributed Queue based Non-shared Locking [10]: one-sided
//             CAS-only queue; *every* request is treated as exclusive, so
//             shared lock cascades serialize.
//   - N-CoSED The paper's design: the home node hosts a 64-bit lock window
//             split [exclusive-tail:32 | shared-request-count:32].
//             Exclusive requests enqueue with compare-and-swap; shared
//             requests register with fetch-and-add; releases cascade grants
//             directly between the involved nodes.
//
// Every scheme sits behind one node-local cohort (dlm::Cohort): a node's
// strands queue there first, its shared requests share one tenure of the
// node's hold, only a tenure's first strand asks the scheme for the lock
// (acquire) and only its last one gives it back (release).  Any number of a
// node's strands may lock, while each scheme sees at most one request per
// node per lock id at a time, which is what lets it address waiter
// mailboxes by (node, lock id).
#pragma once

#include <cstdint>
#include <memory>

#include "dlm/cohort.hpp"
#include "sim/engine.hpp"
#include "verbs/verbs.hpp"

namespace dcs::dlm {

using fabric::NodeId;
using LockId = std::uint32_t;

/// Common interface so benchmarks and services can swap schemes.
class LockManager {
 public:
  virtual ~LockManager() = default;

  /// Acquires `id` in the given mode on behalf of a strand on `self`.
  sim::Task<void> lock(NodeId self, LockId id, LockMode mode);
  /// Releases a hold that a strand on `self` took; aborts ("unlock by
  /// non-owner") unless `self` holds `id`.
  sim::Task<void> unlock(NodeId self, LockId id);

  virtual const char* name() const = 0;

  sim::Task<void> lock_shared(NodeId self, LockId id) {
    return lock(self, id, LockMode::kShared);
  }
  sim::Task<void> lock_exclusive(NodeId self, LockId id) {
    return lock(self, id, LockMode::kExclusive);
  }

  /// (lock, node) pairs whose lock a strand holds or waits for.
  std::size_t lock_cohorts() const { return cohort_.size(); }

 protected:
  /// A scheme over `net`; `shared_span` and `exclusive_span` name each
  /// mode's lock-wait span.
  LockManager(verbs::Network& net, const char* shared_span,
              const char* exclusive_span)
      : net_(net),
        cohort_(net.fabric().engine()),
        shared_span_(shared_span),
        exclusive_span_(exclusive_span) {}

  verbs::Network& net_;

 private:
  /// Takes the scheme's lock for a tenure of `self`'s hold.
  virtual sim::Task<void> acquire(NodeId self, LockId id, LockMode mode) = 0;
  /// Gives it back at the end of that tenure.
  virtual sim::Task<void> release(NodeId self, LockId id, LockMode mode) = 0;

  Cohort cohort_;
  const char* shared_span_;
  const char* exclusive_span_;
};

/// A scheme's table of `locks` entries of `entry_bytes` lock words on
/// `home`: zeroed, and marked for the auditor as polled synchronization
/// state, not data.  Freed with it.
struct LockTable : verbs::RemoteRegion {
  LockTable(verbs::Network& net, NodeId home, std::size_t locks,
            std::size_t entry_bytes, const char* site);
  LockTable(const LockTable&) = delete;
  ~LockTable();

  verbs::Network& net;
  NodeId home;
  std::size_t locks;  // lock ids below this have an entry
};

/// The three schemes above, for callers that pick one at run time.
enum class Scheme { kSrsl, kDqnl, kNcosed };

/// The manager's name(): "SRSL", "DQNL" or "N-CoSED".
const char* to_string(Scheme scheme);

/// A `scheme` lock manager whose lock state lives on `home`; an SRSL lock
/// server is already started there.
std::unique_ptr<LockManager> make_lock_manager(Scheme scheme,
                                               verbs::Network& net,
                                               NodeId home);

/// Verbs message-tag bases used by the lock protocols.  Each protocol's
/// per-lock mailboxes live at base + lock id; lock ids must stay below
/// kTagStride.
namespace tags {
inline constexpr std::uint32_t kTagStride = 0x10000;
inline constexpr std::uint32_t kSrslRequest = 0x53520000;
inline constexpr std::uint32_t kSrslGrant = 0x53530000;
inline constexpr std::uint32_t kDqnlWait = 0x44510000;
inline constexpr std::uint32_t kDqnlGrant = 0x44520000;
inline constexpr std::uint32_t kNcWaitExcl = 0x4E430000;
inline constexpr std::uint32_t kNcWaitShared = 0x4E440000;
inline constexpr std::uint32_t kNcGrantShared = 0x4E450000;
inline constexpr std::uint32_t kNcHandoff = 0x4E460000;
}  // namespace tags

}  // namespace dcs::dlm
