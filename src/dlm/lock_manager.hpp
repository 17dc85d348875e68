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
// Model restriction (documented): one lock-holding process per node per
// lock id — waiter mailboxes are addressed by (node, lock id).  The paper's
// cascade experiments place each waiting process on its own node, matching
// this restriction.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/engine.hpp"
#include "verbs/verbs.hpp"

namespace dcs::dlm {

using fabric::NodeId;
using LockId = std::uint32_t;

enum class LockMode : std::uint8_t { kShared = 1, kExclusive = 2 };

/// Common interface so benchmarks and services can swap schemes.
class LockManager {
 public:
  virtual ~LockManager() = default;

  /// Acquires `id` in the given mode on behalf of the process on `self`.
  virtual sim::Task<void> lock(NodeId self, LockId id, LockMode mode) = 0;
  /// Releases the lock previously acquired by `self`.
  virtual sim::Task<void> unlock(NodeId self, LockId id) = 0;

  virtual const char* name() const = 0;

  sim::Task<void> lock_shared(NodeId self, LockId id) {
    return lock(self, id, LockMode::kShared);
  }
  sim::Task<void> lock_exclusive(NodeId self, LockId id) {
    return lock(self, id, LockMode::kExclusive);
  }
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
