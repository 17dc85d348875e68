// DDSS — Distributed Data Sharing Substrate (Section 4.1 / [20]).
//
// A soft shared state for data-center services: named allocations of
// registered memory hosted on "home" nodes, accessed from any node with
// one-sided RDMA operations.  Components map to Figure 2 of the paper:
//
//   - IPC management ......... per-node Client accessors virtualize the
//                              substrate to multiple local processes
//   - Memory management ...... allocate()/release() served by a lightweight
//                              daemon on each home node
//   - Data placement ......... local / remote / round-robin / least-loaded
//                              home selection
//   - Locking mechanisms ..... per-allocation CAS spinlock in the metadata
//                              word (the advanced queue-based manager lives
//                              in dcs::dlm)
//   - Coherency & consistency  six models (below) plus versioned reads
//
// Coherence models (costs of put/get differ per model — Figure 3a):
//   kNull      no guarantee: put = write, get = read
//   kRead      reads must see a committed value: put = write + version bump,
//              get = version-validated read
//   kWrite     writes serialized: put = lock + write + unlock, get = read
//   kStrict    reads and writes serialized: both sides take the lock
//   kVersion   optimistic: put = write + version bump, get = double-read
//              validation loop, retry on torn version
//   kDelta     last-K versions retained in a ring: put appends, get can
//              fetch current or a bounded-staleness older version
//   kTemporal  time-based: gets are served from a local cache while the
//              entry is younger than the TTL
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "sim/sync.hpp"
#include "verbs/verbs.hpp"

namespace dcs::ddss {

using fabric::NodeId;

enum class Coherence : std::uint8_t {
  kNull = 0,
  kRead,
  kWrite,
  kStrict,
  kVersion,
  kDelta,
  kTemporal,
};

const char* to_string(Coherence c);

enum class Placement : std::uint8_t {
  kLocal,        // home = allocating node
  kRemote,       // home = any node but the allocating one
  kRoundRobin,   // spread across all nodes
  kLeastLoaded,  // node with the most free registered memory
};

struct DdssConfig {
  /// How long a kTemporal get serves its node's cached copy.
  SimNanos temporal_ttl = milliseconds(10);
  /// Write-invalidate upgrade for kTemporal: writers multicast an
  /// invalidation to every node holding a cached copy (one hardware
  /// multicast, Figure 1's "Multicast" box), so readers never serve a
  /// stale value — TTL becomes a backstop instead of the contract.
  bool temporal_write_invalidate = false;
};

/// kDelta ring depth: get_delta reaches at most this many versions back.
inline constexpr std::size_t kDeltaVersions = 4;

class DdssError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Handle to one shared allocation.  Copyable; all state lives on the home.
struct Allocation {
  std::uint64_t key = 0;
  Coherence coherence = Coherence::kNull;
  std::size_t size = 0;                // usable payload bytes
  NodeId home = 0;
  verbs::RemoteRegion data;            // payload (kDelta: ring of slots)
  verbs::RemoteRegion meta;            // lock/version/timestamp/head words

  bool valid() const { return data.valid(); }
};

/// Metadata word offsets inside Allocation::meta.
struct MetaLayout {
  static constexpr std::size_t kLock = 0;
  static constexpr std::size_t kVersion = 8;
  static constexpr std::size_t kTimestamp = 16;
  static constexpr std::size_t kDeltaHead = 24;
  static constexpr std::size_t kSize = 32;
};

class Ddss;

/// Per-(node, process) access point — the IPC-management face of DDSS.
/// Processes other than the substrate owner pay a small IPC hop per call.
class Client {
 public:
  Client(Ddss& substrate, NodeId node, std::uint32_t process_id);

  NodeId node() const { return node_; }

  sim::Task<Allocation> allocate(std::size_t size, Coherence coherence,
                                 Placement placement = Placement::kLocal);
  sim::Task<void> release(Allocation alloc);

  sim::Task<void> put(const Allocation& alloc,
                      std::span<const std::byte> value);
  sim::Task<void> get(const Allocation& alloc, std::span<std::byte> out);

  /// One element of a batched put/get (see put_many / get_many).
  struct PutOp {
    const Allocation* alloc = nullptr;
    std::span<const std::byte> value;
  };
  struct GetOp {
    const Allocation* alloc = nullptr;
    std::span<std::byte> out;
  };

  /// Batched multi-allocation put: ops are grouped by home node and each
  /// home gets ONE verbs::OpBatch (one doorbell, pipelined wire, one
  /// coalesced completion, verbs::PerTarget) carrying every write + version
  /// bump for that home.  kWrite/kStrict (lock), kDelta (head read) and
  /// kTemporal (invalidation) need a round before or after their commit and
  /// fall back to serial puts.  Per-op semantics are identical to put().
  sim::Task<void> put_many(std::span<const PutOp> ops);
  /// Batched multi-allocation get, same grouping rules; kVersion (retry
  /// loop), kStrict, kDelta and kTemporal fall back to serial gets.
  sim::Task<void> get_many(std::span<const GetOp> ops);

  /// Reads the value together with the version that produced it
  /// (consistent snapshot; used by services that need versioned caching).
  sim::Task<std::uint64_t> get_versioned(const Allocation& alloc,
                                         std::span<std::byte> out);
  /// Reads a delta-coherent allocation `age` versions behind the head
  /// (0 = current).  Requires kDelta; age < kDeltaVersions.
  sim::Task<void> get_delta(const Allocation& alloc, std::size_t age,
                            std::span<std::byte> out);

  sim::Task<std::uint64_t> version(const Allocation& alloc);

  /// Blocks until the allocation's version reaches `min_version` (one-sided
  /// polling with the configured backoff).  Returns the observed version.
  /// This is the substrate's update-notification primitive: consumers wait
  /// for producers without any producer-side messaging.
  sim::Task<std::uint64_t> wait_version(const Allocation& alloc,
                                        std::uint64_t min_version);

  /// Remote atomic arithmetic directly on the shared data (the substrate's
  /// atomic-operations surface): fetch-and-add / compare-and-swap on an
  /// 8-byte-aligned word at `offset` within the allocation.  Works with
  /// every coherence model; callers own the semantics of mixing atomics
  /// with put/get.
  sim::Task<std::uint64_t> fetch_add(const Allocation& alloc,
                                     std::size_t offset, std::uint64_t delta);
  sim::Task<std::uint64_t> compare_swap(const Allocation& alloc,
                                        std::size_t offset,
                                        std::uint64_t expected,
                                        std::uint64_t desired);

  /// Explicit lock/unlock of the allocation's metadata lock.
  sim::Task<void> lock(const Allocation& alloc);
  sim::Task<void> unlock(const Allocation& alloc);

  /// Drops any temporally-cached copy of `alloc` held by this node.
  void invalidate_cached(const Allocation& alloc);

 private:
  /// Words a staged op's verbs read into or gather from; they must outlive
  /// the batch's completion.
  struct OpWords {
    std::byte image[8] = {};       // Read get: version; Temporal put: time
    std::uint64_t unlock_old = 0;  // Write/Strict: the unlock CAS's result
    bool unlocks = false;          // an unlock CAS was staged
  };

  sim::Task<void> ipc_hop();
  /// Appends `alloc`'s coherence-model commit sequence for a put of
  /// `value` at data `offset` (the kDelta ring slot, else 0): the data
  /// write, then the version / head / timestamp update, then the unlock.
  void stage_put(verbs::OpBatch& batch, const Allocation& alloc,
                 std::span<const std::byte> value, std::size_t offset,
                 OpWords& words);
  /// Appends the model's get sequence: the data read, then kRead's version
  /// read, then kStrict's unlock.
  void stage_get(verbs::OpBatch& batch, const Allocation& alloc,
                 std::span<std::byte> out, OpWords& words);
  /// Checks that a staged unlock found this node holding the lock.
  void check_unlock(const OpWords& words) const;

  Ddss& ddss_;
  NodeId node_;
  std::uint32_t process_id_;
};

/// The substrate: owns per-node daemons, placement state, and local caches.
class Ddss {
 public:
  Ddss(verbs::Network& net, DdssConfig config = {});
  Ddss(const Ddss&) = delete;
  Ddss& operator=(const Ddss&) = delete;

  /// Spawns the allocation daemon on every node. Call once before use.
  void start();

  /// Makes an access point for a local process on `node`. process_id 0 is
  /// the substrate owner (no IPC hop); other ids model separate processes.
  Client client(NodeId node, std::uint32_t process_id = 0) {
    return Client(*this, node, process_id);
  }

  verbs::Network& network() { return net_; }
  const DdssConfig& config() const { return config_; }
  sim::Engine& engine() { return net_.fabric().engine(); }

  std::uint64_t allocations_served() const { return allocations_served_; }

 private:
  friend class Client;

  struct CacheEntry {
    std::vector<std::byte> value;
    SimNanos fetched_at = 0;
  };
  struct CacheKey {
    NodeId node;
    std::uint64_t key;
    auto operator<=>(const CacheKey&) const = default;
  };

  sim::Task<void> daemon(NodeId node);
  sim::Task<void> invalidation_listener(NodeId node);
  NodeId pick_home(NodeId requester, Placement placement, std::size_t bytes);
  /// Payload bytes actually reserved for an allocation (delta ring, etc).
  std::size_t storage_bytes(std::size_t size, Coherence c) const;

  verbs::Network& net_;
  DdssConfig config_;
  std::size_t rr_next_ = 0;
  bool started_ = false;
  std::uint64_t allocations_served_ = 0;
  std::uint64_t next_key_ = 1;
  std::uint32_t next_reply_ = 0;
  std::map<CacheKey, CacheEntry> temporal_cache_;
  // Write-invalidate bookkeeping: which nodes cached each temporal datum.
  std::map<std::uint64_t, std::set<NodeId>> temporal_sharers_;
};

}  // namespace dcs::ddss
