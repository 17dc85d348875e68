// ibverbs-style RDMA interface over the simulated fabric.
//
// Each node owns an `Hca` (host channel adapter).  One-sided operations
// (read / write / compare-and-swap / fetch-and-add) execute entirely at the
// NIC level: they move bytes in and out of the target node's registered
// memory without consuming any target CPU — the property every design in the
// paper exploits.  Two-sided send/recv delivers tagged messages and charges
// the receiver a small CPU cost when it consumes them.
//
// Remote access is gated by rkeys: operations against an unknown rkey or
// outside the registered bounds raise RemoteAccessError at the initiator,
// mirroring IBV_WC_REM_ACCESS_ERR.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "common/flat_map.hpp"
#include "fabric/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace dcs::verbs {

using fabric::MemAddr;
using fabric::NodeId;

/// Remotely-usable handle to a registered memory region.
struct RemoteRegion {
  NodeId node = 0;
  MemAddr addr = fabric::kNullAddr;
  std::size_t len = 0;
  std::uint32_t rkey = 0;

  bool valid() const { return addr != fabric::kNullAddr && len > 0; }
};

/// Raised at the initiator when a one-sided op fails remote validation
/// (unknown rkey, bounds violation, misaligned atomic).
class RemoteAccessError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Raised at the initiator when the target node is down: the RC transport
/// exhausts its retries and completes the work request in error
/// (IBV_WC_RETRY_EXC_ERR).  Surfaces after FabricParams::op_timeout.
class RemoteTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A tagged two-sided message.
struct Message {
  NodeId src = 0;
  std::uint32_t tag = 0;
  std::vector<std::byte> payload;
  /// Trace request context stamped at send time (0 = untracked).  Server
  /// strands adopt it (trace::AdoptContext) so their work is charged to
  /// the originating request.
  std::uint64_t ctx = 0;
};

class Network;

/// A batch of work requests posted to an `Hca` with a single doorbell.
///
/// Gather read/write/CAS/FAA/send work requests — each optionally
/// scatter-gather over multiple local segments — then hand the batch to
/// `Hca::post`.  The whole batch charges one post overhead, pipelines the
/// wire (serialization of request k+1 overlaps the flight of request k),
/// and wakes the poster once when the last completion lands.  Ops execute
/// at their targets in posting order (single send-queue semantics), so a
/// write posted before an atomic to the same region is visible to it.
///
/// SGE rules: segments are local buffers; the remote range is always the
/// contiguous [offset, offset + sum(segment lengths)).  Each segment is a
/// separate DMA descriptor — the access auditor observes every segment
/// individually, at the op's remote execution instant.  Read segments are
/// filled at that instant, write segments are gathered when the request
/// serializes.
class OpBatch {
 public:
  /// Read [offset, offset+dst.size()) from `target` into `dst`.
  void read(RemoteRegion target, std::size_t offset, std::span<std::byte> dst);
  /// Scatter-read: remote bytes land in `sges` in order.
  void read(RemoteRegion target, std::size_t offset,
            std::vector<std::span<std::byte>> sges);
  /// Write `src` to [offset, offset+src.size()) at `target`.
  void write(RemoteRegion target, std::size_t offset,
             std::span<const std::byte> src);
  /// Gather-write: `sges` concatenate into the remote range.
  void write(RemoteRegion target, std::size_t offset,
             std::vector<std::span<const std::byte>> sges);
  /// CAS; the old value is stored to *old_out (if non-null) at completion.
  void compare_and_swap(RemoteRegion target, std::size_t offset,
                        std::uint64_t compare, std::uint64_t swap,
                        std::uint64_t* old_out = nullptr);
  /// FAA; the old value is stored to *old_out (if non-null) at completion.
  void fetch_and_add(RemoteRegion target, std::size_t offset,
                     std::uint64_t add, std::uint64_t* old_out = nullptr);
  /// Two-sided send riding the same doorbell.
  void send(NodeId dst, std::uint32_t tag, std::vector<std::byte> payload);

  std::size_t size() const { return wrs_.size(); }
  bool empty() const { return wrs_.empty(); }

 private:
  friend class Hca;

  enum class OpKind : std::uint8_t { kRead, kWrite, kCas, kFaa, kSend };

  /// The local segments of a read (Byte = std::byte) or a write
  /// (Byte = const std::byte).  A single segment — every serial verb —
  /// is held inline and allocates nothing.
  template <typename Byte>
  class Segments {
   public:
    Segments() = default;
    explicit Segments(std::span<Byte> one) : one_(one), inline_(true) {}
    explicit Segments(std::vector<std::span<Byte>> many)
        : many_(std::move(many)) {}
    std::span<const std::span<Byte>> view() const {
      if (inline_) return {&one_, 1};
      return many_;
    }

   private:
    std::span<Byte> one_;
    bool inline_ = false;
    std::vector<std::span<Byte>> many_;
  };

  struct WorkRequest {
    OpKind kind = OpKind::kRead;
    NodeId target = 0;
    std::uint32_t rkey = 0;
    std::size_t offset = 0;
    std::size_t total_len = 0;  // sum of SGE lengths / payload size
    Segments<std::byte> dst_sges;        // read
    Segments<const std::byte> src_sges;  // write
    std::uint64_t arg0 = 0;  // cas: compare; faa: add
    std::uint64_t arg1 = 0;  // cas: swap
    std::uint64_t* old_out = nullptr;
    std::uint32_t tag = 0;            // send
    std::vector<std::byte> payload;   // send; write: gather snapshot
    // Filled in by Hca::run.
    sim::Time flight_start = 0;   // when the request's last byte left
    std::uint64_t old_value = 0;  // cas / faa result
  };

  /// Appends a work request with the fields every op kind shares.
  WorkRequest& append(OpKind kind, NodeId target, std::uint32_t rkey,
                      std::size_t offset, std::size_t total_len);

  std::vector<WorkRequest> wrs_;
};

class Hca {
 public:
  Hca(Network& net, fabric::Fabric& fab, NodeId node);
  Hca(const Hca&) = delete;
  Hca& operator=(const Hca&) = delete;

  NodeId node_id() const { return node_; }
  fabric::Node& host() { return fab_.node(node_); }
  sim::Engine& engine() { return fab_.engine(); }

  // --- memory registration ---

  /// Registers an existing local range for remote access.
  RemoteRegion register_region(MemAddr addr, std::size_t len);
  /// Allocates local registered memory and registers it in one step.
  RemoteRegion allocate_region(std::size_t len);
  /// Revokes remote access; the rkey becomes invalid immediately.
  void deregister(std::uint32_t rkey);
  /// Deregisters and frees memory from allocate_region().
  void free_region(const RemoteRegion& region);

  std::size_t registered_region_count() const { return regions_.size(); }

  // --- one-sided operations (no target CPU) ---

  sim::Task<void> read(RemoteRegion target, std::size_t offset,
                       std::span<std::byte> dst);
  sim::Task<void> write(RemoteRegion target, std::size_t offset,
                        std::span<const std::byte> src);
  /// Atomically: old = *p; if (old == compare) *p = swap; returns old.
  sim::Task<std::uint64_t> compare_and_swap(RemoteRegion target,
                                            std::size_t offset,
                                            std::uint64_t compare,
                                            std::uint64_t swap);
  /// Atomically: old = *p; *p += add; returns old.
  sim::Task<std::uint64_t> fetch_and_add(RemoteRegion target,
                                         std::size_t offset,
                                         std::uint64_t add);

  /// Posts a whole batch with one doorbell.  All requests serialize
  /// back-to-back at this NIC (request k+1 overlaps request k's flight),
  /// execute at their targets in posting order, and the poster wakes once —
  /// after the last response lands — paying one completion cost for the
  /// batch.  Every serial verb above is a one-op batch run through the same
  /// path.  One-sided ops still consume zero target CPU.  Errors surface in
  /// a fixed order: a misaligned atomic at post time, then a dead target
  /// (after the retry window), then unknown rkey / bounds at the faulting
  /// op's execution; ops that executed before the faulting op remain
  /// executed, including the bytes already landed by earlier reads.
  sim::Task<void> post(OpBatch batch);

  /// Timing-only one-sided write: models the full RDMA write cost to `dst`
  /// without touching registered memory.  Used by transports (SDP, flow
  /// control) that track payload identity at a higher layer.
  sim::Task<void> raw_write(NodeId dst, std::size_t bytes);
  /// Timing-only one-sided read of `bytes` from `dst`.
  sim::Task<void> raw_read(NodeId dst, std::size_t bytes);

  /// Hardware multicast (the "Multicast" box of the framework's Figure 1):
  /// one posted send fans out to every group member; the payload crosses
  /// the sender's NIC once and is replicated by the switch, so the cost is
  /// one serialization plus one link hop — not a per-receiver unicast
  /// chain.  Delivered to each member's `tag` mailbox.
  sim::Task<void> multicast(std::span<const NodeId> group, std::uint32_t tag,
                            std::vector<std::byte> payload);

  // --- two-sided operations ---

  /// Sends a tagged message; completes when the payload is on the wire and
  /// acknowledged (RC semantics).
  sim::Task<void> send(NodeId dst, std::uint32_t tag,
                       std::vector<std::byte> payload);
  /// Receives the next message with the given tag (any source); charges the
  /// receive-path CPU cost on this host.
  sim::Task<Message> recv(std::uint32_t tag);
  /// Non-blocking receive attempt (no CPU charged on miss).
  std::optional<Message> try_recv(std::uint32_t tag);

  // --- statistics ---
  std::uint64_t one_sided_ops() const { return one_sided_ops_; }
  std::uint64_t messages_sent() const { return messages_sent_; }

 private:
  friend class Network;

  struct Registration {
    MemAddr addr;
    std::size_t len;
  };

  /// Throws RemoteTimeoutError after the retry window if `target` is down.
  sim::Task<void> check_alive(NodeId target);
  /// Target-side validation + execution helpers (run at the target HCA).
  /// `kind`/`site` describe the access to the installed auditor, if any.
  std::span<std::byte> resolve(std::uint32_t rkey, std::size_t offset,
                               std::size_t len, audit::AccessKind kind,
                               const char* site);
  void deliver(Message msg);
  sim::Channel<Message>& queue_for(std::uint32_t tag);

  /// The one execution path of every verb but multicast: validation and
  /// per-op counters, liveness, one doorbell, pipelined requests, in-order
  /// retire at the targets and one completion.
  sim::Task<void> run(OpBatch& batch);
  /// Executes one work request at the target (resolve per SGE segment +
  /// data movement / atomic execute / mailbox delivery).
  void execute_at_target(OpBatch::WorkRequest& wr);
  /// Timing-only one-sided op: `request` bytes out, `response` bytes back.
  sim::Task<void> raw_transfer(NodeId dst, std::size_t request,
                               std::size_t response);

  Network& net_;
  fabric::Fabric& fab_;
  NodeId node_;
  std::uint32_t next_rkey_ = 1;
  // Sorted flat maps: deterministic enumeration and cache-friendly small-map
  // lookups on the (hot) batch-resolve path.
  common::FlatMap<std::uint32_t, Registration> regions_;
  common::FlatMap<std::uint32_t, std::unique_ptr<sim::Channel<Message>>>
      recv_queues_;
  std::uint64_t one_sided_ops_ = 0;
  std::uint64_t messages_sent_ = 0;
};

/// Fan-out of one poster's work over several targets: one `OpBatch` per
/// target node, so each target gets one doorbell and one coalesced
/// completion, and the targets proceed concurrently.
class PerTarget {
 public:
  /// The batch for `target`, created on first use.  The reference is valid
  /// until the next `to()`.
  OpBatch& to(NodeId target);
  /// Posts every batch from `hca` in first-use order and completes when the
  /// last one does.  Leaves this fan-out empty.
  sim::Task<void> post(Hca& hca);

 private:
  std::vector<std::pair<NodeId, OpBatch>> batches_;
};

/// One Hca per fabric node.
class Network {
 public:
  explicit Network(fabric::Fabric& fab);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  fabric::Fabric& fabric() { return fab_; }
  std::size_t size() const { return hcas_.size(); }

  Hca& hca(NodeId id) {
    DCS_CHECK_MSG(id < hcas_.size(), "invalid node id");
    return *hcas_[id];
  }

 private:
  fabric::Fabric& fab_;
  std::vector<std::unique_ptr<Hca>> hcas_;
};

}  // namespace dcs::verbs
