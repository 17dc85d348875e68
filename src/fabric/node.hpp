// A simulated host: CPU cores with round-robin timeslicing, registered
// memory, a NIC transmit resource, and a "kernel page" — a region of
// registered memory the (simulated) kernel keeps up to date with load
// statistics, which is what the paper's kernel-assisted RDMA monitoring
// reads remotely without involving this host's CPU.
//
// The kernel page is refreshed on every scheduler event as a staged write
// (NodeMemory::stage): the snapshot, seq included, is taken at the event,
// and copied into the arena only when an access overlaps the page.  Every
// reader — an RDMA read through the HCA, kernel_stats(), a direct
// memory().bytes() — sees the bytes an eager write would have left, and a
// node nobody monitors never touches its page.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "fabric/memory.hpp"
#include "fabric/params.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace dcs::fabric {

using NodeId = std::uint32_t;

/// Load statistics mirrored into registered memory (the simulated kernel
/// data structures of Section 5.2 / Figure 7 of the paper).
struct KernelStats {
  std::uint64_t runnable = 0;     // run-queue length (running + waiting)
  std::uint64_t threads = 0;      // live task count (incl. blocked services)
  std::uint64_t busy_ns = 0;      // cumulative CPU busy time
  std::uint64_t mem_used = 0;     // allocated registered memory
  std::uint64_t seq = 0;          // bumped on every update

  static constexpr std::size_t kSize = 5 * sizeof(std::uint64_t);
};

class Node {
 public:
  /// `arena`: this node's slice of its Fabric's Arena,
  /// NodeMemory::slice_bytes(mem_bytes) long.
  Node(sim::Engine& eng, NodeId id, const FabricParams& params,
       std::size_t cores, std::size_t mem_bytes, std::byte* arena);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  std::size_t cores() const { return cores_; }
  NodeMemory& memory() { return memory_; }
  const NodeMemory& memory() const { return memory_; }
  sim::Engine& engine() { return eng_; }

  /// Runs `work` nanoseconds of CPU on this host. Preemptible: the work is
  /// executed in scheduler-quantum slices through a FIFO run-queue, so a
  /// newly runnable job on a loaded host waits ~(run-queue length x quantum)
  /// before its first slice — the effect behind the paper's Figure 8a.
  ///
  /// Each core has its own FIFO run-queue.  A job is placed once, on
  /// arrival, onto the core with the fewest bound jobs (ties to the lowest
  /// index — deterministic) and stays there for all its slices, so its
  /// kHostCpu spans carry a stable "core<k>" detail the critical-path
  /// profiler can attribute per core.
  sim::Task<void> execute(SimNanos work);

  /// Runs `work` nanoseconds without releasing the core between slices
  /// (non-preemptible kernel path; used for interrupt-context costs).
  sim::Task<void> execute_unsliced(SimNanos work);

  /// Current run-queue length (running + waiting-to-run jobs, all cores).
  std::uint64_t runnable() const { return runnable_; }
  std::uint64_t busy_ns() const { return busy_ns_; }
  /// CPU utilization over the whole run so far, in [0, 1].
  double utilization() const;

  /// Registers a long-lived service task in the thread count (blocked
  /// threads show in `threads`, not `runnable`).
  void add_service_threads(std::uint64_t n) { service_threads_ += n; sync_kernel_page(); }
  void remove_service_threads(std::uint64_t n);

  /// Address of the kernel statistics page inside this node's memory.
  MemAddr kernel_page_addr() const { return kernel_page_; }
  /// Decodes a kernel page image (used by monitors after an RDMA read).
  static KernelStats decode_kernel_page(std::span<const std::byte> bytes);
  /// Reads the local (always-current) kernel statistics.
  KernelStats kernel_stats() const;

  /// NIC transmit serialization resource (one message on the wire at a time).
  sim::Mutex& nic_tx() { return nic_tx_; }

  /// Failure injection: a failed node stops responding on the fabric —
  /// one-sided and two-sided operations against it time out at the
  /// initiator (IBV_WC_RETRY_EXC_ERR-style).  Local state is preserved so
  /// recover() models a transient outage (power cycle keeps this
  /// simulation-level memory; a real crash would also clear memory).
  void fail() { failed_ = true; }
  void recover() { failed_ = false; }
  bool failed() const { return failed_; }

 private:
  /// One CPU core: a single-permit FIFO slot plus its accounting.  Held by
  /// unique_ptr because sim::Semaphore pins its address while strands are
  /// parked on it (their awaiters point at it); the slot itself allocates
  /// nothing.
  struct Core {
    explicit Core(sim::Engine& eng) : slot(eng, 1) {}
    sim::Semaphore slot;
    std::uint64_t queued = 0;   // jobs bound here (running + waiting)
  };

  /// Stages the current KernelStats (next seq) over the kernel page.
  void sync_kernel_page();
  /// Arrival placement: fewest bound jobs, ties to the lowest index.
  std::size_t pick_core() const;
  /// Static span-detail string for a core index ("core0", "core1", ...).
  static const char* core_name(std::size_t core);

  sim::Engine& eng_;
  NodeId id_;
  const FabricParams& params_;
  std::size_t cores_;
  NodeMemory memory_;
  std::vector<std::unique_ptr<Core>> cores_state_;
  sim::Mutex nic_tx_;
  std::uint64_t runnable_ = 0;
  std::uint64_t service_threads_ = 0;
  std::uint64_t busy_ns_ = 0;
  std::uint64_t page_seq_ = 0;
  MemAddr kernel_page_ = kNullAddr;
  bool failed_ = false;
};

}  // namespace dcs::fabric
