// Cost-model parameters for the simulated interconnect and host stacks.
//
// Two personalities are provided, calibrated to the 2007-era hardware the
// paper evaluated on:
//   - infiniband_ddr(): IB DDR HCA with RDMA + remote atomics; small RDMA
//     read completes in ~5-6 us, remote atomics similar, ~1 GB/s usable.
//   - host_tcp(): host-based TCP/IP over the same wire (IPoIB / 10GigE with
//     no offload): per-message kernel CPU cost on both ends, interrupt wakeup
//     on receive, lower effective bandwidth.
//
// The simulation measures *relative* behaviour (who wins, where crossovers
// fall); the constants only need to be era-plausible, not exact.
#pragma once

#include <cstddef>

#include "common/units.hpp"

namespace dcs::fabric {

struct FabricParams {
  // --- wire (shared by both stacks) ---
  SimNanos link_latency = nanoseconds(1300);     // propagation + one switch hop
  double wire_bytes_per_ns = 1.0;                // ~8 Gb/s usable (IB DDR 4x)
  SimNanos per_packet_overhead = nanoseconds(200);
  std::size_t mtu_bytes = 2048;

  // --- RDMA engine (one-sided; no target CPU involvement) ---
  SimNanos rdma_post_overhead = nanoseconds(300);    // doorbell + WQE fetch
  SimNanos rdma_target_nic = nanoseconds(500);       // target HCA processing
  SimNanos rdma_completion = nanoseconds(300);       // CQE generation + poll
  SimNanos atomic_execute = nanoseconds(700);        // CAS/FAA at target HCA

  // --- two-sided verbs send/recv ---
  SimNanos send_post_overhead = nanoseconds(300);
  // Completion processing + dispatch on the receive side of send/recv
  // (two-sided ops involve host software; one-sided ops do not).
  SimNanos recv_consume_cpu = microseconds(2);

  // --- host TCP/IP sockets ---
  SimNanos tcp_per_message_cpu = microseconds(8);    // kernel path per side
  // Sustained host memcpy rate.  2007-era hosts copy slower than the IB DDR
  // wire moves data, which is why copy-based transports lose at large
  // messages (SDP vs ZSDP) and TCP cannot reach line rate.
  double tcp_copy_bytes_per_ns = 0.5;
  SimNanos tcp_interrupt_latency = microseconds(10); // irq + wakeup of process
  double tcp_wire_efficiency = 0.7;                  // protocol efficiency

  // --- host CPU scheduling ---
  SimNanos sched_quantum = milliseconds(1);          // run-queue timeslice

  // --- failure detection ---
  SimNanos op_timeout = microseconds(60);  // RC retry-exhausted detection

  // --- memory registration / protection (SDP zero-copy paths) ---
  std::size_t page_size = 4096;
  SimNanos reg_base_cost = microseconds(1);          // ibv_reg_mr fixed cost
  SimNanos reg_per_page = nanoseconds(250);          // per-page pinning
  SimNanos mprotect_cost = nanoseconds(1500);        // AZ-SDP protect/unprotect

  /// On-the-fly registration cost for a buffer of `bytes`.
  SimNanos registration_cost(std::size_t bytes) const {
    const auto pages = (bytes + page_size - 1) / page_size;
    return reg_base_cost + pages * reg_per_page;
  }

  static FabricParams infiniband_ddr() { return FabricParams{}; }

  /// Control-packet size used by RDMA request/ack messages on the wire.
  static constexpr std::size_t kControlBytes = 64;

  /// Serialization time for `bytes` at the raw wire rate, including
  /// per-packet overheads at the configured MTU.
  SimNanos wire_time(std::size_t bytes) const {
    const auto packets = (bytes + mtu_bytes - 1) / mtu_bytes;
    const auto serialization =
        static_cast<SimNanos>(static_cast<double>(bytes) / wire_bytes_per_ns);
    return serialization + packets * per_packet_overhead;
  }

  /// Serialization time for TCP payloads (wire efficiency applied).
  SimNanos tcp_wire_time(std::size_t bytes) const {
    const auto packets = (bytes + mtu_bytes - 1) / mtu_bytes;
    const auto serialization = static_cast<SimNanos>(
        static_cast<double>(bytes) / (wire_bytes_per_ns * tcp_wire_efficiency));
    return serialization + packets * per_packet_overhead;
  }

  /// Host memcpy time for `bytes` (TCP copy path).
  SimNanos copy_time(std::size_t bytes) const {
    return static_cast<SimNanos>(static_cast<double>(bytes) /
                                 tcp_copy_bytes_per_ns);
  }
};

}  // namespace dcs::fabric
