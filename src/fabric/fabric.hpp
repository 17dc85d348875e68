// The cluster: a set of nodes joined by a non-blocking switch.
//
// The wire model serializes each message at the sender's NIC (bandwidth
// occupancy), then applies one-way propagation latency.  Everything above —
// verbs, sockets, services — is built from `wire_transfer` plus host CPU
// costs charged via Node::execute.
//
// The nodes' memories are page-aligned slices of one Arena mapped here, so
// building and tearing down a fabric costs one mmap and one munmap whatever
// its size; a slice costs RSS only for the pages simulated DMA touches.
#pragma once

#include <memory>
#include <vector>

#include "fabric/node.hpp"
#include "fabric/params.hpp"
#include "sim/engine.hpp"

namespace dcs::fabric {

struct ClusterSpec {
  std::size_t num_nodes = 2;
  std::size_t cores_per_node = 2;
  std::size_t mem_per_node = 64u << 20;  // 64 MB registered memory
};

class Fabric {
 public:
  Fabric(sim::Engine& eng, FabricParams params, ClusterSpec spec);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::Engine& engine() { return eng_; }
  const FabricParams& params() const { return params_; }
  std::size_t size() const { return nodes_.size(); }

  Node& node(NodeId id) {
    DCS_CHECK_MSG(id < nodes_.size(), "invalid node id");
    return *nodes_[id];
  }

  /// Moves `bytes` from src to dst over the switch: serialize at the
  /// sender's NIC, then propagate.  Completes when the last byte lands.
  sim::Task<void> wire_transfer(NodeId src, NodeId dst, std::size_t bytes);

  /// Same, at TCP wire efficiency (protocol overhead on the wire).
  sim::Task<void> tcp_wire_transfer(NodeId src, NodeId dst, std::size_t bytes);

  /// The serialization half of wire_transfer: accounts the bytes and
  /// occupies the sender's NIC for their serialization time, but does NOT
  /// apply the propagation hop.  The batched verbs path uses this so the
  /// serialization of work request k+1 overlaps the flight of request k,
  /// applying link latency itself per in-flight op.  Loopback charges the
  /// same single memory-speed copy as wire_transfer.
  sim::Task<void> serialize_only(NodeId src, NodeId dst, std::size_t bytes);

  /// Total bytes that have crossed the wire (for bandwidth accounting).
  std::uint64_t bytes_transferred() const { return bytes_transferred_; }

 private:
  /// The one coroutine frame of every transfer: accounts `bytes`, occupies
  /// src's NIC for `serialization` (a quarter of it as a memory-speed copy
  /// on loopback), then, if `propagate`, waits out the link latency.
  sim::Task<void> transfer(NodeId src, NodeId dst, std::size_t bytes,
                           SimNanos serialization, bool propagate);

  sim::Engine& eng_;
  FabricParams params_;
  Arena arena_;  // every node's memory; outlives nodes_
  std::vector<std::unique_ptr<Node>> nodes_;
  std::uint64_t bytes_transferred_ = 0;
};

}  // namespace dcs::fabric
