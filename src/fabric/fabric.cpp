#include "fabric/fabric.hpp"

#include "trace/trace.hpp"

namespace dcs::fabric {

Fabric::Fabric(sim::Engine& eng, FabricParams params, ClusterSpec spec)
    : eng_(eng),
      params_(params),
      arena_(spec.num_nodes * NodeMemory::slice_bytes(spec.mem_per_node)) {
  DCS_CHECK(spec.num_nodes > 0);
  const std::size_t slice = NodeMemory::slice_bytes(spec.mem_per_node);
  nodes_.reserve(spec.num_nodes);
  for (std::size_t i = 0; i < spec.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(
        eng_, static_cast<NodeId>(i), params_, spec.cores_per_node,
        spec.mem_per_node, arena_.data() + i * slice));
  }
}

sim::Task<void> Fabric::transfer(NodeId src, NodeId dst, std::size_t bytes,
                                 SimNanos serialization, bool propagate) {
  DCS_CHECK_MSG(src < nodes_.size() && dst < nodes_.size(), "invalid node id");
  bytes_transferred_ += bytes;
  if (src == dst) {
    // Loopback: no wire; charge a single copy at memory speed.
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "fabric", "nic.loopback", src);
    co_await eng_.delay(serialization / 4);
    co_return;
  }
  {
    // NIC contention (the tx mutex) and serialization both live on the HCA;
    // one nic-cost interval covers the pair.
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "fabric", "nic.tx", src);
    auto guard = co_await nodes_[src]->nic_tx().scoped();
    co_await eng_.delay(serialization);
  }
  if (!propagate) co_return;
  DCS_TRACE_COST_SPAN(trace::Cost::kWire, "fabric", "wire", src);
  co_await eng_.delay(params_.link_latency);
}

sim::Task<void> Fabric::wire_transfer(NodeId src, NodeId dst,
                                      std::size_t bytes) {
  return transfer(src, dst, bytes, params_.wire_time(bytes), true);
}

sim::Task<void> Fabric::tcp_wire_transfer(NodeId src, NodeId dst,
                                          std::size_t bytes) {
  return transfer(src, dst, bytes, params_.tcp_wire_time(bytes), true);
}

sim::Task<void> Fabric::serialize_only(NodeId src, NodeId dst,
                                       std::size_t bytes) {
  return transfer(src, dst, bytes, params_.wire_time(bytes), false);
}

}  // namespace dcs::fabric
