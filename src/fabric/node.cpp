#include "fabric/node.hpp"

#include <algorithm>
#include <iterator>

#include "trace/trace.hpp"

namespace dcs::fabric {

static_assert(sizeof(KernelStats) == KernelStats::kSize);

Node::Node(sim::Engine& eng, NodeId id, const FabricParams& params,
           std::size_t cores, std::size_t mem_bytes, std::byte* arena)
    : eng_(eng),
      id_(id),
      params_(params),
      cores_(cores),
      memory_(mem_bytes, arena),
      nic_tx_(eng) {
  DCS_CHECK(cores > 0);
  cores_state_.reserve(cores);
  for (std::size_t c = 0; c < cores; ++c) {
    cores_state_.push_back(std::make_unique<Core>(eng));
  }
  kernel_page_ = memory_.allocate(KernelStats::kSize);
  DCS_CHECK(kernel_page_ != kNullAddr);
  sync_kernel_page();
}

std::size_t Node::pick_core() const {
  std::size_t best = 0;
  for (std::size_t c = 1; c < cores_state_.size(); ++c) {
    if (cores_state_[c]->queued < cores_state_[best]->queued) best = c;
  }
  return best;
}

const char* Node::core_name(std::size_t core) {
  static constexpr const char* kNames[] = {
      "core0",  "core1",  "core2",  "core3",  "core4",  "core5",
      "core6",  "core7",  "core8",  "core9",  "core10", "core11",
      "core12", "core13", "core14", "core15"};
  return core < std::size(kNames) ? kNames[core] : "core16+";
}

sim::Task<void> Node::execute(SimNanos work) {
  ++runnable_;
  const std::size_t idx = pick_core();
  Core& core = *cores_state_[idx];
  ++core.queued;
  sync_kernel_page();
  SimNanos remaining = work;
  while (remaining > 0) {
    {
      DCS_TRACE_COST_SPAN(trace::Cost::kQueueing, "fabric", "runq", id_, 0,
                          core_name(idx));
      co_await core.slot.acquire();
    }
    const SimNanos slice = std::min(remaining, params_.sched_quantum);
    {
      DCS_TRACE_COST_SPAN(trace::Cost::kHostCpu, "fabric", "cpu", id_, slice,
                          core_name(idx));
      co_await eng_.delay(slice);
    }
    remaining -= slice;
    busy_ns_ += slice;
    core.slot.release();
    sync_kernel_page();
  }
  --runnable_;
  --core.queued;
  sync_kernel_page();
}

sim::Task<void> Node::execute_unsliced(SimNanos work) {
  ++runnable_;
  const std::size_t idx = pick_core();
  Core& core = *cores_state_[idx];
  ++core.queued;
  sync_kernel_page();
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kQueueing, "fabric", "runq", id_, 0,
                        core_name(idx));
    co_await core.slot.acquire();
  }
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kHostCpu, "fabric", "cpu", id_, work,
                        core_name(idx));
    co_await eng_.delay(work);
  }
  busy_ns_ += work;
  core.slot.release();
  --runnable_;
  --core.queued;
  sync_kernel_page();
}

double Node::utilization() const {
  const auto elapsed = eng_.now();
  if (elapsed == 0) return 0.0;
  return static_cast<double>(busy_ns_) /
         (static_cast<double>(elapsed) * static_cast<double>(cores_));
}

void Node::remove_service_threads(std::uint64_t n) {
  DCS_CHECK(service_threads_ >= n);
  service_threads_ -= n;
  sync_kernel_page();
}

void Node::sync_kernel_page() {
  // The simulated kernel keeps its scheduler statistics in registered
  // memory, so a remote RDMA read observes them with zero host involvement.
  // Staged, not written: the arena takes these bytes when first read.
  KernelStats stats;
  stats.runnable = runnable_;
  stats.threads = runnable_ + service_threads_;
  stats.busy_ns = busy_ns_;
  stats.mem_used = memory_.used();
  stats.seq = ++page_seq_;
  memory_.stage(kernel_page_, std::as_bytes(std::span(&stats, 1)));
}

KernelStats Node::decode_kernel_page(std::span<const std::byte> bytes) {
  DCS_CHECK(bytes.size() >= KernelStats::kSize);
  KernelStats stats;
  std::memcpy(&stats, bytes.data(), KernelStats::kSize);
  return stats;
}

KernelStats Node::kernel_stats() const {
  return decode_kernel_page(memory_.bytes(kernel_page_, KernelStats::kSize));
}

}  // namespace dcs::fabric
