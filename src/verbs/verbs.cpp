#include "verbs/verbs.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "trace/hot.hpp"
#include "trace/trace.hpp"

namespace dcs::verbs {

namespace {
constexpr std::size_t kHeaderBytes = 32;  // transport header on payloads

/// Handles into the global registry, resolved once per thread.  The
/// registry is one instance per OS thread (trace.hpp), so the cache must
/// be too: a process-wide cache would pin the first caller's registry and
/// dangle once that thread exits — e.g. verbs traffic on a second
/// ShardedEngine worker pool after the first pool was torn down.
struct Metrics {
  trace::Counter& read_ops = reg().counter("verbs.read.ops");
  trace::Counter& read_bytes = reg().counter("verbs.read.bytes");
  trace::Counter& write_ops = reg().counter("verbs.write.ops");
  trace::Counter& write_bytes = reg().counter("verbs.write.bytes");
  trace::Counter& cas_ops = reg().counter("verbs.cas.ops");
  trace::Counter& faa_ops = reg().counter("verbs.faa.ops");
  trace::Counter& raw_write_ops = reg().counter("verbs.raw_write.ops");
  trace::Counter& raw_write_bytes = reg().counter("verbs.raw_write.bytes");
  trace::Counter& raw_read_ops = reg().counter("verbs.raw_read.ops");
  trace::Counter& raw_read_bytes = reg().counter("verbs.raw_read.bytes");
  trace::Counter& batch_posts = reg().counter("verbs.batch.posts");
  trace::Counter& batch_ops = reg().counter("verbs.batch.ops");
  trace::Counter& send_msgs = reg().counter("verbs.send.msgs");
  trace::Counter& send_bytes = reg().counter("verbs.send.bytes");
  trace::Counter& recv_msgs = reg().counter("verbs.recv.msgs");
  trace::Counter& multicast_msgs = reg().counter("verbs.multicast.msgs");
  trace::Counter& remote_errors = reg().counter("verbs.hca.remote_errors");

  static trace::Registry& reg() { return trace::Registry::global(); }
};

Metrics& metrics() { return trace::thread_metrics<Metrics>(); }
}  // namespace

Hca::Hca(Network& net, fabric::Fabric& fab, NodeId node)
    : net_(net), fab_(fab), node_(node) {}

Network::Network(fabric::Fabric& fab) : fab_(fab) {
  hcas_.reserve(fab.size());
  for (std::size_t i = 0; i < fab.size(); ++i) {
    hcas_.push_back(
        std::make_unique<Hca>(*this, fab, static_cast<NodeId>(i)));
  }
}

// --- registration ---

RemoteRegion Hca::register_region(MemAddr addr, std::size_t len) {
  DCS_CHECK_MSG(host().memory().in_range(addr, len),
                "registering unmapped memory");
  const std::uint32_t rkey = next_rkey_++;
  regions_.emplace(rkey, Registration{addr, len});
  if (auto* a = audit::Auditor::current()) {
    a->on_register(node_, rkey, addr, len);
  }
  return RemoteRegion{node_, addr, len, rkey};
}

RemoteRegion Hca::allocate_region(std::size_t len) {
  const MemAddr addr = host().memory().allocate(len);
  DCS_CHECK_MSG(addr != fabric::kNullAddr, "node memory exhausted");
  return register_region(addr, len);
}

void Hca::deregister(std::uint32_t rkey) {
  if (auto* a = audit::Auditor::current()) {
    a->on_deregister(node_, rkey);
  }
  const auto erased = regions_.erase(rkey);
  DCS_CHECK_MSG(erased == 1, "deregister of unknown rkey");
}

void Hca::free_region(const RemoteRegion& region) {
  DCS_CHECK_MSG(region.node == node_, "free_region on foreign region");
  deregister(region.rkey);
  host().memory().free(region.addr);
}

std::span<std::byte> Hca::resolve(std::uint32_t rkey, std::size_t offset,
                                  std::size_t len, audit::AccessKind kind,
                                  const char* site) {
  const auto it = regions_.find(rkey);
  if (it == regions_.end()) {
    // Let the auditor distinguish a never-issued rkey from one that was
    // valid and has since been deregistered (use-after-deregister).
    if (auto* a = audit::Auditor::current();
        a != nullptr && a->on_unknown_rkey(node_, rkey, site)) {
      DCS_LOG("verbs", "access_error.deregistered", node_, rkey, offset);
      throw RemoteAccessError("remote access error: deregistered rkey");
    }
    DCS_LOG("verbs", "access_error.unknown_rkey", node_, rkey, offset);
    throw RemoteAccessError("remote access error: unknown rkey");
  }
  const auto& reg = it->second;
  if (offset + len > reg.len || offset + len < offset) {
    DCS_LOG("verbs", "access_error.bounds", node_, rkey, offset);
    throw RemoteAccessError("remote access error: out of registered bounds");
  }
  if (auto* a = audit::Auditor::current()) {
    a->on_access(node_, reg.addr + offset, len, kind, site);
  }
  return host().memory().bytes(reg.addr + offset, len);
}

sim::Task<void> Hca::check_alive(NodeId target) {
  if (target == node_ || !fab_.node(target).failed()) co_return;
  // The RC engine retransmits until the retry count is exhausted, then
  // completes the WQE in error.
  co_await engine().delay(fab_.params().op_timeout);
  metrics().remote_errors.add();
  DCS_TRACE_INSTANT("verbs", "remote_timeout", node_, target);
  throw RemoteTimeoutError("remote node " + std::to_string(target) +
                           " unreachable (retries exhausted)");
}

// --- one-sided ops ---

sim::Task<void> Hca::read(RemoteRegion target, std::size_t offset,
                          std::span<std::byte> dst) {
  ++one_sided_ops_;
  metrics().read_ops.add();
  metrics().read_bytes.add(dst.size());
  DCS_TRACE_SPAN("verbs", "read", node_, target.rkey);
  DCS_HOT("verbs.home", target.node, dst.size());
  co_await check_alive(target.node);
  auto& eng = engine();
  const auto& p = fab_.params();
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.post", node_);
    co_await eng.delay(p.rdma_post_overhead);
  }
  // Request packet travels to the target HCA.
  co_await fab_.wire_transfer(node_, target.node,
                              fabric::FabricParams::kControlBytes);
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.target", node_);
    co_await eng.delay(p.rdma_target_nic);
  }
  // Target HCA DMA-reads registered memory *now* — this is the observation
  // instant; no target CPU is involved.  The bytes land in `dst` straight
  // away: like on hardware, a reader of `dst` before completion races the
  // NIC, so no staging copy is kept for the response's flight time.
  auto src = net_.hca(target.node)
                 .resolve(target.rkey, offset, dst.size(),
                          audit::AccessKind::kRead, "verbs.read");
  std::copy(src.begin(), src.end(), dst.begin());
  // Response carries the payload back.
  co_await fab_.wire_transfer(target.node, node_, dst.size() + kHeaderBytes);
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.completion", node_);
    co_await eng.delay(p.rdma_completion);
  }
}

sim::Task<void> Hca::write(RemoteRegion target, std::size_t offset,
                           std::span<const std::byte> src) {
  ++one_sided_ops_;
  metrics().write_ops.add();
  metrics().write_bytes.add(src.size());
  DCS_TRACE_SPAN("verbs", "write", node_, target.rkey);
  DCS_HOT("verbs.home", target.node, src.size());
  co_await check_alive(target.node);
  auto& eng = engine();
  const auto& p = fab_.params();
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.post", node_);
    co_await eng.delay(p.rdma_post_overhead);
  }
  // Snapshot the source buffer at post time (HW reads it via DMA then).
  std::vector<std::byte> in_flight(src.begin(), src.end());
  co_await fab_.wire_transfer(node_, target.node,
                              in_flight.size() + kHeaderBytes);
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.target", node_);
    co_await eng.delay(p.rdma_target_nic);
  }
  auto dst = net_.hca(target.node)
                 .resolve(target.rkey, offset, in_flight.size(),
                          audit::AccessKind::kWrite, "verbs.write");
  std::copy(in_flight.begin(), in_flight.end(), dst.begin());
  // RC ack back to the initiator completes the work request.
  co_await fab_.wire_transfer(target.node, node_,
                              fabric::FabricParams::kControlBytes);
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.completion", node_);
    co_await eng.delay(p.rdma_completion);
  }
}

sim::Task<std::uint64_t> Hca::compare_and_swap(RemoteRegion target,
                                               std::size_t offset,
                                               std::uint64_t compare,
                                               std::uint64_t swap) {
  ++one_sided_ops_;
  metrics().cas_ops.add();
  DCS_TRACE_SPAN("verbs", "cas", node_, target.rkey);
  DCS_HOT("verbs.home", target.node, 1);
  co_await check_alive(target.node);
  auto& eng = engine();
  const auto& p = fab_.params();
  if (auto* a = audit::Auditor::current()) {
    a->on_atomic_shape(target.node, offset, 8, "verbs.cas");
  }
  if (offset % 8 != 0) {
    throw RemoteAccessError("atomic requires 8-byte alignment");
  }
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.post", node_);
    co_await eng.delay(p.rdma_post_overhead);
  }
  co_await fab_.wire_transfer(node_, target.node,
                              fabric::FabricParams::kControlBytes);
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.atomic", node_);
    co_await eng.delay(p.atomic_execute);
  }
  // The atomic executes instantaneously in virtual time at the target HCA;
  // single-threaded event dispatch guarantees atomicity.
  auto bytes = net_.hca(target.node)
                   .resolve(target.rkey, offset, 8,
                            audit::AccessKind::kAtomic, "verbs.cas");
  std::uint64_t old = 0;
  std::memcpy(&old, bytes.data(), 8);
  // Records on the *target* node under the initiator's request context, so
  // a post-mortem timeline shows the request touching the remote lock word.
  DCS_LOG("verbs", "cas.execute", target.node, old, swap);
  if (old == compare) {
    std::memcpy(bytes.data(), &swap, 8);
  }
  co_await fab_.wire_transfer(target.node, node_,
                              fabric::FabricParams::kControlBytes);
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.completion", node_);
    co_await eng.delay(p.rdma_completion);
  }
  co_return old;
}

sim::Task<std::uint64_t> Hca::fetch_and_add(RemoteRegion target,
                                            std::size_t offset,
                                            std::uint64_t add) {
  ++one_sided_ops_;
  metrics().faa_ops.add();
  DCS_TRACE_SPAN("verbs", "faa", node_, target.rkey);
  DCS_HOT("verbs.home", target.node, 1);
  co_await check_alive(target.node);
  auto& eng = engine();
  const auto& p = fab_.params();
  if (auto* a = audit::Auditor::current()) {
    a->on_atomic_shape(target.node, offset, 8, "verbs.faa");
  }
  if (offset % 8 != 0) {
    throw RemoteAccessError("atomic requires 8-byte alignment");
  }
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.post", node_);
    co_await eng.delay(p.rdma_post_overhead);
  }
  co_await fab_.wire_transfer(node_, target.node,
                              fabric::FabricParams::kControlBytes);
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.atomic", node_);
    co_await eng.delay(p.atomic_execute);
  }
  auto bytes = net_.hca(target.node)
                   .resolve(target.rkey, offset, 8,
                            audit::AccessKind::kAtomic, "verbs.faa");
  std::uint64_t old = 0;
  std::memcpy(&old, bytes.data(), 8);
  const std::uint64_t updated = old + add;
  DCS_LOG("verbs", "faa.execute", target.node, old, add);
  std::memcpy(bytes.data(), &updated, 8);
  co_await fab_.wire_transfer(target.node, node_,
                              fabric::FabricParams::kControlBytes);
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.completion", node_);
    co_await eng.delay(p.rdma_completion);
  }
  co_return old;
}

// --- batched work queue ---

void OpBatch::read(RemoteRegion target, std::size_t offset,
                   std::span<std::byte> dst) {
  read(target, offset, std::vector<std::span<std::byte>>{dst});
}

void OpBatch::read(RemoteRegion target, std::size_t offset,
                   std::vector<std::span<std::byte>> sges) {
  WorkRequest wr;
  wr.kind = OpKind::kRead;
  wr.target = target.node;
  wr.rkey = target.rkey;
  wr.offset = offset;
  for (const auto& sge : sges) wr.total_len += sge.size();
  wr.dst_sges = std::move(sges);
  wrs_.push_back(std::move(wr));
}

void OpBatch::write(RemoteRegion target, std::size_t offset,
                    std::span<const std::byte> src) {
  write(target, offset, std::vector<std::span<const std::byte>>{src});
}

void OpBatch::write(RemoteRegion target, std::size_t offset,
                    std::vector<std::span<const std::byte>> sges) {
  WorkRequest wr;
  wr.kind = OpKind::kWrite;
  wr.target = target.node;
  wr.rkey = target.rkey;
  wr.offset = offset;
  for (const auto& sge : sges) wr.total_len += sge.size();
  wr.src_sges = std::move(sges);
  wrs_.push_back(std::move(wr));
}

void OpBatch::compare_and_swap(RemoteRegion target, std::size_t offset,
                               std::uint64_t compare, std::uint64_t swap,
                               std::uint64_t* old_out) {
  WorkRequest wr;
  wr.kind = OpKind::kCas;
  wr.target = target.node;
  wr.rkey = target.rkey;
  wr.offset = offset;
  wr.total_len = 8;
  wr.arg0 = compare;
  wr.arg1 = swap;
  wr.old_out = old_out;
  wrs_.push_back(std::move(wr));
}

void OpBatch::fetch_and_add(RemoteRegion target, std::size_t offset,
                            std::uint64_t add, std::uint64_t* old_out) {
  WorkRequest wr;
  wr.kind = OpKind::kFaa;
  wr.target = target.node;
  wr.rkey = target.rkey;
  wr.offset = offset;
  wr.total_len = 8;
  wr.arg0 = add;
  wr.old_out = old_out;
  wrs_.push_back(std::move(wr));
}

void OpBatch::send(NodeId dst, std::uint32_t tag,
                   std::vector<std::byte> payload) {
  WorkRequest wr;
  wr.kind = OpKind::kSend;
  wr.target = dst;
  wr.total_len = payload.size();
  wr.tag = tag;
  wr.payload = std::move(payload);
  wrs_.push_back(std::move(wr));
}

void Hca::execute_at_target(OpBatch::WorkRequest& wr,
                            std::vector<std::byte>& data,
                            std::uint64_t& old_value) {
  Hca& target = net_.hca(wr.target);
  switch (wr.kind) {
    case OpBatch::OpKind::kRead: {
      // Target HCA DMA-reads registered memory *now*; one descriptor per
      // SGE segment, each observed by the auditor individually.
      data.reserve(wr.total_len);
      std::size_t covered = 0;
      for (const auto& sge : wr.dst_sges) {
        auto src = target.resolve(wr.rkey, wr.offset + covered, sge.size(),
                                  audit::AccessKind::kRead, "verbs.batch.read");
        data.insert(data.end(), src.begin(), src.end());
        covered += sge.size();
      }
      break;
    }
    case OpBatch::OpKind::kWrite: {
      std::size_t covered = 0;
      std::size_t consumed = 0;
      for (const auto& sge : wr.src_sges) {
        auto dst =
            target.resolve(wr.rkey, wr.offset + covered, sge.size(),
                           audit::AccessKind::kWrite, "verbs.batch.write");
        std::copy(data.begin() + static_cast<std::ptrdiff_t>(consumed),
                  data.begin() + static_cast<std::ptrdiff_t>(consumed +
                                                             sge.size()),
                  dst.begin());
        covered += sge.size();
        consumed += sge.size();
      }
      break;
    }
    case OpBatch::OpKind::kCas: {
      auto bytes = target.resolve(wr.rkey, wr.offset, 8,
                                  audit::AccessKind::kAtomic, "verbs.batch.cas");
      std::memcpy(&old_value, bytes.data(), 8);
      DCS_LOG("verbs", "cas.execute", wr.target, old_value, wr.arg1);
      if (old_value == wr.arg0) {
        std::memcpy(bytes.data(), &wr.arg1, 8);
      }
      break;
    }
    case OpBatch::OpKind::kFaa: {
      auto bytes = target.resolve(wr.rkey, wr.offset, 8,
                                  audit::AccessKind::kAtomic, "verbs.batch.faa");
      std::memcpy(&old_value, bytes.data(), 8);
      const std::uint64_t updated = old_value + wr.arg0;
      DCS_LOG("verbs", "faa.execute", wr.target, old_value, wr.arg0);
      std::memcpy(bytes.data(), &updated, 8);
      break;
    }
    case OpBatch::OpKind::kSend: {
      target.deliver(Message{node_, wr.tag, std::move(wr.payload),
                             trace::current_request()});
      break;
    }
  }
}

sim::Task<void> Hca::post(OpBatch batch) {
  if (batch.wrs_.empty()) co_return;
  auto& m = metrics();
  m.batch_posts.add();
  m.batch_ops.add(batch.wrs_.size());
  DCS_TRACE_SPAN("verbs", "batch.post", node_, batch.wrs_.size());
  auto& eng = engine();
  const auto& p = fab_.params();

  // Wire footprint of each half of a work request: write/send requests carry
  // the payload, read responses carry the data; everything else is control.
  const auto request_bytes = [](const OpBatch::WorkRequest& wr) {
    switch (wr.kind) {
      case OpBatch::OpKind::kWrite:
        return wr.total_len + kHeaderBytes;
      case OpBatch::OpKind::kSend:
        return wr.payload.size() + kHeaderBytes;
      default:
        return static_cast<std::size_t>(fabric::FabricParams::kControlBytes);
    }
  };
  const auto response_bytes = [](const OpBatch::WorkRequest& wr) {
    if (wr.kind == OpBatch::OpKind::kRead) return wr.total_len + kHeaderBytes;
    return static_cast<std::size_t>(fabric::FabricParams::kControlBytes);
  };

  // Validate shape and charge per-op statistics at post time, exactly as the
  // serial calls would.
  bool any_one_sided = false;
  for (const auto& wr : batch.wrs_) {
    switch (wr.kind) {
      case OpBatch::OpKind::kRead:
        ++one_sided_ops_;
        m.read_ops.add();
        m.read_bytes.add(wr.total_len);
        any_one_sided = true;
        break;
      case OpBatch::OpKind::kWrite:
        ++one_sided_ops_;
        m.write_ops.add();
        m.write_bytes.add(wr.total_len);
        any_one_sided = true;
        break;
      case OpBatch::OpKind::kCas:
      case OpBatch::OpKind::kFaa: {
        ++one_sided_ops_;
        const bool is_cas = wr.kind == OpBatch::OpKind::kCas;
        if (is_cas) {
          m.cas_ops.add();
        } else {
          m.faa_ops.add();
        }
        any_one_sided = true;
        if (auto* a = audit::Auditor::current()) {
          a->on_atomic_shape(wr.target, wr.offset, 8,
                             is_cas ? "verbs.batch.cas" : "verbs.batch.faa");
        }
        if (wr.offset % 8 != 0) {
          throw RemoteAccessError("atomic requires 8-byte alignment");
        }
        break;
      }
      case OpBatch::OpKind::kSend:
        ++messages_sent_;
        m.send_msgs.add();
        m.send_bytes.add(wr.payload.size());
        break;
    }
  }

  // Liveness per distinct target, in posting order (RC retry semantics).
  {
    std::vector<NodeId> checked;
    for (const auto& wr : batch.wrs_) {
      if (std::find(checked.begin(), checked.end(), wr.target) !=
          checked.end()) {
        continue;
      }
      checked.push_back(wr.target);
      co_await check_alive(wr.target);
    }
  }

  // One doorbell for the whole batch.
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.post", node_);
    co_await eng.delay(any_one_sided ? p.rdma_post_overhead
                                     : p.send_post_overhead);
  }

  // Requests serialize back-to-back at this NIC: request k+1 goes onto the
  // wire while request k is still in flight.  `flight_start[k]` marks when
  // request k's last byte left; it lands at flight_start + link_latency.
  struct InFlight {
    sim::Time flight_start = 0;
    std::vector<std::byte> data;  // write gather snapshot / read return data
    std::uint64_t old_value = 0;  // cas / faa result
  };
  std::vector<InFlight> fl(batch.wrs_.size());
  for (std::size_t i = 0; i < batch.wrs_.size(); ++i) {
    auto& wr = batch.wrs_[i];
    if (wr.kind == OpBatch::OpKind::kWrite) {
      // Gather SGEs into the wire buffer now — HW DMA-reads them at
      // serialization time.
      fl[i].data.reserve(wr.total_len);
      for (const auto& sge : wr.src_sges) {
        fl[i].data.insert(fl[i].data.end(), sge.begin(), sge.end());
      }
    }
    co_await fab_.serialize_only(node_, wr.target, request_bytes(wr));
    fl[i].flight_start = eng.now();
  }

  // Retire ops in posting order: wait for the request to land, charge the
  // target NIC, execute (the audit observation instant), then serialize the
  // response at the target.  The single wake happens after the *last*
  // response lands, so the poster pays one completion for the batch.
  sim::Time last_response = eng.now();
  for (std::size_t i = 0; i < batch.wrs_.size(); ++i) {
    auto& wr = batch.wrs_[i];
    const bool loopback = wr.target == node_;
    const sim::Time arrival =
        fl[i].flight_start + (loopback ? 0 : p.link_latency);
    if (eng.now() < arrival) {
      DCS_TRACE_COST_SPAN(trace::Cost::kWire, "verbs", "wire", node_);
      co_await eng.delay(arrival - eng.now());
    }
    switch (wr.kind) {
      case OpBatch::OpKind::kRead:
      case OpBatch::OpKind::kWrite: {
        DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.target", node_);
        co_await eng.delay(p.rdma_target_nic);
        break;
      }
      case OpBatch::OpKind::kCas:
      case OpBatch::OpKind::kFaa: {
        DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.atomic", node_);
        co_await eng.delay(p.atomic_execute);
        break;
      }
      case OpBatch::OpKind::kSend:
        break;  // delivery is free of target-NIC setup beyond the wire
    }
    execute_at_target(wr, fl[i].data, fl[i].old_value);
    co_await fab_.serialize_only(wr.target, node_, response_bytes(wr));
    const sim::Time resp_arrival = eng.now() + (loopback ? 0 : p.link_latency);
    last_response = std::max(last_response, resp_arrival);
  }
  if (eng.now() < last_response) {
    DCS_TRACE_COST_SPAN(trace::Cost::kWire, "verbs", "wire", node_);
    co_await eng.delay(last_response - eng.now());
  }

  // Completion: scatter read data / store atomic results, then one coalesced
  // wake for the whole batch.
  for (std::size_t i = 0; i < batch.wrs_.size(); ++i) {
    auto& wr = batch.wrs_[i];
    switch (wr.kind) {
      case OpBatch::OpKind::kRead: {
        std::size_t consumed = 0;
        for (auto& sge : wr.dst_sges) {
          std::copy(
              fl[i].data.begin() + static_cast<std::ptrdiff_t>(consumed),
              fl[i].data.begin() +
                  static_cast<std::ptrdiff_t>(consumed + sge.size()),
              sge.begin());
          consumed += sge.size();
        }
        break;
      }
      case OpBatch::OpKind::kCas:
      case OpBatch::OpKind::kFaa:
        if (wr.old_out != nullptr) *wr.old_out = fl[i].old_value;
        break;
      default:
        break;
    }
  }
  if (any_one_sided) {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.completion", node_);
    co_await eng.delay(p.rdma_completion);
  }
}

sim::Task<void> Hca::raw_write(NodeId dst, std::size_t bytes) {
  ++one_sided_ops_;
  metrics().raw_write_ops.add();
  metrics().raw_write_bytes.add(bytes);
  DCS_TRACE_SPAN("verbs", "raw_write", node_, bytes);
  co_await check_alive(dst);
  auto& eng = engine();
  const auto& p = fab_.params();
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.post", node_);
    co_await eng.delay(p.rdma_post_overhead);
  }
  co_await fab_.wire_transfer(node_, dst, bytes + kHeaderBytes);
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.target", node_);
    co_await eng.delay(p.rdma_target_nic);
  }
  co_await fab_.wire_transfer(dst, node_, fabric::FabricParams::kControlBytes);
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.completion", node_);
    co_await eng.delay(p.rdma_completion);
  }
}

sim::Task<void> Hca::raw_read(NodeId dst, std::size_t bytes) {
  ++one_sided_ops_;
  metrics().raw_read_ops.add();
  metrics().raw_read_bytes.add(bytes);
  DCS_TRACE_SPAN("verbs", "raw_read", node_, bytes);
  co_await check_alive(dst);
  auto& eng = engine();
  const auto& p = fab_.params();
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.post", node_);
    co_await eng.delay(p.rdma_post_overhead);
  }
  co_await fab_.wire_transfer(node_, dst, fabric::FabricParams::kControlBytes);
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.target", node_);
    co_await eng.delay(p.rdma_target_nic);
  }
  co_await fab_.wire_transfer(dst, node_, bytes + kHeaderBytes);
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.completion", node_);
    co_await eng.delay(p.rdma_completion);
  }
}

sim::Task<void> Hca::multicast(std::span<const NodeId> group,
                               std::uint32_t tag,
                               std::vector<std::byte> payload) {
  DCS_CHECK_MSG(!group.empty(), "multicast to empty group");
  ++messages_sent_;
  metrics().multicast_msgs.add();
  DCS_TRACE_SPAN("verbs", "multicast", node_, payload.size());
  auto& eng = engine();
  const auto& p = fab_.params();
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.post", node_);
    co_await eng.delay(p.send_post_overhead);
  }
  // One serialization at the sender; the switch replicates to all members.
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.tx", node_);
    auto guard = co_await host().nic_tx().scoped();
    co_await eng.delay(p.wire_time(payload.size() + kHeaderBytes));
  }
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kWire, "verbs", "wire", node_);
    co_await eng.delay(p.link_latency);
  }
  const std::uint64_t ctx = trace::current_request();
  for (const NodeId member : group) {
    if (member == node_) continue;  // loopback suppressed, as in IB MC
    if (fab_.node(member).failed()) continue;  // MC is unreliable datagram
    net_.hca(member).deliver(Message{node_, tag, payload, ctx});
  }
}

// --- two-sided ops ---

sim::Channel<Message>& Hca::queue_for(std::uint32_t tag) {
  auto it = recv_queues_.find(tag);
  if (it == recv_queues_.end()) {
    it = recv_queues_
             .emplace(tag, std::make_unique<sim::Channel<Message>>(engine()))
             .first;
  }
  return *it->second;
}

void Hca::deliver(Message msg) { queue_for(msg.tag).push(std::move(msg)); }

sim::Task<void> Hca::send(NodeId dst, std::uint32_t tag,
                          std::vector<std::byte> payload) {
  ++messages_sent_;
  metrics().send_msgs.add();
  metrics().send_bytes.add(payload.size());
  DCS_TRACE_SPAN("verbs", "send", node_, tag);
  co_await check_alive(dst);
  auto& eng = engine();
  const auto& p = fab_.params();
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.post", node_);
    co_await eng.delay(p.send_post_overhead);
  }
  const std::size_t bytes = payload.size() + kHeaderBytes;
  co_await fab_.wire_transfer(node_, dst, bytes);
  net_.hca(dst).deliver(
      Message{node_, tag, std::move(payload), trace::current_request()});
  // RC ack.
  co_await fab_.wire_transfer(dst, node_, fabric::FabricParams::kControlBytes);
}

sim::Task<Message> Hca::recv(std::uint32_t tag) {
  Message msg = co_await queue_for(tag).recv();
  metrics().recv_msgs.add();
  DCS_TRACE_INSTANT("verbs", "recv", node_, tag);
  // Consuming a completion costs a little CPU on the receiving host,
  // charged to the sender's request context.
  trace::AdoptContext adopted(msg.ctx);
  co_await host().execute_unsliced(fab_.params().recv_consume_cpu);
  co_return msg;
}

std::optional<Message> Hca::try_recv(std::uint32_t tag) {
  return queue_for(tag).try_recv();
}

}  // namespace dcs::verbs
