#include "verbs/verbs.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "trace/hot.hpp"
#include "trace/trace.hpp"

namespace dcs::verbs {

namespace {
constexpr std::size_t kHeaderBytes = 32;  // transport header on payloads

/// Handles into the global registry, resolved once per execution context.
/// The registry is one instance per context (trace.hpp), so the cache must
/// be too: a process-wide cache would pin the first caller's registry and
/// dangle once that context dies — e.g. verbs traffic on a second
/// ShardedEngine after the first one was torn down.
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

Metrics& metrics() { return trace::context_metrics<Metrics>(); }
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

sim::Task<void> Hca::time_out(NodeId target) {
  // The RC engine retransmits until the retry count is exhausted, then
  // completes the WQE in error.
  co_await engine().delay(fab_.params().op_timeout);
  metrics().remote_errors.add();
  DCS_TRACE_INSTANT("verbs", "remote_timeout", node_, target);
  throw RemoteTimeoutError("remote node " + std::to_string(target) +
                           " unreachable (retries exhausted)");
}

// --- one-sided ops: each is a one-op batch on the shared path ---

namespace {
/// A one-op batch built in the returned object: passed straight to
/// `Hca::run`, it becomes run's argument without a move out of a local.
template <typename Add>
OpBatch one_op(Add add) {
  OpBatch b;
  add(b);
  return b;
}
}  // namespace

sim::Task<void> Hca::read(RemoteRegion target, std::size_t offset,
                          std::span<std::byte> dst) {
  return run(one_op([&](OpBatch& b) { b.read(target, offset, dst); }));
}

sim::Task<void> Hca::write(RemoteRegion target, std::size_t offset,
                           std::span<const std::byte> src) {
  return run(one_op([&](OpBatch& b) { b.write(target, offset, src); }));
}

sim::Task<std::uint64_t> Hca::compare_and_swap(RemoteRegion target,
                                               std::size_t offset,
                                               std::uint64_t compare,
                                               std::uint64_t swap) {
  std::uint64_t old = 0;
  co_await run(one_op([&](OpBatch& b) {
    b.compare_and_swap(target, offset, compare, swap, &old);
  }));
  co_return old;
}

sim::Task<std::uint64_t> Hca::fetch_and_add(RemoteRegion target,
                                            std::size_t offset,
                                            std::uint64_t add) {
  std::uint64_t old = 0;
  co_await run(one_op(
      [&](OpBatch& b) { b.fetch_and_add(target, offset, add, &old); }));
  co_return old;
}

sim::Task<void> Hca::raw_write(NodeId dst, std::size_t bytes) {
  return run(one_op([&](OpBatch& b) {
    b.append(OpBatch::OpKind::kRawWrite, dst, 0, 0, bytes);
  }));
}

sim::Task<void> Hca::raw_read(NodeId dst, std::size_t bytes) {
  return run(one_op([&](OpBatch& b) {
    b.append(OpBatch::OpKind::kRawRead, dst, 0, 0, bytes);
  }));
}

// --- batched work queue ---

namespace {
template <typename Span>
std::size_t total_bytes(const std::vector<Span>& sges) {
  std::size_t total = 0;
  for (const auto& sge : sges) total += sge.size();
  return total;
}
}  // namespace

OpBatch::WorkRequest& OpBatch::append(OpKind kind, NodeId target,
                                   std::uint32_t rkey, std::size_t offset,
                                   std::size_t total_len) {
  WorkRequest* slot = &one_;
  if (one_used_) {
    if (many_.empty()) many_.push_back(std::move(one_));
    slot = &many_.emplace_back();
  }
  one_used_ = true;
  WorkRequest& wr = *slot;
  wr.kind = kind;
  wr.target = target;
  wr.rkey = rkey;
  wr.offset = offset;
  wr.total_len = total_len;
  return wr;
}

void OpBatch::read(RemoteRegion target, std::size_t offset,
                   std::span<std::byte> dst) {
  auto& wr = append(OpKind::kRead, target.node, target.rkey, offset,
                    dst.size());
  wr.dst_sges = Segments<std::byte>(dst);
}

void OpBatch::read(RemoteRegion target, std::size_t offset,
                   std::vector<std::span<std::byte>> sges) {
  auto& wr = append(OpKind::kRead, target.node, target.rkey, offset,
                    total_bytes(sges));
  wr.dst_sges = Segments<std::byte>(std::move(sges));
}

void OpBatch::write(RemoteRegion target, std::size_t offset,
                    std::span<const std::byte> src) {
  auto& wr = append(OpKind::kWrite, target.node, target.rkey, offset,
                    src.size());
  wr.src_sges = Segments<const std::byte>(src);
}

void OpBatch::write(RemoteRegion target, std::size_t offset,
                    std::vector<std::span<const std::byte>> sges) {
  auto& wr = append(OpKind::kWrite, target.node, target.rkey, offset,
                    total_bytes(sges));
  wr.src_sges = Segments<const std::byte>(std::move(sges));
}

void OpBatch::compare_and_swap(RemoteRegion target, std::size_t offset,
                               std::uint64_t compare, std::uint64_t swap,
                               std::uint64_t* old_out) {
  auto& wr = append(OpKind::kCas, target.node, target.rkey, offset, 8);
  wr.arg0 = compare;
  wr.arg1 = swap;
  wr.old_out = old_out;
}

void OpBatch::fetch_and_add(RemoteRegion target, std::size_t offset,
                            std::uint64_t add, std::uint64_t* old_out) {
  auto& wr = append(OpKind::kFaa, target.node, target.rkey, offset, 8);
  wr.arg0 = add;
  wr.old_out = old_out;
}

void OpBatch::send(NodeId dst, std::uint32_t tag,
                   std::vector<std::byte> payload) {
  auto& wr = append(OpKind::kSend, dst, 0, 0, payload.size());
  wr.tag = tag;
  wr.payload = std::move(payload);
}

void Hca::execute_at_target(OpBatch::WorkRequest& wr) {
  Hca& target = net_.hca(wr.target);
  switch (wr.kind) {
    case OpBatch::OpKind::kRead: {
      // Target HCA DMA-reads registered memory *now* — the observation
      // instant — one descriptor per SGE segment, each observed by the
      // auditor individually.  The bytes land in the segments straight
      // away: like on hardware, a reader of them before completion races
      // the NIC, so no staging copy rides the response.
      std::size_t covered = 0;
      for (const auto& sge : wr.dst_sges.view()) {
        auto src = target.resolve(wr.rkey, wr.offset + covered, sge.size(),
                                  audit::AccessKind::kRead, "verbs.read");
        std::copy(src.begin(), src.end(), sge.begin());
        covered += sge.size();
      }
      break;
    }
    case OpBatch::OpKind::kWrite: {
      std::size_t covered = 0;
      for (const auto& sge : wr.src_sges.view()) {
        auto dst = target.resolve(wr.rkey, wr.offset + covered, sge.size(),
                                  audit::AccessKind::kWrite, "verbs.write");
        std::copy_n(wr.payload.begin() + static_cast<std::ptrdiff_t>(covered),
                    sge.size(), dst.begin());
        covered += sge.size();
      }
      break;
    }
    case OpBatch::OpKind::kCas: {
      // The atomic executes instantaneously in virtual time at the target
      // HCA; single-threaded event dispatch guarantees atomicity.
      auto bytes = target.resolve(wr.rkey, wr.offset, 8,
                                  audit::AccessKind::kAtomic, "verbs.cas");
      std::memcpy(&wr.old_value, bytes.data(), 8);
      // Records on the *target* node under the initiator's request context,
      // so a post-mortem timeline shows the request touching the remote
      // lock word.
      DCS_LOG("verbs", "cas.execute", wr.target, wr.old_value, wr.arg1);
      if (wr.old_value == wr.arg0) {
        std::memcpy(bytes.data(), &wr.arg1, 8);
      }
      break;
    }
    case OpBatch::OpKind::kFaa: {
      auto bytes = target.resolve(wr.rkey, wr.offset, 8,
                                  audit::AccessKind::kAtomic, "verbs.faa");
      std::memcpy(&wr.old_value, bytes.data(), 8);
      const std::uint64_t updated = wr.old_value + wr.arg0;
      DCS_LOG("verbs", "faa.execute", wr.target, wr.old_value, wr.arg0);
      std::memcpy(bytes.data(), &updated, 8);
      break;
    }
    case OpBatch::OpKind::kSend: {
      target.deliver(Message{node_, wr.tag, std::move(wr.payload),
                             trace::current_request()});
      break;
    }
    case OpBatch::OpKind::kRawRead:
    case OpBatch::OpKind::kRawWrite:
      break;  // timing only: no memory behind the transfer
  }
}

sim::Task<void> Hca::post(OpBatch batch) {
  return run(std::move(batch), /*posted=*/true);
}

OpBatch& PerTarget::to(NodeId target) {
  for (auto& [node, batch] : batches_) {
    if (node == target) return batch;
  }
  return batches_.emplace_back(target, OpBatch{}).second;
}

sim::Task<void> PerTarget::post(Hca& hca) {
  std::vector<sim::Task<void>> posts;
  posts.reserve(batches_.size());
  for (auto& [target, batch] : batches_) {
    posts.push_back(hca.post(std::move(batch)));
  }
  batches_.clear();
  return hca.engine().when_all(std::move(posts));
}

sim::Task<void> Hca::run(OpBatch batch, bool posted) {
  // The verb's span: declared first, so it closes after everything below.
  std::optional<trace::Span> span;
  if (batch.empty()) co_return;
  auto& m = metrics();
  auto& eng = engine();
  const auto& p = fab_.params();
  const std::span<OpBatch::WorkRequest> wrs = batch.requests();

  if (posted) {
    m.batch_posts.add();
    m.batch_ops.add(wrs.size());
    DCS_TRACE_SPAN_INTO(span, "verbs", "batch.post", node_, wrs.size());
  } else {
    const OpBatch::WorkRequest& wr = wrs.front();
    switch (wr.kind) {
      case OpBatch::OpKind::kRead:
        DCS_TRACE_SPAN_INTO(span, "verbs", "read", node_, wr.rkey);
        break;
      case OpBatch::OpKind::kWrite:
        DCS_TRACE_SPAN_INTO(span, "verbs", "write", node_, wr.rkey);
        break;
      case OpBatch::OpKind::kCas:
        DCS_TRACE_SPAN_INTO(span, "verbs", "cas", node_, wr.rkey);
        break;
      case OpBatch::OpKind::kFaa:
        DCS_TRACE_SPAN_INTO(span, "verbs", "faa", node_, wr.rkey);
        break;
      case OpBatch::OpKind::kSend:
        DCS_TRACE_SPAN_INTO(span, "verbs", "send", node_, wr.tag);
        break;
      case OpBatch::OpKind::kRawRead:
        DCS_TRACE_SPAN_INTO(span, "verbs", "raw_read", node_, wr.total_len);
        break;
      case OpBatch::OpKind::kRawWrite:
        DCS_TRACE_SPAN_INTO(span, "verbs", "raw_write", node_, wr.total_len);
        break;
    }
  }

  // Wire footprint of each half of a work request: write/send requests carry
  // the payload, read responses carry the data; everything else is control.
  const auto request_bytes = [](const OpBatch::WorkRequest& wr) {
    if (wr.kind == OpBatch::OpKind::kWrite ||
        wr.kind == OpBatch::OpKind::kSend ||
        wr.kind == OpBatch::OpKind::kRawWrite) {
      return wr.total_len + kHeaderBytes;
    }
    return static_cast<std::size_t>(fabric::FabricParams::kControlBytes);
  };
  const auto response_bytes = [](const OpBatch::WorkRequest& wr) {
    if (wr.kind == OpBatch::OpKind::kRead ||
        wr.kind == OpBatch::OpKind::kRawRead) {
      return wr.total_len + kHeaderBytes;
    }
    return static_cast<std::size_t>(fabric::FabricParams::kControlBytes);
  };

  // Validate shape and charge per-op statistics at post time.  Each
  // one-sided op on registered memory weighs on its home node's hot set:
  // bytes for read and write, 1 for an atomic.
  bool any_one_sided = false;
  for (const auto& wr : wrs) {
    bool timing_only = false;
    switch (wr.kind) {
      case OpBatch::OpKind::kRead:
        m.read_ops.add();
        m.read_bytes.add(wr.total_len);
        break;
      case OpBatch::OpKind::kWrite:
        m.write_ops.add();
        m.write_bytes.add(wr.total_len);
        break;
      case OpBatch::OpKind::kCas:
        m.cas_ops.add();
        break;
      case OpBatch::OpKind::kFaa:
        m.faa_ops.add();
        break;
      case OpBatch::OpKind::kSend:
        ++messages_sent_;
        m.send_msgs.add();
        m.send_bytes.add(wr.payload.size());
        continue;
      case OpBatch::OpKind::kRawRead:
        m.raw_read_ops.add();
        m.raw_read_bytes.add(wr.total_len);
        timing_only = true;
        break;
      case OpBatch::OpKind::kRawWrite:
        m.raw_write_ops.add();
        m.raw_write_bytes.add(wr.total_len);
        timing_only = true;
        break;
    }
    ++one_sided_ops_;
    any_one_sided = true;
    if (timing_only) continue;
    const bool atomic = wr.kind == OpBatch::OpKind::kCas ||
                        wr.kind == OpBatch::OpKind::kFaa;
    DCS_HOT("verbs.home", wr.target, atomic ? 1 : wr.total_len);
    if (atomic) {
      if (auto* a = audit::Auditor::current()) {
        a->on_atomic_shape(
            wr.target, wr.offset, 8,
            wr.kind == OpBatch::OpKind::kCas ? "verbs.cas" : "verbs.faa");
      }
      if (wr.offset % 8 != 0) {
        throw RemoteAccessError("atomic requires 8-byte alignment");
      }
    }
  }

  // Liveness in posting order (RC retry semantics): the first op whose
  // target is down fails the batch after the retry window.
  for (const auto& wr : wrs) {
    if (!reachable(wr.target)) co_await time_out(wr.target);
  }

  // One doorbell for the whole batch.
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.post", node_);
    co_await eng.delay(any_one_sided ? p.rdma_post_overhead
                                     : p.send_post_overhead);
  }

  // Requests serialize back-to-back at this NIC: request k+1 goes onto the
  // wire while request k is still in flight.  `flight_start` marks when a
  // request's last byte left; it lands one link latency later.
  for (auto& wr : wrs) {
    if (wr.kind == OpBatch::OpKind::kWrite) {
      // Gather SGEs into the wire buffer now — HW DMA-reads them at
      // serialization time.
      wr.payload.reserve(wr.total_len);
      for (const auto& sge : wr.src_sges.view()) {
        wr.payload.insert(wr.payload.end(), sge.begin(), sge.end());
      }
    }
    co_await fab_.serialize_only(node_, wr.target, request_bytes(wr));
    wr.flight_start = eng.now();
  }

  // Retire ops in posting order: wait for the request to land, charge the
  // target NIC, execute (the audit observation instant), then serialize the
  // response at the target.  The single wake happens after the *last*
  // response lands, so the poster pays one completion for the batch.
  sim::Time last_response = eng.now();
  NodeId last_responder = node_;
  for (auto& wr : wrs) {
    const sim::Time hop = wr.target == node_ ? 0 : p.link_latency;
    if (eng.now() < wr.flight_start + hop) {
      DCS_TRACE_COST_SPAN(trace::Cost::kWire, "fabric", "wire", node_);
      co_await eng.delay(wr.flight_start + hop - eng.now());
    }
    switch (wr.kind) {
      case OpBatch::OpKind::kRead:
      case OpBatch::OpKind::kWrite:
      case OpBatch::OpKind::kRawRead:
      case OpBatch::OpKind::kRawWrite: {
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
    execute_at_target(wr);
    co_await fab_.serialize_only(wr.target, node_, response_bytes(wr));
    if (eng.now() + hop > last_response) {
      last_response = eng.now() + hop;
      last_responder = wr.target;
    }
  }
  if (eng.now() < last_response) {
    DCS_TRACE_COST_SPAN(trace::Cost::kWire, "fabric", "wire", last_responder);
    co_await eng.delay(last_response - eng.now());
  }

  // Completion: store atomic results, then one coalesced wake for the batch.
  for (const auto& wr : wrs) {
    if (wr.old_out != nullptr) *wr.old_out = wr.old_value;
  }
  if (any_one_sided) {
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
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kNic, "verbs", "nic.post", node_);
    co_await engine().delay(fab_.params().send_post_overhead);
  }
  // One serialization at the sender; the switch replicates to all members.
  // The frame crosses the sender's link even when the sender is the only
  // member (the switch drops its loopback copy), so the transfer names a
  // remote node: the first remote member, else the sender's neighbour.
  const auto remote = std::find_if(group.begin(), group.end(),
                                   [&](NodeId m) { return m != node_; });
  const NodeId via = remote != group.end()
                         ? *remote
                         : static_cast<NodeId>((node_ + 1) % fab_.size());
  co_await fab_.wire_transfer(node_, via, payload.size() + kHeaderBytes);
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
  return run(
      one_op([&](OpBatch& b) { b.send(dst, tag, std::move(payload)); }));
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

sim::Task<Message> Hca::recv_reply(std::uint32_t tag) {
  Message msg = co_await recv(tag);
  DCS_CHECK_MSG(queue_for(tag).empty(), "second message on a reply tag");
  recv_queues_.erase(tag);
  co_return msg;
}

std::optional<Message> Hca::try_recv(std::uint32_t tag) {
  // A miss must not create the tag's mailbox: pollers of tags that never
  // receive (DQNL's unlock fast path) would leave one empty Channel each.
  const auto it = recv_queues_.find(tag);
  if (it == recv_queues_.end()) return std::nullopt;
  return it->second->try_recv();
}

}  // namespace dcs::verbs
