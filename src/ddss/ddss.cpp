#include "ddss/ddss.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "audit/audit.hpp"
#include "trace/hot.hpp"
#include "trace/trace.hpp"
#include "verbs/wire.hpp"

namespace dcs::ddss {

namespace {

struct DdssMetrics {
  trace::Counter& put_ops = reg().counter("ddss.put.ops");
  trace::Counter& put_bytes = reg().counter("ddss.put.bytes");
  trace::Counter& get_ops = reg().counter("ddss.get.ops");
  trace::Counter& get_bytes = reg().counter("ddss.get.bytes");
  trace::Counter& alloc_ops = reg().counter("ddss.alloc.ops");
  trace::Counter& release_ops = reg().counter("ddss.release.ops");
  trace::Counter& lock_cas_retries = reg().counter("ddss.lock.cas_retries");
  trace::Counter& version_retries = reg().counter("ddss.get.version_retries");
  trace::Counter& temporal_hits = reg().counter("ddss.temporal.cache_hits");
  trace::Counter& temporal_misses = reg().counter("ddss.temporal.cache_misses");
  trace::Distribution& put_latency = reg().distribution("ddss.put.latency_ns");
  trace::Distribution& get_latency = reg().distribution("ddss.get.latency_ns");

  static trace::Registry& reg() { return trace::Registry::global(); }
};

DdssMetrics& metrics() { return trace::context_metrics<DdssMetrics>(); }

enum class Op : std::uint8_t { kAlloc = 1, kFree = 2 };

constexpr std::uint32_t kControlTag = 0xDD55;     // the daemon's verbs tag
constexpr std::uint32_t kInvalidateTag = 0xDD57;  // write-invalidate tag
constexpr std::uint32_t kReplyTagBase = 0xDD560000;
/// Backoff between lock CAS retries, torn-version retries and version polls.
constexpr SimNanos kBackoff = microseconds(2);

/// Cluster-unique identifier of a temporal allocation's cached datum.
std::uint64_t temporal_tag(const Allocation& alloc) {
  return alloc.data.addr ^ (std::uint64_t{alloc.home} << 48);
}

void encode_region(verbs::Encoder& enc, const verbs::RemoteRegion& r) {
  enc.u32(r.node).u64(r.addr).u64(r.len).u32(r.rkey);
}

verbs::RemoteRegion decode_region(verbs::Decoder& dec) {
  verbs::RemoteRegion r;
  r.node = dec.u32();
  r.addr = dec.u64();
  r.len = dec.u64();
  r.rkey = dec.u32();
  return r;
}

}  // namespace

const char* to_string(Coherence c) {
  switch (c) {
    case Coherence::kNull: return "Null";
    case Coherence::kRead: return "Read";
    case Coherence::kWrite: return "Write";
    case Coherence::kStrict: return "Strict";
    case Coherence::kVersion: return "Version";
    case Coherence::kDelta: return "Delta";
    case Coherence::kTemporal: return "Temporal";
  }
  return "?";
}

Ddss::Ddss(verbs::Network& net, DdssConfig config)
    : net_(net), config_(config) {}

void Ddss::start() {
  DCS_CHECK_MSG(!started_, "Ddss::start called twice");
  started_ = true;
  for (NodeId n = 0; n < static_cast<NodeId>(net_.size()); ++n) {
    engine().spawn(daemon(n));
    net_.fabric().node(n).add_service_threads(1);
    if (config_.temporal_write_invalidate) {
      engine().spawn(invalidation_listener(n));
    }
  }
}

sim::Task<void> Ddss::invalidation_listener(NodeId node) {
  auto& hca = net_.hca(node);
  for (;;) {
    verbs::Message msg = co_await hca.recv(kInvalidateTag);
    verbs::Decoder dec(msg.payload);
    temporal_cache_.erase(CacheKey{node, dec.u64()});
  }
}

std::size_t Ddss::storage_bytes(std::size_t size, Coherence c) const {
  return c == Coherence::kDelta ? size * kDeltaVersions : size;
}

NodeId Ddss::pick_home(NodeId requester, Placement placement,
                       std::size_t bytes) {
  const auto n = static_cast<NodeId>(net_.size());
  switch (placement) {
    case Placement::kLocal:
      return requester;
    case Placement::kRemote: {
      // First remote node with room.
      for (NodeId i = 0; i < n; ++i) {
        const NodeId cand = (requester + 1 + i) % n;
        if (cand == requester) continue;
        auto& mem = net_.fabric().node(cand).memory();
        if (mem.capacity() - mem.used() >= bytes) return cand;
      }
      DCS_LOG("ddss", "alloc_fail.no_remote_room", requester, bytes);
      throw DdssError("no remote node has room");
    }
    case Placement::kRoundRobin:
      return static_cast<NodeId>(rr_next_++ % n);
    case Placement::kLeastLoaded: {
      NodeId best = 0;
      std::size_t best_free = 0;
      for (NodeId i = 0; i < n; ++i) {
        auto& mem = net_.fabric().node(i).memory();
        const std::size_t free_bytes = mem.capacity() - mem.used();
        if (free_bytes > best_free) {
          best_free = free_bytes;
          best = i;
        }
      }
      return best;
    }
  }
  return requester;
}

sim::Task<void> Ddss::daemon(NodeId node) {
  auto& hca = net_.hca(node);
  for (;;) {
    verbs::Message msg = co_await hca.recv(kControlTag);
    // Home-node servicing is charged to the client's trace context.
    trace::AdoptContext adopted(msg.ctx);
    verbs::Decoder dec(msg.payload);
    const auto op = static_cast<Op>(dec.u8());
    const std::uint32_t reply_tag = dec.u32();
    switch (op) {
      case Op::kAlloc: {
        const std::uint64_t payload_bytes = dec.u64();
        verbs::Encoder reply;
        const fabric::MemAddr data_addr =
            hca.host().memory().allocate(payload_bytes);
        if (data_addr == fabric::kNullAddr) {
          reply.u8(0);  // failure
        } else {
          auto data = hca.register_region(data_addr, payload_bytes);
          auto meta = hca.allocate_region(MetaLayout::kSize);
          // Metadata is all polled synchronization words (lock, version,
          // head, timestamp): accesses there are release/acquire edges for
          // the race checker, not data accesses.
          if (auto* a = audit::Auditor::current()) {
            a->mark_sync_range(node, meta.addr, MetaLayout::kSize);
          }
          // Zero the metadata words (lock free, version 0, head 0).
          audit::host_write(node, meta.addr, MetaLayout::kSize,
                            "ddss.daemon.zero-meta");
          auto meta_bytes =
              hca.host().memory().bytes(meta.addr, MetaLayout::kSize);
          std::fill(meta_bytes.begin(), meta_bytes.end(), std::byte{0});
          reply.u8(1);
          encode_region(reply, data);
          encode_region(reply, meta);
          ++allocations_served_;
        }
        co_await hca.send(msg.src, reply_tag, reply.take());
        break;
      }
      case Op::kFree: {
        auto data = decode_region(dec);
        auto meta = decode_region(dec);
        if (auto* a = audit::Auditor::current()) {
          a->unmark_sync_range(node, meta.addr);
          a->unmark_optimistic_range(node, data.addr);
        }
        hca.deregister(data.rkey);
        hca.host().memory().free(data.addr);
        hca.free_region(meta);
        co_await hca.send(msg.src, reply_tag,
                          verbs::Encoder().u8(1).take());
        break;
      }
    }
  }
}

// --- Client ---

Client::Client(Ddss& substrate, NodeId node, std::uint32_t process_id)
    : ddss_(substrate), node_(node), process_id_(process_id) {}

sim::Task<void> Client::ipc_hop() {
  // Processes other than the substrate owner reach it over local IPC.
  if (process_id_ != 0) {
    co_await ddss_.net_.fabric().node(node_).execute_unsliced(
        nanoseconds(400));
  }
}

sim::Task<Allocation> Client::allocate(std::size_t size, Coherence coherence,
                                       Placement placement) {
  DCS_CHECK(size > 0);
  metrics().alloc_ops.add();
  DCS_TRACE_SPAN("ddss", "allocate", node_, size, to_string(coherence));
  co_await ipc_hop();
  const std::size_t storage = ddss_.storage_bytes(size, coherence);
  const NodeId home = ddss_.pick_home(node_, placement, storage);

  const std::uint32_t reply_tag =
      kReplyTagBase + (ddss_.next_reply_++ & 0x7FFF);

  verbs::Encoder req;
  req.u8(static_cast<std::uint8_t>(Op::kAlloc)).u32(reply_tag).u64(storage);
  auto& hca = ddss_.net_.hca(node_);
  co_await hca.send(home, kControlTag, req.take());
  verbs::Message reply = co_await hca.recv_reply(reply_tag);
  verbs::Decoder dec(reply.payload);
  if (dec.u8() == 0) {
    DCS_LOG("ddss", "alloc_fail.home_exhausted", node_, home);
    throw DdssError("allocation failed: home node out of registered memory");
  }
  Allocation alloc;
  alloc.key = ddss_.next_key_++;
  alloc.coherence = coherence;
  alloc.size = size;
  alloc.home = home;
  alloc.data = decode_region(dec);
  alloc.meta = decode_region(dec);
  // Under version-validated and best-effort models, concurrent access to
  // the data region is the protocol's documented behaviour (readers detect
  // torn data via the version word and retry), so it is exempt from race
  // checking.  Lock-based models keep full checking: a concurrent access
  // there means a lock bug.
  if (alloc.coherence != Coherence::kWrite &&
      alloc.coherence != Coherence::kStrict) {
    if (auto* a = audit::Auditor::current()) {
      a->mark_optimistic_range(alloc.data.node, alloc.data.addr,
                               alloc.data.len);
    }
  }
  co_return alloc;
}

sim::Task<void> Client::release(Allocation alloc) {
  DCS_CHECK(alloc.valid());
  metrics().release_ops.add();
  DCS_TRACE_SPAN("ddss", "release", node_, alloc.key);
  co_await ipc_hop();
  invalidate_cached(alloc);
  const std::uint32_t reply_tag =
      kReplyTagBase + 0x8000 + (ddss_.next_reply_++ & 0x7FFF);
  verbs::Encoder req;
  req.u8(static_cast<std::uint8_t>(Op::kFree)).u32(reply_tag);
  encode_region(req, alloc.data);
  encode_region(req, alloc.meta);
  auto& hca = ddss_.net_.hca(node_);
  co_await hca.send(alloc.home, kControlTag, req.take());
  (void)co_await hca.recv_reply(reply_tag);
}

sim::Task<std::uint64_t> Client::fetch_add(const Allocation& alloc,
                                           std::size_t offset,
                                           std::uint64_t delta) {
  DCS_CHECK(alloc.valid());
  DCS_CHECK_MSG(offset + 8 <= alloc.size, "atomic outside allocation");
  co_await ipc_hop();
  co_return co_await ddss_.net_.hca(node_).fetch_and_add(alloc.data, offset,
                                                         delta);
}

sim::Task<std::uint64_t> Client::compare_swap(const Allocation& alloc,
                                              std::size_t offset,
                                              std::uint64_t expected,
                                              std::uint64_t desired) {
  DCS_CHECK(alloc.valid());
  DCS_CHECK_MSG(offset + 8 <= alloc.size, "atomic outside allocation");
  co_await ipc_hop();
  co_return co_await ddss_.net_.hca(node_).compare_and_swap(
      alloc.data, offset, expected, desired);
}

sim::Task<void> Client::lock(const Allocation& alloc) {
  auto& hca = ddss_.net_.hca(node_);
  const std::uint64_t self = node_ + 1;
  for (;;) {
    const auto old = co_await hca.compare_and_swap(alloc.meta,
                                                   MetaLayout::kLock, 0, self);
    if (old == 0) co_return;
    metrics().lock_cas_retries.add();
    co_await ddss_.engine().delay(kBackoff);
  }
}

sim::Task<void> Client::unlock(const Allocation& alloc) {
  auto& hca = ddss_.net_.hca(node_);
  const std::uint64_t self = node_ + 1;
  const auto old =
      co_await hca.compare_and_swap(alloc.meta, MetaLayout::kLock, self, 0);
  DCS_CHECK_MSG(old == self, "unlock by non-owner");
}

void Client::stage_put(verbs::OpBatch& batch, const Allocation& alloc,
                       std::span<const std::byte> value, std::size_t offset,
                       OpWords& words) {
  // Posting order is execution order at the home: each update lands after
  // the data write, so a reader never validates against unwritten data.
  batch.write(alloc.data, offset, value);
  switch (alloc.coherence) {
    case Coherence::kRead:
    case Coherence::kVersion:
    case Coherence::kStrict:
      batch.fetch_and_add(alloc.meta, MetaLayout::kVersion, 1);
      break;
    case Coherence::kDelta:
      batch.fetch_and_add(alloc.meta, MetaLayout::kDeltaHead, 1);
      break;
    case Coherence::kTemporal:
      verbs::store_u64(words.image, 0, ddss_.engine().now());
      batch.write(alloc.meta, MetaLayout::kTimestamp, words.image);
      break;
    case Coherence::kNull:
    case Coherence::kWrite:
      break;
  }
  if (alloc.coherence == Coherence::kWrite ||
      alloc.coherence == Coherence::kStrict) {
    batch.compare_and_swap(alloc.meta, MetaLayout::kLock, node_ + 1, 0,
                           &words.unlock_old);
    words.unlocks = true;
  }
}

void Client::stage_get(verbs::OpBatch& batch, const Allocation& alloc,
                       std::span<std::byte> out, OpWords& words) {
  batch.read(alloc.data, 0, out);
  if (alloc.coherence == Coherence::kRead) {
    // Executes after the data read: sees the version that data committed.
    batch.read(alloc.meta, MetaLayout::kVersion, words.image);
  }
  if (alloc.coherence == Coherence::kStrict) {
    batch.compare_and_swap(alloc.meta, MetaLayout::kLock, node_ + 1, 0,
                           &words.unlock_old);
    words.unlocks = true;
  }
}

void Client::check_unlock(const OpWords& words) const {
  DCS_CHECK_MSG(!words.unlocks || words.unlock_old == node_ + 1,
                "unlock by non-owner");
}

sim::Task<void> Client::put(const Allocation& alloc,
                            std::span<const std::byte> value) {
  DCS_CHECK(alloc.valid());
  DCS_CHECK_MSG(value.size() <= alloc.size, "put larger than allocation");
  metrics().put_ops.add();
  metrics().put_bytes.add(value.size());
  DCS_TRACE_SPAN("ddss", "put", node_, alloc.key, to_string(alloc.coherence));
  DCS_HOT("ddss.object", alloc.key, 1);
  const SimNanos put_t0 = ddss_.engine().now();
  co_await ipc_hop();
  auto& hca = ddss_.net_.hca(node_);
  if (alloc.coherence == Coherence::kWrite ||
      alloc.coherence == Coherence::kStrict) {
    co_await lock(alloc);
  }
  std::size_t offset = 0;
  if (alloc.coherence == Coherence::kDelta) {
    // Single-writer ring: the new version goes to the slot after the head.
    std::byte head_img[8];
    co_await hca.read(alloc.meta, MetaLayout::kDeltaHead, head_img);
    offset = (verbs::load_u64(head_img, 0) % kDeltaVersions) * alloc.size;
  }
  OpWords words;
  verbs::OpBatch batch;
  stage_put(batch, alloc, value, offset, words);
  if (batch.size() == 1) {
    co_await hca.write(alloc.data, offset, value);  // the lone data write
  } else {
    co_await hca.post(std::move(batch));
  }
  check_unlock(words);
  if (alloc.coherence == Coherence::kTemporal) {
    invalidate_cached(alloc);  // our own node re-reads fresh data
    if (ddss_.config_.temporal_write_invalidate) {
      const auto tag = temporal_tag(alloc);
      auto it = ddss_.temporal_sharers_.find(tag);
      if (it != ddss_.temporal_sharers_.end() && !it->second.empty()) {
        std::vector<NodeId> group(it->second.begin(), it->second.end());
        ddss_.temporal_sharers_.erase(it);
        co_await hca.multicast(group, kInvalidateTag,
                               verbs::Encoder().u64(tag).take());
      }
    }
  }
  metrics().put_latency.record_ns(ddss_.engine().now() - put_t0);
}

sim::Task<void> Client::get(const Allocation& alloc, std::span<std::byte> out) {
  DCS_CHECK(alloc.valid());
  DCS_CHECK_MSG(out.size() <= alloc.size, "get larger than allocation");
  metrics().get_ops.add();
  metrics().get_bytes.add(out.size());
  DCS_TRACE_SPAN("ddss", "get", node_, alloc.key, to_string(alloc.coherence));
  DCS_HOT("ddss.object", alloc.key, 1);
  const SimNanos get_t0 = ddss_.engine().now();
  co_await ipc_hop();
  auto& hca = ddss_.net_.hca(node_);
  const bool temporal = alloc.coherence == Coherence::kTemporal;
  const Ddss::CacheKey key{node_, temporal_tag(alloc)};
  const auto now = ddss_.engine().now();
  if (temporal) {
    auto it = ddss_.temporal_cache_.find(key);
    if (it != ddss_.temporal_cache_.end() &&
        now - it->second.fetched_at < ddss_.config_.temporal_ttl &&
        it->second.value.size() >= out.size()) {
      std::copy_n(it->second.value.begin(), out.size(), out.begin());
      metrics().temporal_hits.add();
      metrics().get_latency.record_ns(ddss_.engine().now() - get_t0);
      co_return;
    }
    metrics().temporal_misses.add();
  }
  if (alloc.coherence == Coherence::kVersion) {
    (void)co_await get_versioned(alloc, out);
  } else if (alloc.coherence == Coherence::kDelta) {
    co_await get_delta(alloc, 0, out);
  } else {
    if (alloc.coherence == Coherence::kStrict) co_await lock(alloc);
    OpWords words;
    verbs::OpBatch batch;
    stage_get(batch, alloc, out, words);
    if (batch.size() == 1) {
      co_await hca.read(alloc.data, 0, out);  // the lone data read
    } else {
      co_await hca.post(std::move(batch));
    }
    check_unlock(words);
  }
  if (temporal) {
    ddss_.temporal_cache_[key] =
        Ddss::CacheEntry{{out.begin(), out.end()}, now};
    if (ddss_.config_.temporal_write_invalidate) {
      ddss_.temporal_sharers_[key.key].insert(node_);
    }
  }
  metrics().get_latency.record_ns(ddss_.engine().now() - get_t0);
}

sim::Task<std::uint64_t> Client::get_versioned(const Allocation& alloc,
                                               std::span<std::byte> out) {
  DCS_CHECK(alloc.valid());
  auto& hca = ddss_.net_.hca(node_);
  for (;;) {
    // Seqlock triple in one batch: v1 / data / v2 execute at the home in
    // posting order, so the torn-read detection is unchanged while the
    // three round trips collapse into one pipelined flight.
    std::byte v1_img[8], v2_img[8];
    verbs::OpBatch batch;
    batch.read(alloc.meta, MetaLayout::kVersion, v1_img);
    batch.read(alloc.data, 0, out);
    batch.read(alloc.meta, MetaLayout::kVersion, v2_img);
    co_await hca.post(std::move(batch));
    const auto v1 = verbs::load_u64(v1_img, 0);
    const auto v2 = verbs::load_u64(v2_img, 0);
    if (v1 == v2) co_return v2;
    metrics().version_retries.add();
    co_await ddss_.engine().delay(kBackoff);
  }
}

sim::Task<void> Client::get_delta(const Allocation& alloc, std::size_t age,
                                  std::span<std::byte> out) {
  DCS_CHECK(alloc.coherence == Coherence::kDelta);
  DCS_CHECK_MSG(age < kDeltaVersions,
                "delta age beyond retained window");
  auto& hca = ddss_.net_.hca(node_);
  std::byte head_img[8];
  co_await hca.read(alloc.meta, MetaLayout::kDeltaHead, head_img);
  const auto head = verbs::load_u64(head_img, 0);
  if (head == 0) {
    DCS_LOG("ddss", "delta_get.empty", node_, alloc.meta.rkey);
    throw DdssError("delta get before first put");
  }
  DCS_CHECK_MSG(age < head, "delta age older than history");
  const std::size_t slot = (head - 1 - age) % kDeltaVersions;
  co_await hca.read(alloc.data, slot * alloc.size, out);
}

sim::Task<std::uint64_t> Client::version(const Allocation& alloc) {
  auto& hca = ddss_.net_.hca(node_);
  std::byte ver_img[8];
  co_await hca.read(alloc.meta, MetaLayout::kVersion, ver_img);
  co_return verbs::load_u64(ver_img, 0);
}

sim::Task<std::uint64_t> Client::wait_version(const Allocation& alloc,
                                              std::uint64_t min_version) {
  for (;;) {
    const auto v = co_await version(alloc);
    if (v >= min_version) co_return v;
    co_await ddss_.engine().delay(kBackoff);
  }
}

void Client::invalidate_cached(const Allocation& alloc) {
  ddss_.temporal_cache_.erase(Ddss::CacheKey{node_, temporal_tag(alloc)});
}

namespace {
/// True when the model's put/get is a fixed op sequence that can join a
/// per-home batch (no lock, no ring head, no cache protocol).
bool batchable_put(Coherence c) {
  return c == Coherence::kNull || c == Coherence::kRead ||
         c == Coherence::kVersion;
}
bool batchable_get(Coherence c) {
  return c == Coherence::kNull || c == Coherence::kWrite ||
         c == Coherence::kRead;
}
}  // namespace

sim::Task<void> Client::put_many(std::span<const PutOp> ops) {
  if (ops.empty()) co_return;
  DCS_TRACE_SPAN("ddss", "put_many", node_, ops.size());
  const SimNanos t0 = ddss_.engine().now();
  co_await ipc_hop();
  // One batch per home, filled in op order so same-home puts retire in
  // posting order at that home.
  verbs::PerTarget homes;
  std::vector<OpWords> words(ops.size());
  std::size_t batched = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const PutOp& op = ops[i];
    const Allocation& alloc = *op.alloc;
    DCS_CHECK(alloc.valid());
    DCS_CHECK_MSG(op.value.size() <= alloc.size, "put larger than allocation");
    if (!batchable_put(alloc.coherence)) continue;
    DCS_HOT("ddss.object", alloc.key, 1);
    metrics().put_ops.add();
    metrics().put_bytes.add(op.value.size());
    stage_put(homes.to(alloc.home), alloc, op.value, 0, words[i]);
    ++batched;
  }
  if (batched > 0) {
    co_await homes.post(ddss_.net_.hca(node_));
    // Per-op latency under batching is the batch latency: every op in the
    // batch completes at the coalesced wake.
    for (std::size_t i = 0; i < batched; ++i) {
      metrics().put_latency.record_ns(ddss_.engine().now() - t0);
    }
  }
  // Lock-based / cache-protocol models keep their serial multi-round path.
  for (const PutOp& op : ops) {
    if (batchable_put(op.alloc->coherence)) continue;
    co_await put(*op.alloc, op.value);
  }
}

sim::Task<void> Client::get_many(std::span<const GetOp> ops) {
  if (ops.empty()) co_return;
  DCS_TRACE_SPAN("ddss", "get_many", node_, ops.size());
  const SimNanos t0 = ddss_.engine().now();
  co_await ipc_hop();
  verbs::PerTarget homes;
  std::vector<OpWords> words(ops.size());
  std::size_t batched = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const GetOp& op = ops[i];
    const Allocation& alloc = *op.alloc;
    DCS_CHECK(alloc.valid());
    DCS_CHECK_MSG(op.out.size() <= alloc.size, "get larger than allocation");
    if (!batchable_get(alloc.coherence)) continue;
    DCS_HOT("ddss.object", alloc.key, 1);
    metrics().get_ops.add();
    metrics().get_bytes.add(op.out.size());
    stage_get(homes.to(alloc.home), alloc, op.out, words[i]);
    ++batched;
  }
  if (batched > 0) {
    co_await homes.post(ddss_.net_.hca(node_));
    for (std::size_t i = 0; i < batched; ++i) {
      metrics().get_latency.record_ns(ddss_.engine().now() - t0);
    }
  }
  for (const GetOp& op : ops) {
    if (batchable_get(op.alloc->coherence)) continue;
    co_await get(*op.alloc, op.out);
  }
}

}  // namespace dcs::ddss
