#include "cache/remote_pager.hpp"

#include "common/bytes.hpp"

namespace dcs::cache {

RemoteBlockCache::RemoteBlockCache(verbs::Network& net, NodeId self,
                                   std::vector<NodeId> memory_servers,
                                   RemotePagerConfig config)
    : net_(net),
      self_(self),
      servers_(std::move(memory_servers)),
      config_(config),
      local_(config.local_capacity) {
  DCS_CHECK(!servers_.empty());
  DCS_CHECK(config_.block_bytes > 0);
  DCS_CHECK(config_.local_capacity >= config_.block_bytes);
}

std::vector<std::byte> RemoteBlockCache::disk_content(
    std::uint64_t block_id) const {
  return affine_bytes(config_.block_bytes,
                      static_cast<std::uint8_t>(block_id * 41), 13);
}

sim::Task<std::vector<std::byte>> RemoteBlockCache::disk_read(
    std::uint64_t block_id) {
  ++stats_.disk_reads;
  auto& eng = net_.fabric().engine();
  const auto transfer = static_cast<SimNanos>(
      static_cast<double>(config_.block_bytes) / config_.disk_bytes_per_ns);
  co_await eng.delay(config_.disk_seek + transfer);
  co_return disk_content(block_id);
}

sim::Task<void> RemoteBlockCache::evict_to_remote(
    std::uint64_t block_id, std::vector<std::byte> body) {
  // Make room in the remote store (FIFO recycling of the oldest victim).
  const std::size_t per_server_total =
      config_.remote_capacity_per_server * servers_.size();
  while (remote_used_ + body.size() > per_server_total &&
         !remote_fifo_.empty()) {
    const auto old = remote_fifo_.front();
    remote_fifo_.pop_front();
    auto it = remote_index_.find(old);
    if (it == remote_index_.end()) continue;
    remote_used_ -= it->second.region.len;
    net_.hca(it->second.server).free_region(it->second.region);
    remote_index_.erase(it);
  }
  if (remote_used_ + body.size() > per_server_total) co_return;

  // Pick a donor round-robin; skip donors that are out of memory or down.
  for (std::size_t attempt = 0; attempt < servers_.size(); ++attempt) {
    const NodeId server = servers_[next_server_++ % servers_.size()];
    if (net_.fabric().node(server).failed()) continue;
    auto& mem = net_.fabric().node(server).memory();
    const auto addr = mem.allocate(body.size());
    if (addr == fabric::kNullAddr) continue;
    auto region = net_.hca(server).register_region(addr, body.size());
    try {
      co_await net_.hca(self_).write(region, 0, body);
    } catch (const verbs::RemoteTimeoutError&) {
      net_.hca(server).free_region(region);  // died mid-push
      continue;
    }
    remote_used_ += region.len;
    remote_index_[block_id] = RemoteSlot{server, region};
    remote_fifo_.push_back(block_id);
    ++stats_.victims_pushed;
    co_return;
  }
}

sim::Task<std::vector<std::byte>> RemoteBlockCache::read_block(
    std::uint64_t block_id) {
  // 1. local page cache
  if (const Body body = local_.get(static_cast<DocId>(block_id))) {
    ++stats_.local_hits;
    co_return *body;
  }

  std::vector<std::byte> body;
  // 2. remote victim store (one RDMA read; server CPU uninvolved)
  const auto it = remote_index_.find(block_id);
  bool remote_ok = false;
  if (it != remote_index_.end()) {
    body.resize(it->second.region.len);
    try {
      co_await net_.hca(self_).read(it->second.region, 0, body);
      remote_ok = true;
      ++stats_.remote_hits;
    } catch (const verbs::RemoteTimeoutError&) {
      // Memory server down: forget every slot it held; fall back to disk.
      const NodeId dead = it->second.server;
      for (auto slot_it = remote_index_.begin();
           slot_it != remote_index_.end();) {
        if (slot_it->second.server == dead) {
          remote_used_ -= slot_it->second.region.len;
          slot_it = remote_index_.erase(slot_it);
        } else {
          ++slot_it;
        }
      }
    }
    if (remote_ok) {
      // Promote back to local; the remote slot is released.
      remote_used_ -= it->second.region.len;
      net_.hca(it->second.server).free_region(it->second.region);
      remote_index_.erase(it);
    }
  }
  if (!remote_ok) {
    // 3. disk
    body = co_await disk_read(block_id);
  }

  // Insert locally; push the LRU victims to remote memory.  The eviction
  // callback cannot run coroutines, so victims are collected then pushed.
  std::vector<DocId> evicted_ids;
  const Body cached = make_body(std::move(body));
  (void)local_.insert(
      static_cast<DocId>(block_id), cached,
      [&evicted_ids](DocId victim) { evicted_ids.push_back(victim); });
  for (const DocId victim : evicted_ids) {
    // Reconstruct the victim's contents: blocks are clean (read cache), so
    // the canonical bytes equal the disk content.
    co_await evict_to_remote(victim, disk_content(victim));
  }
  co_return *cached;
}

}  // namespace dcs::cache
