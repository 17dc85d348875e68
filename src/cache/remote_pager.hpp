// Remote-memory block cache — the Section 6 / [18] extension: on a local
// file-system-cache miss, fetch the block from idle remote memory over
// RDMA before falling back to disk.
//
// Eviction is cooperative: the local LRU victim is pushed (one-sided RDMA
// write) into a remote victim store instead of being dropped, so a later
// miss costs a ~10 µs RDMA read instead of a ~5 ms disk access.  This is
// the mechanism the paper proposes for avoiding file-cache corruption
// after reconfiguration events.
#pragma once

#include <deque>
#include <unordered_map>

#include "cache/lru.hpp"
#include "verbs/verbs.hpp"

namespace dcs::cache {

using fabric::NodeId;

struct RemotePagerConfig {
  std::size_t block_bytes = 16384;
  std::size_t local_capacity = 1u << 20;        // local page cache
  std::size_t remote_capacity_per_server = 4u << 20;
  SimNanos disk_seek = milliseconds(4);         // 2007-era SATA
  double disk_bytes_per_ns = 0.05;              // ~50 MB/s sustained
};

struct PagerStats {
  std::uint64_t local_hits = 0;
  std::uint64_t remote_hits = 0;
  std::uint64_t disk_reads = 0;
  std::uint64_t victims_pushed = 0;

  std::uint64_t total() const { return local_hits + remote_hits + disk_reads; }
};

class RemoteBlockCache {
 public:
  /// `self` is the node running the file system; `memory_servers` donate
  /// idle memory for the victim store.
  RemoteBlockCache(verbs::Network& net, NodeId self,
                   std::vector<NodeId> memory_servers,
                   RemotePagerConfig config = {});

  /// Reads one block: local cache, then remote victim store, then disk.
  /// Returns the block contents (deterministic per block id, verified in
  /// tests).
  sim::Task<std::vector<std::byte>> read_block(std::uint64_t block_id);

  const PagerStats& stats() const { return stats_; }
  std::size_t remote_blocks() const { return remote_index_.size(); }

  /// Deterministic on-disk content of a block: byte i is
  /// (41 * block_id + 13 * i) mod 256.
  std::vector<std::byte> disk_content(std::uint64_t block_id) const;

 private:
  struct RemoteSlot {
    NodeId server;
    verbs::RemoteRegion region;
  };

  sim::Task<void> evict_to_remote(std::uint64_t block_id,
                                  std::vector<std::byte> body);
  sim::Task<std::vector<std::byte>> disk_read(std::uint64_t block_id);

  verbs::Network& net_;
  NodeId self_;
  std::vector<NodeId> servers_;
  RemotePagerConfig config_;
  LruStore local_;
  // Victim store: block id -> remote slot; slots are recycled FIFO when
  // the remote capacity fills.
  std::unordered_map<std::uint64_t, RemoteSlot> remote_index_;
  std::deque<std::uint64_t> remote_fifo_;
  std::size_t remote_used_ = 0;
  std::size_t next_server_ = 0;
  PagerStats stats_;
};

}  // namespace dcs::cache
