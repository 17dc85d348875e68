// Global memory aggregator — the layer-2 primitive of Figure 1.
//
// Aggregates registered memory donated by many nodes into one logical
// space.  Extents may span donors and may be striped across them, so a
// single large read/write fans out into parallel one-sided RDMA operations
// against multiple NICs — aggregating both capacity and bandwidth, which
// is what data-center services use it for (e.g. MTACC-style cache memory,
// staging areas for large responses).
#pragma once

#include <vector>

#include "sim/engine.hpp"
#include "verbs/verbs.hpp"

namespace dcs::ddss {

using fabric::NodeId;

struct AggregatorConfig {
  /// Striping unit: consecutive stripe_bytes land on consecutive donors.
  std::size_t stripe_bytes = 256 * 1024;
  /// Largest contiguous piece requested from one donor in linear mode.
  std::size_t max_piece_bytes = 4u << 20;
};

/// A logical extent of aggregated memory; `pieces[i]` holds bytes
/// [offsets[i], offsets[i] + pieces[i].len) of the extent.
struct GlobalExtent {
  std::size_t bytes = 0;
  bool striped = false;
  std::size_t stripe_bytes = 0;
  std::vector<verbs::RemoteRegion> pieces;
  std::vector<std::size_t> offsets;

  bool valid() const { return bytes > 0 && !pieces.empty(); }
};

class AggregatorError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class GlobalAggregator {
 public:
  GlobalAggregator(verbs::Network& net, std::vector<NodeId> donors,
                   AggregatorConfig config = {});

  /// Allocates `bytes` of aggregated memory.  Linear mode packs pieces
  /// first-fit across donors; striped mode round-robins stripe-sized
  /// pieces so large accesses parallelize across donor NICs.
  /// Throws AggregatorError when the donors cannot satisfy the request.
  sim::Task<GlobalExtent> allocate(std::size_t bytes, bool striped = false);
  sim::Task<void> release(GlobalExtent extent);

  /// Scatter/gather one-sided access from `actor`.  Pieces living on
  /// different donors are accessed concurrently.
  sim::Task<void> write(NodeId actor, const GlobalExtent& extent,
                        std::size_t offset, std::span<const std::byte> src);
  sim::Task<void> read(NodeId actor, const GlobalExtent& extent,
                       std::size_t offset, std::span<std::byte> dst);

  /// Free registered memory summed across donors (approximate capacity).
  std::size_t free_bytes() const;

 private:
  struct Span {
    std::size_t extent_off;
    std::size_t piece_index;
    std::size_t piece_off;
    std::size_t len;
  };
  /// Decomposes [offset, offset+len) of the extent into per-piece spans.
  std::vector<Span> decompose(const GlobalExtent& extent, std::size_t offset,
                              std::size_t len) const;

  verbs::Network& net_;
  std::vector<NodeId> donors_;
  AggregatorConfig config_;
  std::size_t next_donor_ = 0;
};

}  // namespace dcs::ddss
