#include "ddss/aggregator.hpp"

#include <algorithm>
#include <utility>

namespace dcs::ddss {

GlobalAggregator::GlobalAggregator(verbs::Network& net,
                                   std::vector<NodeId> donors,
                                   AggregatorConfig config)
    : net_(net), donors_(std::move(donors)), config_(config) {
  DCS_CHECK(!donors_.empty());
  DCS_CHECK(config_.stripe_bytes > 0);
  DCS_CHECK(config_.max_piece_bytes > 0);
}

std::size_t GlobalAggregator::free_bytes() const {
  std::size_t total = 0;
  for (const NodeId d : donors_) {
    const auto& mem = net_.fabric().node(d).memory();
    total += mem.capacity() - mem.used();
  }
  return total;
}

sim::Task<GlobalExtent> GlobalAggregator::allocate(std::size_t bytes,
                                                   bool striped) {
  DCS_CHECK(bytes > 0);
  GlobalExtent extent;
  extent.bytes = bytes;
  extent.striped = striped;
  extent.stripe_bytes = config_.stripe_bytes;

  auto rollback = [this, &extent] {
    for (const auto& piece : extent.pieces) {
      net_.hca(piece.node).free_region(piece);
    }
  };

  std::size_t placed = 0;
  if (striped) {
    while (placed < bytes) {
      const std::size_t piece_len =
          std::min(config_.stripe_bytes, bytes - placed);
      const NodeId donor = donors_[next_donor_++ % donors_.size()];
      auto& mem = net_.fabric().node(donor).memory();
      const auto addr = mem.allocate(piece_len);
      if (addr == fabric::kNullAddr) {
        rollback();
        throw AggregatorError("aggregator: donors exhausted (striped)");
      }
      extent.pieces.push_back(net_.hca(donor).register_region(addr, piece_len));
      extent.offsets.push_back(placed);
      placed += piece_len;
    }
  } else {
    // Linear: grab the biggest piece each donor can give, round-robin.
    std::size_t attempts = 0;
    while (placed < bytes) {
      if (attempts++ > donors_.size() * 64) {
        rollback();
        throw AggregatorError("aggregator: donors exhausted (linear)");
      }
      const NodeId donor = donors_[next_donor_++ % donors_.size()];
      auto& mem = net_.fabric().node(donor).memory();
      std::size_t want = std::min(config_.max_piece_bytes, bytes - placed);
      fabric::MemAddr addr = fabric::kNullAddr;
      while (want >= 4096 || want == bytes - placed) {
        addr = mem.allocate(want);
        if (addr != fabric::kNullAddr) break;
        if (want <= 4096) break;
        want /= 2;  // donor fragmented: take a smaller piece
      }
      if (addr == fabric::kNullAddr) continue;  // try the next donor
      extent.pieces.push_back(net_.hca(donor).register_region(addr, want));
      extent.offsets.push_back(placed);
      placed += want;
    }
  }
  // The registration handshakes cost one control round per donor touched.
  co_await net_.fabric().engine().delay(
      microseconds(2) * extent.pieces.size());
  co_return extent;
}

sim::Task<void> GlobalAggregator::release(GlobalExtent extent) {
  DCS_CHECK(extent.valid());
  for (const auto& piece : extent.pieces) {
    net_.hca(piece.node).free_region(piece);
  }
  co_await net_.fabric().engine().delay(
      microseconds(1) * extent.pieces.size());
}

std::vector<GlobalAggregator::Span> GlobalAggregator::decompose(
    const GlobalExtent& extent, std::size_t offset, std::size_t len) const {
  DCS_CHECK_MSG(offset + len <= extent.bytes, "access beyond extent");
  std::vector<Span> spans;
  std::size_t cursor = offset;
  const std::size_t end = offset + len;
  // Pieces are sorted by extent offset (construction order).
  for (std::size_t i = 0; i < extent.pieces.size() && cursor < end; ++i) {
    const std::size_t piece_begin = extent.offsets[i];
    const std::size_t piece_end = piece_begin + extent.pieces[i].len;
    if (cursor >= piece_end || end <= piece_begin) continue;
    const std::size_t begin_in_piece = cursor - piece_begin;
    const std::size_t span_len = std::min(end, piece_end) - cursor;
    spans.push_back(Span{cursor - offset, i, begin_in_piece, span_len});
    cursor += span_len;
  }
  DCS_CHECK_MSG(cursor == end, "extent has a hole");
  return spans;
}

sim::Task<void> GlobalAggregator::write(NodeId actor,
                                        const GlobalExtent& extent,
                                        std::size_t offset,
                                        std::span<const std::byte> src) {
  // Fragment fan-out is one OpBatch per home node: all pieces living on a
  // donor share a single doorbell + coalesced completion, and their
  // serializations pipeline the flights.  Homes proceed concurrently.
  verbs::PerTarget homes;
  for (const auto& span : decompose(extent, offset, src.size())) {
    const auto& piece = extent.pieces[span.piece_index];
    homes.to(piece.node).write(piece, span.piece_off,
                               src.subspan(span.extent_off, span.len));
  }
  co_await homes.post(net_.hca(actor));
}

sim::Task<void> GlobalAggregator::read(NodeId actor,
                                       const GlobalExtent& extent,
                                       std::size_t offset,
                                       std::span<std::byte> dst) {
  verbs::PerTarget homes;
  for (const auto& span : decompose(extent, offset, dst.size())) {
    const auto& piece = extent.pieces[span.piece_index];
    homes.to(piece.node).read(piece, span.piece_off,
                              dst.subspan(span.extent_off, span.len));
  }
  co_await homes.post(net_.hca(actor));
}

}  // namespace dcs::ddss
