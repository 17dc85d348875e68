// Per-node registered memory.
//
// Each simulated host owns a flat byte-addressable memory arena from which
// buffers and RDMA-registered regions are carved.  A first-fit free-list
// allocator keeps semantics realistic (fragmentation, exhaustion) and
// testable.  Address 0 is reserved as the null address.
//
// The arena is one private anonymous mapping: the kernel hands out zero
// pages on first touch, so a fresh arena reads all zeros yet costs no RSS
// until simulated DMA writes it.  A 64 MB node therefore costs a few
// page-table entries, not a 64 MB memset (docs/ARCHITECTURE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>

#include "common/check.hpp"

namespace dcs::fabric {

using MemAddr = std::uint64_t;
inline constexpr MemAddr kNullAddr = 0;

class NodeMemory {
 public:
  explicit NodeMemory(std::size_t capacity_bytes);
  ~NodeMemory();
  NodeMemory(const NodeMemory&) = delete;
  NodeMemory& operator=(const NodeMemory&) = delete;

  /// Allocates `len` bytes; returns kNullAddr when no hole fits.
  MemAddr allocate(std::size_t len);
  /// Frees a previous allocation (exact address required).
  void free(MemAddr addr);

  std::size_t capacity() const { return size_ - kReservedPrefix; }
  std::size_t used() const { return used_; }

  /// Direct access for simulated DMA.  Bounds-checked.
  std::span<std::byte> bytes(MemAddr addr, std::size_t len);
  std::span<const std::byte> bytes(MemAddr addr, std::size_t len) const;

  /// True when [addr, addr+len) lies inside the arena.
  bool in_range(MemAddr addr, std::size_t len) const;

 private:
  static constexpr std::size_t kReservedPrefix = 64;  // keeps addr 0 invalid

  std::size_t size_;  // mapping length, kReservedPrefix included
  std::byte* arena_;
  std::map<MemAddr, std::size_t> free_list_;   // addr -> hole length
  std::map<MemAddr, std::size_t> allocated_;   // addr -> allocation length
  std::size_t used_ = 0;

  void coalesce(std::map<MemAddr, std::size_t>::iterator it);
};

}  // namespace dcs::fabric
