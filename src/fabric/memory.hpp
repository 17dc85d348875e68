// Per-node registered memory.
//
// Each simulated host owns a flat byte-addressable memory arena from which
// buffers and RDMA-registered regions are carved.  A first-fit free-list
// allocator keeps semantics realistic (fragmentation, exhaustion) and
// testable.  Address 0 is reserved as the null address.
//
// Arenas live in private anonymous mappings (`Arena`): the kernel hands out
// zero pages on first touch, so a fresh arena reads all zeros yet costs no
// RSS until simulated DMA writes it.  A Fabric maps one Arena for all of its
// nodes and gives each NodeMemory a page-aligned slice of it; a standalone
// NodeMemory maps a one-node Arena of its own.  A 64 MB node therefore
// costs a few page-table entries, not a 64 MB memset, and a 1024-node
// fabric costs one mapping, not 1024 (docs/ARCHITECTURE.md "Memory").
//
// A NodeMemory holds at most one staged write: bytes its owner has
// published but that are copied into the arena only when an access
// overlaps them.  Every access goes through bytes(), so every reader sees
// the same bytes as if the write had been made at once, and a page nobody
// reads is never touched (Node's kernel page, docs/ARCHITECTURE.md).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>

#include "common/check.hpp"

namespace dcs::fabric {

using MemAddr = std::uint64_t;
inline constexpr MemAddr kNullAddr = 0;

/// One private anonymous MAP_NORESERVE mapping, marked MADV_NOHUGEPAGE so
/// that neighbouring node slices never share a transparent huge page (one
/// touched byte stays one resident page).  Unmapped on destruction.
class Arena {
 public:
  explicit Arena(std::size_t len);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  std::byte* data() const { return base_; }

 private:
  std::size_t len_;
  std::byte* base_;
};

class NodeMemory {
 public:
  /// A node's memory in a one-node Arena of its own.
  explicit NodeMemory(std::size_t capacity_bytes);
  /// A node's memory in `slice`, slice_bytes(capacity_bytes) long, of an
  /// Arena that outlives it (one Fabric mapping shared by all its nodes).
  NodeMemory(std::size_t capacity_bytes, std::byte* slice);
  NodeMemory(const NodeMemory&) = delete;
  NodeMemory& operator=(const NodeMemory&) = delete;

  /// Bytes of Arena a node of `capacity_bytes` occupies: page-aligned.
  static std::size_t slice_bytes(std::size_t capacity_bytes);

  /// Allocates `len` bytes; returns kNullAddr when no hole fits.
  MemAddr allocate(std::size_t len);
  /// Frees a previous allocation (exact address required).
  void free(MemAddr addr);

  std::size_t capacity() const { return size_ - kReservedPrefix; }
  std::size_t used() const { return used_; }

  /// Direct access for simulated DMA.  Bounds-checked.  Applies the staged
  /// write first when [addr, addr+len) overlaps it, so a span kept while a
  /// later write is staged over it reads the older bytes: take a fresh one.
  std::span<std::byte> bytes(MemAddr addr, std::size_t len);
  std::span<const std::byte> bytes(MemAddr addr, std::size_t len) const;

  /// Stages `data` (at most kMaxStaged bytes) for [addr, addr+size): the
  /// next bytes() that overlaps the range copies it in first.  A new stage
  /// of the same range replaces the pending one; any other range applies
  /// the pending one first, so the arena always reads as if every staged
  /// write had been made in order.
  void stage(MemAddr addr, std::span<const std::byte> data);
  static constexpr std::size_t kMaxStaged = 64;

  /// True when [addr, addr+len) lies inside the arena.
  bool in_range(MemAddr addr, std::size_t len) const;

 private:
  static constexpr std::size_t kReservedPrefix = 64;  // keeps addr 0 invalid
  // Slice alignment: the base page of x86-64 and the smallest of any Linux
  // target.  Where pages are larger, neighbouring slices may share one,
  // which costs RSS, never correctness.  A constant, not sysconf(): that
  // call alone faults 128 KB more of libc's text into every process.
  static constexpr std::size_t kPage = 4096;

  void apply_staged() const;
  bool overlaps_staged(MemAddr addr, std::size_t len) const {
    return addr < staged_end_ && staged_addr_ < addr + len;
  }

  std::size_t size_;  // usable length, kReservedPrefix included
  std::unique_ptr<Arena> own_;  // standalone only; else the Fabric's slice
  std::byte* arena_;
  std::map<MemAddr, std::size_t> free_list_;   // addr -> hole length
  std::map<MemAddr, std::size_t> allocated_;   // addr -> allocation length
  std::size_t used_ = 0;
  // The staged write; staged_end_ == 0 when none is pending.  Applying it
  // is invisible to readers, hence mutable (const bytes() applies it too).
  mutable MemAddr staged_addr_ = 0;
  mutable MemAddr staged_end_ = 0;
  std::array<std::byte, kMaxStaged> staged_{};

  void coalesce(std::map<MemAddr, std::size_t>::iterator it);
};

}  // namespace dcs::fabric
