// Slab allocator for coroutine frames.
//
// Every `co_await`ed subtask and every spawned root allocates a coroutine
// frame; with the general-purpose heap that is a malloc/free pair per
// task — the single largest cost of spawn/join-heavy workloads.  This slab
// hands frames out of size-class free lists carved from large chunks:
// steady-state spawn–finish–respawn churn allocates nothing, it just
// recycles the same few blocks (see bench_engine's spawn_join_storm).
//
// Design (docs/ARCHITECTURE.md, "Engine internals"):
//   - size classes in 64-byte steps up to 4 KiB; larger frames (rare:
//     coroutines with huge locals) fall through to operator new;
//   - every block carries a 16-byte header recording its full size, so the
//     plain (unsized) operator delete the coroutine machinery may call can
//     route the block back to the right free list;
//   - blocks are carved from 64 KiB chunks owned by the slab; chunks are
//     never returned while its context lives (they stay reachable, so
//     LeakSanitizer is happy) and are released with the context;
//   - under AddressSanitizer, free blocks are poisoned, so a resumed
//     coroutine touching a frame that already completed faults exactly like
//     a heap use-after-free would.
//
// The slab is one instance per execution context (sim/context.hpp), so it
// needs no locking: at most one thread runs in a context at a time.  The
// contract a sharded run (sim/shard.hpp) upholds: every partition has a
// context of its own, and its setup, windows and teardown all run in it,
// on whichever thread claims the partition, so every coroutine frame is
// allocated and freed in its partition's slab.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DCS_SLAB_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define DCS_SLAB_ASAN 1
#endif

#ifdef DCS_SLAB_ASAN
#include <sanitizer/asan_interface.h>
#define DCS_SLAB_POISON(p, n) __asan_poison_memory_region((p), (n))
#define DCS_SLAB_UNPOISON(p, n) __asan_unpoison_memory_region((p), (n))
#else
#define DCS_SLAB_POISON(p, n) ((void)(p), (void)(n))
#define DCS_SLAB_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace dcs::sim {
class Context;
}  // namespace dcs::sim

namespace dcs::sim::detail {

class FrameSlab {
 public:
  /// Size-class granularity; also the block alignment guarantee (we only
  /// need __STDCPP_DEFAULT_NEW_ALIGNMENT__, which is at most 16).
  static constexpr std::size_t kGranularity = 64;
  /// Largest slab-served block (header included); bigger goes to the heap.
  static constexpr std::size_t kMaxBlock = 4096;
  static constexpr std::size_t kClasses = kMaxBlock / kGranularity;
  static constexpr std::size_t kChunkBytes = 64 * 1024;
  /// Per-block header: total block size, padded to keep 16-byte alignment
  /// for the frame that follows.
  static constexpr std::size_t kHeader = 16;

  struct Stats {
    std::uint64_t allocs = 0;      // total frame allocations
    std::uint64_t frees = 0;       // total frame deallocations
    std::uint64_t reuses = 0;      // allocations served from a free list
    std::uint64_t heap_allocs = 0; // oversized frames passed to operator new
    std::uint64_t chunks = 0;      // 64 KiB chunks ever carved
    std::uint64_t live = 0;        // frames currently allocated
  };

  void* allocate(std::size_t frame_size) {
    ++stats_.allocs;
    ++stats_.live;
    const std::size_t need = frame_size + kHeader;
    if (need > kMaxBlock) {
      ++stats_.heap_allocs;
      auto* block = static_cast<std::byte*>(::operator new(need));
      write_header(block, need);
      return block + kHeader;
    }
    const std::size_t cls = (need - 1) / kGranularity;
    const std::size_t block_size = (cls + 1) * kGranularity;
    if (FreeNode* node = free_[cls]) {
      DCS_SLAB_UNPOISON(node, block_size);
      free_[cls] = node->next;
      ++stats_.reuses;
      auto* block = reinterpret_cast<std::byte*>(node);
      write_header(block, block_size);
      return block + kHeader;
    }
    std::byte* block = carve(block_size);
    write_header(block, block_size);
    return block + kHeader;
  }

  void deallocate(void* frame) noexcept {
    ++stats_.frees;
    --stats_.live;
    auto* block = static_cast<std::byte*>(frame) - kHeader;
    const std::size_t block_size = read_header(block);
    if (block_size > kMaxBlock) {
      ::operator delete(block);
      return;
    }
    const std::size_t cls = block_size / kGranularity - 1;
    auto* node = reinterpret_cast<FreeNode*>(block);
    node->next = free_[cls];
    free_[cls] = node;
    DCS_SLAB_POISON(block, block_size);
  }

  const Stats& stats() const { return stats_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  friend class dcs::sim::Context;
  FrameSlab() = default;
  FrameSlab(const FrameSlab&) = delete;
  FrameSlab& operator=(const FrameSlab&) = delete;
  ~FrameSlab() {
    // Chunks are released wholesale; unpoison first so the underlying
    // allocator may touch the memory freely.
    for (auto& chunk : chunks_) DCS_SLAB_UNPOISON(chunk.get(), kChunkBytes);
  }

  static void write_header(std::byte* block, std::size_t block_size) {
    new (block) std::size_t(block_size);
  }
  static std::size_t read_header(const std::byte* block) {
    return *reinterpret_cast<const std::size_t*>(block);
  }

  std::byte* carve(std::size_t block_size) {
    if (bump_left_ < block_size) {
      // Default-initialised, not zero-filled: a chunk's pages become
      // resident as blocks are carved from them, not all at once.
      chunks_.push_back(
          std::make_unique_for_overwrite<std::byte[]>(kChunkBytes));
      ++stats_.chunks;
      bump_ = chunks_.back().get();
      bump_left_ = kChunkBytes;
    }
    std::byte* block = bump_;
    bump_ += block_size;
    bump_left_ -= block_size;
    return block;
  }

  FreeNode* free_[kClasses] = {};
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* bump_ = nullptr;
  std::size_t bump_left_ = 0;
  Stats stats_;
};

}  // namespace dcs::sim::detail
