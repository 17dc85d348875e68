#include "fabric/memory.hpp"

#include <sys/mman.h>

namespace dcs::fabric {

NodeMemory::NodeMemory(std::size_t capacity_bytes)
    : size_(capacity_bytes + kReservedPrefix),
      arena_(static_cast<std::byte*>(
          mmap(nullptr, size_, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0))) {
  DCS_CHECK(capacity_bytes > 0);
  DCS_CHECK_MSG(arena_ != MAP_FAILED, "cannot map node memory arena");
  free_list_.emplace(kReservedPrefix, capacity_bytes);
}

NodeMemory::~NodeMemory() { munmap(arena_, size_); }

MemAddr NodeMemory::allocate(std::size_t len) {
  if (len == 0) return kNullAddr;
  for (auto it = free_list_.begin(); it != free_list_.end(); ++it) {
    if (it->second < len) continue;
    const MemAddr addr = it->first;
    const std::size_t hole = it->second;
    free_list_.erase(it);
    if (hole > len) free_list_.emplace(addr + len, hole - len);
    allocated_.emplace(addr, len);
    used_ += len;
    return addr;
  }
  return kNullAddr;
}

void NodeMemory::free(MemAddr addr) {
  auto it = allocated_.find(addr);
  DCS_CHECK_MSG(it != allocated_.end(), "free of unallocated address");
  const std::size_t len = it->second;
  allocated_.erase(it);
  used_ -= len;
  auto [hole, inserted] = free_list_.emplace(addr, len);
  DCS_CHECK(inserted);
  coalesce(hole);
}

void NodeMemory::coalesce(std::map<MemAddr, std::size_t>::iterator it) {
  // Merge with successor hole.
  auto next = std::next(it);
  if (next != free_list_.end() && it->first + it->second == next->first) {
    it->second += next->second;
    free_list_.erase(next);
  }
  // Merge with predecessor hole.
  if (it != free_list_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      free_list_.erase(it);
    }
  }
}

std::span<std::byte> NodeMemory::bytes(MemAddr addr, std::size_t len) {
  DCS_CHECK_MSG(in_range(addr, len), "out-of-range memory access");
  return {arena_ + addr, len};
}

std::span<const std::byte> NodeMemory::bytes(MemAddr addr,
                                             std::size_t len) const {
  DCS_CHECK_MSG(in_range(addr, len), "out-of-range memory access");
  return {arena_ + addr, len};
}

bool NodeMemory::in_range(MemAddr addr, std::size_t len) const {
  return addr >= kReservedPrefix && addr + len <= size_ &&
         addr + len >= addr;
}

}  // namespace dcs::fabric
