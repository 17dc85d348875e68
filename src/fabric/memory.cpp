#include "fabric/memory.hpp"

#include <sys/mman.h>

#include <cstring>

namespace dcs::fabric {

Arena::Arena(std::size_t len)
    : len_(len),
      base_(static_cast<std::byte*>(
          mmap(nullptr, len, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0))) {
  DCS_CHECK_MSG(base_ != MAP_FAILED, "cannot map node memory arena");
  // Advisory: without it, THP `always` would back adjacent node slices
  // with one 2 MB page and a single touched byte would cost 2 MB of RSS.
  madvise(base_, len_, MADV_NOHUGEPAGE);
}

Arena::~Arena() { munmap(base_, len_); }

NodeMemory::NodeMemory(std::size_t capacity_bytes)
    : NodeMemory(capacity_bytes, nullptr) {}

NodeMemory::NodeMemory(std::size_t capacity_bytes, std::byte* slice)
    : size_(capacity_bytes + kReservedPrefix),
      own_(slice == nullptr
               ? std::make_unique<Arena>(slice_bytes(capacity_bytes))
               : nullptr),
      arena_(slice == nullptr ? own_->data() : slice) {
  DCS_CHECK(capacity_bytes > 0);
  free_list_.emplace(kReservedPrefix, capacity_bytes);
}

std::size_t NodeMemory::slice_bytes(std::size_t capacity_bytes) {
  const std::size_t len = capacity_bytes + kReservedPrefix;
  return (len + kPage - 1) / kPage * kPage;
}

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
  if (overlaps_staged(addr, len)) apply_staged();
  return {arena_ + addr, len};
}

std::span<const std::byte> NodeMemory::bytes(MemAddr addr,
                                             std::size_t len) const {
  DCS_CHECK_MSG(in_range(addr, len), "out-of-range memory access");
  if (overlaps_staged(addr, len)) apply_staged();
  return {arena_ + addr, len};
}

void NodeMemory::stage(MemAddr addr, std::span<const std::byte> data) {
  DCS_CHECK(!data.empty() && data.size() <= kMaxStaged);
  DCS_CHECK_MSG(in_range(addr, data.size()), "out-of-range memory access");
  const MemAddr end = addr + data.size();
  if (staged_end_ != 0 && (addr != staged_addr_ || end != staged_end_)) {
    apply_staged();
  }
  std::memcpy(staged_.data(), data.data(), data.size());
  staged_addr_ = addr;
  staged_end_ = end;
}

void NodeMemory::apply_staged() const {
  std::memcpy(arena_ + staged_addr_, staged_.data(),
              staged_end_ - staged_addr_);
  staged_end_ = 0;
}

bool NodeMemory::in_range(MemAddr addr, std::size_t len) const {
  return addr >= kReservedPrefix && addr + len <= size_ &&
         addr + len >= addr;
}

}  // namespace dcs::fabric
