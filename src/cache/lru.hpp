// Byte-capacity LRU document store used by every caching node.
//
// Cached bodies are immutable and shared: a copy duplicated into a second
// store (a BCC remote hit) shares the holder's buffer, so host memory holds
// one buffer per body while each store still charges the body's full size
// against its own simulated capacity.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "datacenter/document.hpp"

namespace dcs::cache {

using datacenter::DocId;

/// One cached document body, shared by every store that holds a copy.
using Body = std::shared_ptr<const std::vector<std::byte>>;

inline Body make_body(std::vector<std::byte> bytes) {
  return std::make_shared<const std::vector<std::byte>>(std::move(bytes));
}

class LruStore {
 public:
  explicit LruStore(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t bytes_used() const { return bytes_used_; }
  std::size_t count() const { return index_.size(); }
  bool contains(DocId id) const { return index_.contains(id); }

  /// Returns the body (null when absent) and marks the entry
  /// most-recently used.
  Body get(DocId id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return it->second->body;
  }

  /// Inserts (replacing any existing copy).  Evicted victims are reported
  /// through `on_evict(id)` so callers can fix up shared directories.
  /// Bodies larger than the whole capacity are not cached: returns false
  /// and evicts nothing.
  template <typename OnEvict>
  [[nodiscard]] bool insert(DocId id, Body body, OnEvict&& on_evict) {
    DCS_CHECK(body != nullptr);
    const std::size_t size = body->size();
    if (size > capacity_) return false;
    erase(id);
    while (bytes_used_ + size > capacity_) {
      DCS_CHECK(!entries_.empty());
      const Entry& victim = entries_.back();
      on_evict(victim.id);
      bytes_used_ -= victim.body->size();
      index_.erase(victim.id);
      entries_.pop_back();
      ++evictions_;
    }
    bytes_used_ += size;
    entries_.push_front(Entry{id, std::move(body)});
    index_[id] = entries_.begin();
    return true;
  }

  bool erase(DocId id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return false;
    bytes_used_ -= it->second->body->size();
    entries_.erase(it->second);
    index_.erase(it);
    return true;
  }

  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    DocId id;
    Body body;
  };

  std::size_t capacity_;
  std::size_t bytes_used_ = 0;
  std::uint64_t evictions_ = 0;
  std::list<Entry> entries_;  // front = most recent
  std::unordered_map<DocId, std::list<Entry>::iterator> index_;
};

}  // namespace dcs::cache
