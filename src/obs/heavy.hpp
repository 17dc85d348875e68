// obs::HeavyHitters — deterministic space-saving top-K sketches, one per
// DCS_HOT domain.
//
// The sketch is Metwally et al.'s Stream-Summary ("space saving"): at most
// `capacity` keys are tracked per domain; when a new key arrives at a full
// sketch, the minimum-count entry is evicted and the newcomer inherits its
// count (recorded as `error`, the classic over-count bound).  Every choice
// is total-ordered — eviction picks (count asc, key asc), reports order by
// (count desc, key asc) — so the same stream always produces the same
// sketch, byte for byte.
//
// Merging two sketches sums counts and errors per key, then re-truncates
// to capacity.  Merge is performed on the main thread in partition order
// (partition 0..P-1), the same discipline as TimeSeriesStore::merge, so
// sharded runs produce sections byte-identical to the --shards=1 oracle.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace/hot.hpp"

namespace dcs::obs {

/// One reported heavy-hitter entry.  `count` over-estimates the key's true
/// weight by at most `error`.
struct HotEntry {
  std::uint64_t key = 0;
  std::uint64_t count = 0;
  std::uint64_t error = 0;

  friend bool operator==(const HotEntry&, const HotEntry&) = default;
};

/// Deterministic per-domain space-saving sketches behind the HotSink
/// interface.  Not thread-safe: each instance belongs to one thread (the
/// ambient sink) or one partition (explicit feeds in sharded benches).
class HeavyHitters final : public trace::HotSink {
 public:
  /// `capacity` keys tracked per domain.  The classic guarantee: any key
  /// whose true weight exceeds total/capacity is present in the sketch.
  explicit HeavyHitters(std::size_t capacity = 32);

  void record_hot(const char* domain, std::uint64_t key,
                  std::uint64_t weight) override;

  /// Top-`n` entries for `domain`, ordered (count desc, key asc).
  std::vector<HotEntry> top(std::string_view domain, std::size_t n) const;

  /// Total weight offered to `domain` (including evicted keys).
  std::uint64_t total(std::string_view domain) const;

  /// Domains observed so far, in lexicographic order.
  std::vector<std::string> domains() const;

  /// Folds `other` into this sketch: counts and errors sum per key, then
  /// each domain is re-truncated to capacity by the eviction order.  Call
  /// in partition order for shard-count-invariant results.
  void merge(const HeavyHitters& other);

  std::size_t capacity() const { return capacity_; }

 private:
  struct Sketch {
    // key -> (count, error).  std::map keeps scans deterministic.
    std::map<std::uint64_t, HotEntry> entries;
    std::uint64_t total = 0;
  };

  void offer(Sketch& sketch, std::uint64_t key, std::uint64_t count,
             std::uint64_t error);

  std::size_t capacity_;
  std::map<std::string, Sketch, std::less<>> domains_;
};

/// Writes the byte-stable `hotset` section of the dcs-timeseries-v1
/// document (write_timeseries_json): the object holding `capacity` and the
/// `domains` array, domains in lexicographic order, entries in report
/// order (count desc, key asc).
void write_hotset_section(std::ostream& os, const HeavyHitters& hh);

}  // namespace dcs::obs
