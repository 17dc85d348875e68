// trace::ExemplarStore — per-bucket tail-latency exemplars.
//
// A latency histogram (common/stats.hpp LogHistogram) tells you that some
// requests landed in the 2^20..2^21 ns bucket; it cannot tell you WHICH
// request, or where that request spent its time.  The exemplar store keeps,
// for every (node, series, log2-bucket) cell, the maximum-latency request
// seen there: its id plus its six-category critical-path split.  `dcs
// explain` then links every tail bucket to a concrete request.
//
// Determinism: the merge of two stores is commutative and associative —
// counts sum, and the retained exemplar is the argmax by (max_ns desc,
// request asc) — so the merged result is independent of how observations
// were grouped into partitions.  Sharded benches merge per-partition
// stores on the main thread in partition order and get sections
// byte-identical to the --shards=1 oracle.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "trace/trace.hpp"

namespace dcs::trace {

/// One histogram cell with its retained exemplar.
struct ExemplarBucket {
  std::uint32_t bucket = 0;   // log2 bucket index, as LogHistogram's
  std::uint64_t count = 0;    // observations landing in this cell
  SimNanos max_ns = 0;      // the exemplar's latency
  std::uint64_t request = 0;  // the exemplar's request id
  // The exemplar's critical-path split, indexed by Cost category - 1
  // (kHostCpu..kLockWait), as critical_path.hpp's Breakdown::by_cost.
  std::array<SimNanos, kCostCategories> cost_ns{};

  friend bool operator==(const ExemplarBucket&,
                         const ExemplarBucket&) = default;
};

/// Exemplar-carrying latency histograms keyed by (node, series name).
class ExemplarStore {
 public:
  /// Records one observation of `latency_ns` for (node, series), offering
  /// (request, cost_ns) as the cell's exemplar.
  void record(std::uint32_t node, std::string name, SimNanos latency_ns,
              std::uint64_t request,
              const std::array<SimNanos, kCostCategories>& cost_ns);

  /// Folds `other` in: counts sum; the retained exemplar per cell is the
  /// argmax by (max_ns desc, request asc).  Commutative and associative.
  void merge(const ExemplarStore& other);

  struct SeriesView {
    std::uint32_t node = 0;
    std::string name;
    std::vector<ExemplarBucket> buckets;  // bucket index ascending
  };

  /// All series in (node, name) order, buckets ascending.
  std::vector<SeriesView> all() const;

 private:
  using Key = std::pair<std::uint32_t, std::string>;
  // bucket index -> cell; std::map keeps dump order deterministic.
  std::map<Key, std::map<std::uint32_t, ExemplarBucket>> series_;
};

/// Writes the byte-stable `exemplars` section of the dcs-timeseries-v1
/// document (obs/timeseries.hpp): the array of series in (node, name)
/// order, buckets ascending, cost split in Cost enum order.
void write_exemplar_section(std::ostream& os, const ExemplarStore& store);

}  // namespace dcs::trace
