#include "trace/exemplar.hpp"

#include <ostream>
#include <utility>

#include "common/stats.hpp"

namespace dcs::trace {

namespace {

/// True when `cand` should replace `cur` as a cell's exemplar: larger
/// latency wins; ties keep the smaller request id so merges are
/// grouping-independent.
bool better_exemplar(SimNanos cand_ns, std::uint64_t cand_req,
                     SimNanos cur_ns, std::uint64_t cur_req) {
  if (cand_ns != cur_ns) return cand_ns > cur_ns;
  return cand_req < cur_req;
}

}  // namespace

void ExemplarStore::record(
    std::uint32_t node, std::string name, SimNanos latency_ns,
    std::uint64_t request,
    const std::array<SimNanos, kCostCategories>& cost_ns) {
  auto& buckets = series_[Key{node, std::move(name)}];
  const std::uint32_t b = LogHistogram::bucket_of(latency_ns);
  auto [it, inserted] = buckets.try_emplace(b);
  ExemplarBucket& cell = it->second;
  cell.bucket = b;
  cell.count += 1;
  if (inserted ||
      better_exemplar(latency_ns, request, cell.max_ns, cell.request)) {
    cell.max_ns = latency_ns;
    cell.request = request;
    cell.cost_ns = cost_ns;
  }
}

void ExemplarStore::merge(const ExemplarStore& other) {
  for (const auto& [key, theirs] : other.series_) {
    auto& mine = series_[key];
    for (const auto& [b, cell] : theirs) {
      auto [it, inserted] = mine.try_emplace(b);
      ExemplarBucket& dst = it->second;
      if (inserted) {
        dst = cell;
        continue;
      }
      dst.count += cell.count;
      if (better_exemplar(cell.max_ns, cell.request, dst.max_ns,
                          dst.request)) {
        dst.max_ns = cell.max_ns;
        dst.request = cell.request;
        dst.cost_ns = cell.cost_ns;
      }
    }
  }
}

std::vector<ExemplarStore::SeriesView> ExemplarStore::all() const {
  std::vector<SeriesView> out;
  out.reserve(series_.size());
  for (const auto& [key, buckets] : series_) {
    SeriesView view;
    view.node = key.first;
    view.name = key.second;
    view.buckets.reserve(buckets.size());
    for (const auto& [b, cell] : buckets) view.buckets.push_back(cell);
    out.push_back(std::move(view));
  }
  return out;
}

void write_exemplar_section(std::ostream& os, const ExemplarStore& store) {
  os << "[";
  bool first_series = true;
  for (const auto& view : store.all()) {
    os << (first_series ? "\n" : ",\n");
    first_series = false;
    os << "    {\n";
    os << "      \"node\": " << view.node << ",\n";
    os << "      \"name\": \"" << view.name << "\",\n";
    os << "      \"buckets\": [";
    bool first_bucket = true;
    for (const ExemplarBucket& cell : view.buckets) {
      os << (first_bucket ? "\n" : ",\n");
      first_bucket = false;
      os << "        { \"bucket\": " << cell.bucket
         << ", \"count\": " << cell.count << ", \"max_ns\": " << cell.max_ns
         << ", \"request\": " << cell.request
         << ", \"critical_path_ns\": {";
      SimNanos attributed = 0;
      for (std::size_t c = 0; c < kCostCategories; ++c) {
        const Cost cost = static_cast<Cost>(c + 1);
        os << (c == 0 ? " " : ", ");
        os << "\"" << to_string(cost) << "\": " << cell.cost_ns[c];
        attributed += cell.cost_ns[c];
      }
      os << ", \"attributed\": " << attributed << " } }";
    }
    os << (first_bucket ? "]\n" : "\n      ]\n");
    os << "    }";
  }
  os << (first_series ? "]" : "\n  ]");
}

}  // namespace dcs::trace
