#include "trace/critical_path.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>

#include "common/json.hpp"

namespace dcs::trace {

namespace {

struct Interval {
  SimNanos start;
  SimNanos end;
  std::size_t cost_idx;  // Cost value - 1
};

double us(SimNanos t) { return static_cast<double>(t) / 1000.0; }

/// All Cost categories in precedence (= report) order.
Cost cost_at(std::size_t idx) { return static_cast<Cost>(idx + 1); }

/// Charges every elementary segment of `window` to the highest-precedence
/// category active over it.
void attribute(std::vector<Interval>& intervals, Breakdown& out) {
  // Boundary sweep: +1/-1 edges per interval, segments between consecutive
  // distinct times, lowest active index wins.
  struct Edge {
    SimNanos t;
    std::size_t cost_idx;
    int delta;
  };
  std::vector<Edge> edges;
  edges.reserve(intervals.size() * 2);
  for (const Interval& iv : intervals) {
    edges.push_back({iv.start, iv.cost_idx, +1});
    edges.push_back({iv.end, iv.cost_idx, -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });

  std::array<int, kCostCategories> active{};
  std::size_t i = 0;
  while (i < edges.size()) {
    const SimNanos t0 = edges[i].t;
    for (; i < edges.size() && edges[i].t == t0; ++i) {
      active[edges[i].cost_idx] += edges[i].delta;
    }
    if (i == edges.size()) break;
    const SimNanos t1 = edges[i].t;
    for (std::size_t c = 0; c < kCostCategories; ++c) {
      if (active[c] > 0) {
        out.by_cost[c] += t1 - t0;
        break;
      }
    }
  }
}

}  // namespace

SimNanos Breakdown::attributed() const {
  SimNanos sum = 0;
  for (const SimNanos ns : by_cost) sum += ns;
  return sum;
}

double Breakdown::attributed_fraction() const {
  if (total == 0) return 1.0;
  return static_cast<double>(attributed()) / static_cast<double>(total);
}

CriticalPath::CriticalPath(const Tracer& tracer)
    : CriticalPath(std::vector<const Tracer*>{&tracer}) {}

CriticalPath::CriticalPath(const std::vector<const Tracer*>& runs) {
  aggregate_.name = "all";
  aggregate_.count = 0;
  std::map<std::string, Breakdown> named;
  for (const Tracer* run : runs) add_run(*run, named);
  for (auto& [name, b] : named) by_name_.push_back(std::move(b));
}

void CriticalPath::add_run(const Tracer& tracer,
                           std::map<std::string, Breakdown>& named) {
  // Request windows and per-request cost intervals, keyed by request id
  // (std::map: deterministic order).
  std::map<std::uint64_t, Breakdown> windows;
  std::map<std::uint64_t, std::vector<Interval>> intervals;
  for (const TraceEvent& ev : tracer.events()) {
    if (ev.phase == 'R') {
      Breakdown b;
      b.request = ev.request;
      b.name = ev.name;
      b.total = ev.end - ev.start;
      windows.emplace(ev.request, std::move(b));
      // Window bounds ride in a parallel interval with a sentinel index.
      intervals[ev.request].push_back({ev.start, ev.end, kCostCategories});
    } else if (ev.phase == 'X' && ev.cost != Cost::kNone && ev.request != 0) {
      intervals[ev.request].push_back(
          {ev.start, ev.end, static_cast<std::size_t>(ev.cost) - 1});
    }
  }

  for (auto& [req, b] : windows) {
    auto& ivs = intervals[req];
    // Recover the window sentinel, then clip cost intervals to it.
    SimNanos w0 = 0;
    SimNanos w1 = 0;
    for (const Interval& iv : ivs) {
      if (iv.cost_idx == kCostCategories) {
        w0 = iv.start;
        w1 = iv.end;
        break;
      }
    }
    std::vector<Interval> clipped;
    clipped.reserve(ivs.size());
    for (const Interval& iv : ivs) {
      if (iv.cost_idx == kCostCategories) continue;
      const SimNanos s = std::max(iv.start, w0);
      const SimNanos e = std::min(iv.end, w1);
      if (s < e) clipped.push_back({s, e, iv.cost_idx});
    }
    attribute(clipped, b);

    aggregate_.count += 1;
    aggregate_.total += b.total;
    auto [nit, inserted] = named.try_emplace(b.name);
    Breakdown& n = nit->second;
    if (inserted) {
      n.name = b.name;
      n.count = 0;
    }
    n.count += 1;
    n.total += b.total;
    for (std::size_t c = 0; c < kCostCategories; ++c) {
      aggregate_.by_cost[c] += b.by_cost[c];
      n.by_cost[c] += b.by_cost[c];
    }
    requests_.push_back(std::move(b));
  }
}

void CriticalPath::write_report(std::ostream& os) const {
  os << "# dcs critical-path report v1 (virtual time; precedence host-cpu > "
        "nic > wire > queueing > credit-stall > lock-wait)\n";
  os << "requests " << aggregate_.count << " total_us "
     << fmt_fixed(us(aggregate_.total), 3) << " attributed_pct "
     << fmt_fixed(100.0 * aggregate_.attributed_fraction(), 2) << '\n';
  for (std::size_t c = 0; c < kCostCategories; ++c) {
    const double frac =
        aggregate_.total == 0
            ? 0.0
            : static_cast<double>(aggregate_.by_cost[c]) /
                  static_cast<double>(aggregate_.total);
    os << "  " << to_string(cost_at(c)) << " us "
       << fmt_fixed(us(aggregate_.by_cost[c]), 3) << " pct "
       << fmt_fixed(100.0 * frac, 2)
       << '\n';
  }
  {
    const double frac =
        aggregate_.total == 0
            ? 0.0
            : static_cast<double>(aggregate_.residual()) /
                  static_cast<double>(aggregate_.total);
    os << "  residual us " << fmt_fixed(us(aggregate_.residual()), 3) << " pct "
       << fmt_fixed(100.0 * frac, 2) << '\n';
  }
  os << "# name | count | mean_us";
  for (std::size_t c = 0; c < kCostCategories; ++c) {
    os << " | " << to_string(cost_at(c)) << "_pct";
  }
  os << " | residual_pct\n";
  for (const Breakdown& b : by_name_) {
    const double mean =
        b.count == 0 ? 0.0 : us(b.total) / static_cast<double>(b.count);
    os << b.name << " | " << b.count << " | " << fmt_fixed(mean, 3);
    for (std::size_t c = 0; c < kCostCategories; ++c) {
      const double frac = b.total == 0 ? 0.0
                                       : static_cast<double>(b.by_cost[c]) /
                                             static_cast<double>(b.total);
      os << " | " << fmt_fixed(100.0 * frac, 2);
    }
    const double rfrac = b.total == 0 ? 0.0
                                      : static_cast<double>(b.residual()) /
                                            static_cast<double>(b.total);
    os << " | " << fmt_fixed(100.0 * rfrac, 2) << '\n';
  }
}

void write_breakdown_json(std::ostream& os, const Breakdown& b) {
  os << "{\"count\":" << b.count
     << ",\"total_us\":" << fmt_fixed(us(b.total), 3)
     << ",\"attributed_pct\":" << fmt_fixed(100.0 * b.attributed_fraction(), 2)
     << ",\"costs_us\":{";
  for (std::size_t c = 0; c < kCostCategories; ++c) {
    if (c != 0) os << ',';
    os << '"' << to_string(cost_at(c))
       << "\":" << fmt_fixed(us(b.by_cost[c]), 3);
  }
  os << "},\"residual_us\":" << fmt_fixed(us(b.residual()), 3) << '}';
}

void CriticalPath::write_json(std::ostream& os) const {
  os << "{\"schema\":\"dcs-critical-path-v1\",\"aggregate\":";
  write_breakdown_json(os, aggregate_);
  os << ",\"by_name\":{";
  bool first = true;
  for (const Breakdown& b : by_name_) {
    if (!first) os << ',';
    first = false;
    os << '"' << b.name << "\":";
    write_breakdown_json(os, b);
  }
  os << "}}";
}

}  // namespace dcs::trace
