#include "obs/timeseries.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/check.hpp"
#include "common/json.hpp"
#include "obs/heavy.hpp"
#include "obs/slo.hpp"
#include "trace/exemplar.hpp"
#include "trace/trace.hpp"

namespace dcs::obs {

const char* to_string(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kCounter: return "counter";
    case SeriesKind::kGauge: return "gauge";
    case SeriesKind::kHistogram: return "histogram";
  }
  return "counter";
}

TimeSeriesStore::TimeSeriesStore(TimeSeriesConfig config) : config_(config) {
  DCS_CHECK(config_.window > 0);
  DCS_CHECK(config_.retention > 0);
}

Series& TimeSeriesStore::at(std::uint32_t node, const std::string& name,
                            SeriesKind kind) {
  auto [it, inserted] = series_.try_emplace(Key{node, name});
  if (inserted) {
    it->second.kind = kind;
  } else {
    DCS_CHECK_MSG(it->second.kind == kind,
                  "series re-ingested as a different kind");
  }
  return it->second;
}

SeriesWindow& TimeSeriesStore::window_at(Series& s, std::uint64_t index) {
  // Samples arrive in virtual-time order, so the target window is either
  // the newest one or a fresh one past it.
  if (!s.windows.empty()) {
    DCS_CHECK_MSG(index >= s.windows.back().index,
                  "time-series ingest went backwards in virtual time");
    if (s.windows.back().index == index) return s.windows.back();
  }
  s.windows.push_back(SeriesWindow{index, 0.0, 0, {}});
  if (s.windows.size() > config_.retention) {
    s.windows.erase(s.windows.begin(),
                    s.windows.begin() +
                        static_cast<std::ptrdiff_t>(s.windows.size() -
                                                    config_.retention));
  }
  return s.windows.back();
}

void TimeSeriesStore::ingest(std::uint32_t node,
                             const monitor::TelemetrySchema& schema,
                             const monitor::TelemetrySnapshot& snap) {
  const std::uint64_t index =
      static_cast<std::uint64_t>(snap.scraped_at) /
      static_cast<std::uint64_t>(config_.window);
  for (const auto& entry : schema.entries()) {
    if (entry.kind == monitor::MetricKind::kHistogram) {
      const auto* h = snap.hist(entry.name);
      if (h == nullptr) continue;
      Series& s = at(node, entry.name, SeriesKind::kHistogram);
      SeriesWindow& w = window_at(s, index);
      if (s.last_buckets.empty()) s.last_buckets.resize(h->buckets.size(), 0);
      DCS_CHECK(s.last_buckets.size() == h->buckets.size());
      for (std::uint32_t b = 0; b < h->buckets.size(); ++b) {
        const std::uint64_t raw = h->buckets[b];
        DCS_CHECK_MSG(raw >= s.last_buckets[b],
                      "cumulative histogram bucket went backwards");
        const std::uint64_t delta = raw - s.last_buckets[b];
        s.last_buckets[b] = raw;
        if (delta == 0) continue;
        auto pos = std::lower_bound(
            w.buckets.begin(), w.buckets.end(), b,
            [](const auto& pair, std::uint32_t bucket) {
              return pair.first < bucket;
            });
        if (pos != w.buckets.end() && pos->first == b) {
          pos->second += delta;
        } else {
          w.buckets.insert(pos, {b, delta});
        }
      }
      DCS_CHECK_MSG(h->count >= s.last_count,
                    "cumulative histogram count went backwards");
      w.count += h->count - s.last_count;
      s.last_count = h->count;
      continue;
    }
    const double raw = snap.value(entry.name);
    if (entry.kind == monitor::MetricKind::kGauge) {
      Series& s = at(node, entry.name, SeriesKind::kGauge);
      window_at(s, index).value = raw;
      s.last_raw = raw;
      continue;
    }
    Series& s = at(node, entry.name, SeriesKind::kCounter);
    SeriesWindow& w = window_at(s, index);
    DCS_CHECK_MSG(raw >= s.last_raw, "counter series went backwards");
    w.value += raw - s.last_raw;
    s.last_raw = raw;
  }
}

void TimeSeriesStore::ingest_registry(std::uint32_t node, SimNanos at_ns,
                                      const trace::Registry& reg) {
  const std::uint64_t index = static_cast<std::uint64_t>(at_ns) /
                              static_cast<std::uint64_t>(config_.window);
  for (const std::string& name : reg.names()) {
    if (const auto* c = reg.find_counter(name)) {
      Series& s = at(node, name, SeriesKind::kCounter);
      SeriesWindow& w = window_at(s, index);
      const double raw = static_cast<double>(c->value);
      DCS_CHECK_MSG(raw >= s.last_raw, "counter series went backwards");
      w.value += raw - s.last_raw;
      s.last_raw = raw;
    } else if (const auto* g = reg.find_gauge(name)) {
      Series& s = at(node, name, SeriesKind::kGauge);
      window_at(s, index).value = g->value;
      s.last_raw = g->value;
    } else if (const auto* d = reg.find_distribution(name)) {
      // Distributions window as counters over their sample count: the
      // windowed rate of recorded samples is the judgeable signal.
      Series& s = at(node, name, SeriesKind::kCounter);
      SeriesWindow& w = window_at(s, index);
      const double raw = static_cast<double>(d->stat.count());
      DCS_CHECK_MSG(raw >= s.last_raw, "distribution count went backwards");
      w.value += raw - s.last_raw;
      s.last_raw = raw;
    } else if (const auto* h = reg.find_histogram(name)) {
      Series& s = at(node, name, SeriesKind::kHistogram);
      SeriesWindow& w = window_at(s, index);
      if (s.last_buckets.empty()) {
        s.last_buckets.resize(LogHistogram::kBuckets, 0);
      }
      for (std::uint32_t b = 0; b < LogHistogram::kBuckets; ++b) {
        const std::uint64_t raw = h->hist.bucket_count(b);
        DCS_CHECK_MSG(raw >= s.last_buckets[b],
                      "cumulative histogram bucket went backwards");
        const std::uint64_t delta = raw - s.last_buckets[b];
        s.last_buckets[b] = raw;
        if (delta == 0) continue;
        auto pos = std::lower_bound(
            w.buckets.begin(), w.buckets.end(), b,
            [](const auto& pair, std::uint32_t bucket) {
              return pair.first < bucket;
            });
        if (pos != w.buckets.end() && pos->first == b) {
          pos->second += delta;
        } else {
          w.buckets.insert(pos, {b, delta});
        }
      }
      w.count += h->hist.count() - s.last_count;
      s.last_count = h->hist.count();
    }
  }
}

void TimeSeriesStore::merge(const TimeSeriesStore& other) {
  DCS_CHECK(config_.window == other.config_.window);
  for (const auto& [key, series] : other.series_) {
    const auto [it, inserted] = series_.emplace(key, series);
    DCS_CHECK_MSG(inserted, "merge of overlapping (node, series) sets");
    (void)it;
  }
}

const Series* TimeSeriesStore::find(std::uint32_t node,
                                    const std::string& name) const {
  const auto it = series_.find(Key{node, name});
  return it != series_.end() ? &it->second : nullptr;
}

std::vector<std::uint32_t> TimeSeriesStore::nodes() const {
  std::vector<std::uint32_t> out;
  for (const auto& [key, series] : series_) {
    (void)series;
    if (out.empty() || out.back() != key.first) out.push_back(key.first);
  }
  return out;
}

double TimeSeriesStore::window_sum(std::uint32_t node, const std::string& name,
                                   std::size_t last_windows) const {
  const Series* s = find(node, name);
  if (s == nullptr) return 0.0;
  std::size_t from = 0;
  if (last_windows != 0 && s->windows.size() > last_windows) {
    from = s->windows.size() - last_windows;
  }
  double total = 0.0;
  for (std::size_t i = from; i < s->windows.size(); ++i) {
    total += s->kind == SeriesKind::kHistogram
                 ? static_cast<double>(s->windows[i].count)
                 : s->windows[i].value;
  }
  return total;
}

double TimeSeriesStore::last_value(std::uint32_t node,
                                   const std::string& name) const {
  const Series* s = find(node, name);
  if (s == nullptr || s->windows.empty()) return 0.0;
  return s->kind == SeriesKind::kHistogram
             ? static_cast<double>(s->windows.back().count)
             : s->windows.back().value;
}

std::uint64_t TimeSeriesStore::quantile(std::uint32_t node,
                                        const std::string& name, double q,
                                        std::size_t last_windows) const {
  const Series* s = find(node, name);
  if (s == nullptr || s->kind != SeriesKind::kHistogram) return 0;
  std::size_t from = 0;
  if (last_windows != 0 && s->windows.size() > last_windows) {
    from = s->windows.size() - last_windows;
  }
  std::uint64_t buckets[LogHistogram::kBuckets] = {};
  std::uint64_t total = 0;
  for (std::size_t i = from; i < s->windows.size(); ++i) {
    for (const auto& [b, n] : s->windows[i].buckets) {
      buckets[b] += n;
      total += n;
    }
  }
  if (total == 0) return 0;
  // Rank of the quantile sample, then the upper bound of its bucket —
  // the same "pessimistic power-of-two" read LogHistogram::to_string uses.
  const auto rank = static_cast<std::uint64_t>(
      q / 100.0 * static_cast<double>(total - 1));
  std::uint64_t seen = 0;
  for (std::uint32_t b = 0; b < LogHistogram::kBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank) {
      return b == 0 ? 0 : std::uint64_t{1} << b;
    }
  }
  return std::uint64_t{1} << (LogHistogram::kBuckets - 1);
}

void write_timeseries_json(std::ostream& os, const TimeSeriesStore& store,
                           const std::vector<AlertEvent>& alerts,
                           const HeavyHitters& hot,
                           const trace::ExemplarStore& exemplars) {
  os << "{\n  \"schema\": \"dcs-timeseries-v1\",\n"
     << "  \"window_ns\": " << store.config().window << ",\n"
     << "  \"retention\": " << store.config().retention << ",\n"
     << "  \"series\": [";
  bool first_series = true;
  for (const auto& [key, s] : store.all()) {
    os << (first_series ? "\n" : ",\n");
    first_series = false;
    os << "    {\"node\": " << key.first << ", \"name\": \"" << key.second
       << "\", \"kind\": \"" << to_string(s.kind) << "\", \"windows\": [";
    bool first_window = true;
    for (const SeriesWindow& w : s.windows) {
      os << (first_window ? "" : ", ");
      first_window = false;
      os << "{\"w\": " << w.index;
      if (s.kind == SeriesKind::kHistogram) {
        os << ", \"count\": " << w.count << ", \"buckets\": [";
        bool first_bucket = true;
        for (const auto& [b, n] : w.buckets) {
          os << (first_bucket ? "" : ", ") << "[" << b << ", " << n << "]";
          first_bucket = false;
        }
        os << "]";
      } else {
        os << ", \"v\": " << fmt_fixed(w.value, 3);
      }
      os << "}";
    }
    os << "]}";
  }
  os << "\n  ],\n  \"alerts\": [";
  bool first_alert = true;
  for (const AlertEvent& a : alerts) {
    os << (first_alert ? "\n" : ",\n");
    first_alert = false;
    os << "    {\"t\": " << a.time << ", \"rule\": \"" << a.rule
       << "\", \"node\": " << a.node << ", \"state\": \""
       << (a.firing ? "firing" : "resolved")
       << "\", \"value\": " << fmt_fixed(a.value, 3)
       << ", \"threshold\": " << fmt_fixed(a.threshold, 3) << "}";
  }
  os << "\n  ],\n  \"hotset\": ";
  write_hotset_section(os, hot);
  os << ",\n  \"exemplars\": ";
  trace::write_exemplar_section(os, exemplars);
  os << "\n}\n";
}

}  // namespace dcs::obs
