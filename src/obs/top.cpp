#include "obs/top.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <ostream>
#include <vector>

#include "common/json.hpp"
#include "trace/inspect.hpp"

namespace dcs::obs {

namespace {

using trace::inspect::Json;

/// One series row lifted out of the parsed dump.
struct SeriesView {
  std::uint32_t node = 0;
  std::string name;
  std::string kind;
  const Json* windows = nullptr;
};

struct Loaded {
  Json root;
  std::uint64_t window_ns = 0;
  std::uint64_t retention = 0;
  std::vector<SeriesView> series;
};

/// Counter/histogram activity over the newest `last` windows of one series.
double recent_sum(const SeriesView& s, std::size_t last) {
  const auto& wins = s.windows->items;
  std::size_t from = 0;
  if (last != 0 && wins.size() > last) from = wins.size() - last;
  double total = 0.0;
  for (std::size_t i = from; i < wins.size(); ++i) {
    if (s.kind == "histogram") {
      if (const Json* c = wins[i].find("count")) total += c->number;
    } else if (s.kind == "counter") {
      if (const Json* v = wins[i].find("v")) total += v->number;
    }
  }
  return total;
}

/// p99 upper-bound estimate over the newest `last` windows' bucket deltas.
std::uint64_t recent_p99(const SeriesView& s, std::size_t last) {
  if (s.kind != "histogram") return 0;
  const auto& wins = s.windows->items;
  std::size_t from = 0;
  if (last != 0 && wins.size() > last) from = wins.size() - last;
  std::uint64_t buckets[64] = {};
  std::uint64_t total = 0;
  for (std::size_t i = from; i < wins.size(); ++i) {
    const Json* bs = wins[i].find("buckets");
    if (bs == nullptr) continue;
    for (const Json& pair : bs->items) {
      if (pair.items.size() != 2) continue;
      const auto b = static_cast<std::size_t>(pair.items[0].number);
      const auto n = static_cast<std::uint64_t>(pair.items[1].number);
      if (b < 64) {
        buckets[b] += n;
        total += n;
      }
    }
  }
  if (total == 0) return 0;
  const auto rank =
      static_cast<std::uint64_t>(0.99 * static_cast<double>(total - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < 64; ++b) {
    seen += buckets[b];
    if (seen > rank) return b == 0 ? 0 : std::uint64_t{1} << b;
  }
  return 0;
}

/// "layer" of a series name: the prefix before the first '.'.
std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

int load(const std::string& file, Loaded* out, std::ostream& err) {
  try {
    out->root = trace::inspect::parse_json_file(file);
  } catch (const std::exception& e) {
    err << "top: " << e.what() << "\n";
    return 2;
  }
  const Json* schema = out->root.find("schema");
  if (schema == nullptr || schema->str != "dcs-timeseries-v1") {
    err << "top: " << file << " is not a dcs-timeseries-v1 dump (schema "
        << (schema != nullptr ? "\"" + schema->str + "\"" : "missing")
        << ")\n";
    return 2;
  }
  const Json* window = out->root.find("window_ns");
  const Json* retention = out->root.find("retention");
  const Json* series = out->root.find("series");
  if (window == nullptr || retention == nullptr || series == nullptr ||
      series->type != Json::Type::kArray) {
    err << "top: " << file << ": missing window_ns/retention/series\n";
    return 2;
  }
  out->window_ns = window->u64_or(0);
  out->retention = retention->u64_or(0);
  for (const Json& row : series->items) {
    SeriesView v;
    const Json* node = row.find("node");
    const Json* name = row.find("name");
    const Json* kind = row.find("kind");
    v.windows = row.find("windows");
    if (node == nullptr || name == nullptr || kind == nullptr ||
        v.windows == nullptr || v.windows->type != Json::Type::kArray) {
      err << "top: " << file << ": malformed series row\n";
      return 2;
    }
    v.node = static_cast<std::uint32_t>(node->u64_or(0));
    v.name = name->str;
    v.kind = kind->str;
    out->series.push_back(v);
  }
  return 0;
}

int self_check(const Loaded& doc, const std::string& file, std::ostream& out,
               std::ostream& err) {
  const auto complain = [&](const std::string& what) {
    err << "top: self-check failed: " << file << ": " << what << "\n";
    return 1;
  };
  if (doc.window_ns == 0) return complain("window_ns must be positive");
  if (doc.retention == 0) return complain("retention must be positive");
  for (std::size_t i = 0; i < doc.series.size(); ++i) {
    const SeriesView& s = doc.series[i];
    if (i > 0) {
      const SeriesView& p = doc.series[i - 1];
      if (std::pair(p.node, p.name) >= std::pair(s.node, s.name)) {
        return complain("series not sorted by (node, name) at " + s.name);
      }
    }
    if (s.kind != "counter" && s.kind != "gauge" && s.kind != "histogram") {
      return complain("unknown kind \"" + s.kind + "\" on " + s.name);
    }
    if (s.windows->items.size() > doc.retention) {
      return complain("series " + s.name + " exceeds retention");
    }
    std::uint64_t prev = 0;
    bool first = true;
    for (const Json& w : s.windows->items) {
      const Json* idx = w.find("w");
      if (idx == nullptr) return complain("window without index in " + s.name);
      const std::uint64_t index = idx->u64_or(0);
      if (!first && index <= prev) {
        return complain("window indices not ascending in " + s.name);
      }
      prev = index;
      first = false;
    }
  }
  const Json* alerts = doc.root.find("alerts");
  if (alerts == nullptr || alerts->type != Json::Type::kArray) {
    return complain("missing alerts array");
  }
  std::uint64_t prev_t = 0;
  for (const Json& a : alerts->items) {
    const Json* t = a.find("t");
    const Json* rule = a.find("rule");
    const Json* state = a.find("state");
    if (t == nullptr || rule == nullptr || state == nullptr) {
      return complain("malformed alert event");
    }
    if (state->str != "firing" && state->str != "resolved") {
      return complain("alert state must be firing|resolved");
    }
    if (t->u64_or(0) < prev_t) return complain("alerts not time-ordered");
    prev_t = t->u64_or(0);
  }
  out << "top: self-check ok: " << doc.series.size() << " series, "
      << alerts->items.size() << " alert event(s)\n";
  return 0;
}

}  // namespace

int run_top(const std::string& file, const TopOptions& opts, std::ostream& out,
            std::ostream& err) {
  Loaded doc;
  if (const int rc = load(file, &doc, err); rc != 0) return rc;
  if (opts.self_check) return self_check(doc, file, out, err);

  const double span_ms =
      static_cast<double>(doc.window_ns) *
      static_cast<double>(opts.windows == 0 ? doc.retention : opts.windows) /
      1e6;

  // --- per-node table ---
  struct NodeAgg {
    std::size_t series = 0;
    double events = 0.0;
    std::uint64_t p99 = 0;
  };
  std::map<std::uint32_t, NodeAgg> per_node;
  std::map<std::string, double> per_layer;
  for (const SeriesView& s : doc.series) {
    if (opts.node && s.node != *opts.node) continue;
    NodeAgg& agg = per_node[s.node];
    ++agg.series;
    const double sum = recent_sum(s, opts.windows);
    agg.events += sum;
    agg.p99 = std::max(agg.p99, recent_p99(s, opts.windows));
    per_layer[layer_of(s.name)] += sum;
  }

  out << "cluster health (" << file << ", last " << fmt_fixed(span_ms, 1)
      << " ms of history)\n\n";
  out << "  node     series       events   p99(est)\n";
  for (const auto& [node, agg] : per_node) {
    char line[128];
    std::snprintf(line, sizeof line, "  %-8u %6zu %12.0f %7" PRIu64 "ns\n",
                  node, agg.series, agg.events, agg.p99);
    out << line;
  }
  out << "\n  layer            events\n";
  for (const auto& [layer, events] : per_layer) {
    char line[128];
    std::snprintf(line, sizeof line, "  %-12s %12.0f\n", layer.c_str(),
                  events);
    out << line;
  }

  // --- firing alerts: replay transitions, report final state ---
  const Json* alerts = doc.root.find("alerts");
  std::map<std::pair<std::string, std::uint32_t>, const Json*> state;
  std::size_t transitions = 0;
  if (alerts != nullptr) {
    for (const Json& a : alerts->items) {
      const Json* rule = a.find("rule");
      const Json* node = a.find("node");
      if (rule == nullptr || node == nullptr) continue;
      state[{rule->str, static_cast<std::uint32_t>(node->u64_or(0))}] = &a;
      ++transitions;
    }
  }
  out << "\n  alerts (" << transitions << " transition(s)):\n";
  bool any = false;
  for (const auto& [key, a] : state) {
    const Json* st = a->find("state");
    if (st == nullptr || st->str != "firing") continue;
    if (opts.node && key.second != *opts.node) continue;
    any = true;
    const Json* value = a->find("value");
    const Json* threshold = a->find("threshold");
    const Json* t = a->find("t");
    out << "  FIRING " << key.first << " node=" << key.second << " since t="
        << (t != nullptr ? t->raw : "?") << " value="
        << fmt_fixed(value != nullptr ? value->number : 0.0, 3) << " threshold="
        << fmt_fixed(threshold != nullptr ? threshold->number : 0.0, 3) << "\n";
  }
  if (!any) out << "  (none firing)\n";
  return 0;
}

}  // namespace dcs::obs
