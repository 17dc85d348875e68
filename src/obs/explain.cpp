#include "obs/explain.hpp"

#include <cstdio>
#include <map>
#include <ostream>
#include <vector>

#include "common/json.hpp"
#include "trace/inspect.hpp"

namespace dcs::obs {

namespace {

using trace::inspect::Json;

/// Reads and parses one dump, gating on its schema id.  Returns 0 or the
/// exit code (2) already reported on `err`.
int load_schema(const std::string& file, const char* schema_id, Json* out,
                std::ostream& err) {
  try {
    *out = trace::inspect::parse_json_file(file);
  } catch (const std::exception& e) {
    err << "explain: " << e.what() << "\n";
    return 2;
  }
  const Json* schema = out->find("schema");
  if (schema == nullptr || schema->str != schema_id) {
    err << "explain: " << file << " is not a " << schema_id
        << " dump (schema "
        << (schema != nullptr ? "\"" + schema->str + "\"" : "missing")
        << ")\n";
    return 2;
  }
  return 0;
}

/// Field lookup tolerating malformed rows (reports read any schema-gated
/// file, not just self-checked ones).
std::uint64_t field_u64(const Json& row, const char* key) {
  const Json* v = row.find(key);
  return v != nullptr ? v->u64_or(0) : 0;
}

/// LogHistogram/ExemplarStore bucketing, for self-check cross-validation.
std::uint32_t bucket_of(std::uint64_t v) {
  std::uint32_t b = 0;
  while (v != 0) {
    ++b;
    v >>= 1;
  }
  return b < 63u ? b : 63u;
}

// --- self-checks, one per schema ---

int check_hotset(const Json& root, const std::string& file,
                 std::ostream& err) {
  const auto complain = [&](const std::string& what) {
    err << "explain: self-check failed: " << file << ": " << what << "\n";
    return 1;
  };
  const Json* capacity = root.find("capacity");
  const Json* domains = root.find("domains");
  if (capacity == nullptr || capacity->u64_or(0) == 0) {
    return complain("capacity must be positive");
  }
  if (domains == nullptr || domains->type != Json::Type::kArray) {
    return complain("missing domains array");
  }
  std::string prev_domain;
  for (const Json& d : domains->items) {
    const Json* name = d.find("domain");
    const Json* total = d.find("total");
    const Json* entries = d.find("entries");
    if (name == nullptr || total == nullptr || entries == nullptr ||
        entries->type != Json::Type::kArray) {
      return complain("malformed domain row");
    }
    if (!prev_domain.empty() && name->str <= prev_domain) {
      return complain("domains not sorted at " + name->str);
    }
    prev_domain = name->str;
    if (entries->items.size() > capacity->u64_or(0)) {
      return complain("domain " + name->str + " exceeds capacity");
    }
    std::uint64_t sum = 0;
    std::uint64_t prev_count = 0;
    std::uint64_t prev_key = 0;
    bool first = true;
    for (const Json& e : entries->items) {
      const Json* key = e.find("key");
      const Json* count = e.find("count");
      const Json* error = e.find("error");
      if (key == nullptr || count == nullptr || error == nullptr) {
        return complain("malformed entry in " + name->str);
      }
      if (error->u64_or(0) > count->u64_or(0)) {
        return complain("error exceeds count in " + name->str);
      }
      if (!first && (count->u64_or(0) > prev_count ||
                     (count->u64_or(0) == prev_count &&
                      key->u64_or(0) <= prev_key))) {
        return complain("entries not in (count desc, key asc) order in " +
                        name->str);
      }
      prev_count = count->u64_or(0);
      prev_key = key->u64_or(0);
      first = false;
      sum += count->u64_or(0);
    }
    // Space-saving invariant: every offered unit of weight lands in
    // exactly one tracked count (evictions transfer, never destroy).
    if (sum != total->u64_or(0)) {
      return complain("entry counts do not sum to total in " + name->str);
    }
  }
  return 0;
}

int check_exemplars(const Json& root, const std::string& file,
                    std::ostream& err) {
  const auto complain = [&](const std::string& what) {
    err << "explain: self-check failed: " << file << ": " << what << "\n";
    return 1;
  };
  const Json* series = root.find("series");
  if (series == nullptr || series->type != Json::Type::kArray) {
    return complain("missing series array");
  }
  std::pair<std::uint64_t, std::string> prev_key;
  bool first_series = true;
  for (const Json& s : series->items) {
    const Json* node = s.find("node");
    const Json* name = s.find("name");
    const Json* buckets = s.find("buckets");
    if (node == nullptr || name == nullptr || buckets == nullptr ||
        buckets->type != Json::Type::kArray) {
      return complain("malformed series row");
    }
    const std::pair<std::uint64_t, std::string> key{node->u64_or(0),
                                                    name->str};
    if (!first_series && key <= prev_key) {
      return complain("series not sorted by (node, name) at " + name->str);
    }
    prev_key = key;
    first_series = false;
    std::uint64_t prev_bucket = 0;
    bool first_bucket = true;
    for (const Json& b : buckets->items) {
      const Json* idx = b.find("bucket");
      const Json* count = b.find("count");
      const Json* max_ns = b.find("max_ns");
      const Json* request = b.find("request");
      const Json* split = b.find("critical_path_ns");
      if (idx == nullptr || count == nullptr || max_ns == nullptr ||
          request == nullptr || split == nullptr) {
        return complain("malformed bucket in " + name->str);
      }
      if (idx->u64_or(0) > 63) return complain("bucket index out of range");
      if (!first_bucket && idx->u64_or(0) <= prev_bucket) {
        return complain("buckets not ascending in " + name->str);
      }
      prev_bucket = idx->u64_or(0);
      first_bucket = false;
      if (count->u64_or(0) == 0) {
        return complain("empty bucket retained in " + name->str);
      }
      if (bucket_of(max_ns->u64_or(0)) !=
          static_cast<std::uint32_t>(idx->u64_or(0))) {
        return complain("exemplar latency outside its bucket in " +
                        name->str);
      }
      const Json* attributed = split->find("attributed");
      if (attributed == nullptr) return complain("split without attributed");
      double sum = 0.0;
      for (const auto& [cat, v] : split->fields) {
        if (cat != "attributed") sum += v.number;
      }
      if (sum != attributed->number) {
        return complain("attributed mismatch in " + name->str);
      }
    }
  }
  return 0;
}

// --- report sections ---

void report_alerts(const Json& root, std::ostream& out) {
  const Json* alerts = root.find("alerts");
  std::map<std::pair<std::string, std::uint32_t>, const Json*> state;
  std::size_t transitions = 0;
  if (alerts != nullptr && alerts->type == Json::Type::kArray) {
    for (const Json& a : alerts->items) {
      const Json* rule = a.find("rule");
      const Json* node = a.find("node");
      if (rule == nullptr || node == nullptr) continue;
      state[{rule->str, static_cast<std::uint32_t>(node->u64_or(0))}] = &a;
      ++transitions;
    }
  }
  out << "  rules (" << transitions << " transition(s)):\n";
  bool any = false;
  for (const auto& [key, a] : state) {
    const Json* st = a->find("state");
    if (st == nullptr || st->str != "firing") continue;
    any = true;
    const Json* value = a->find("value");
    const Json* threshold = a->find("threshold");
    const Json* t = a->find("t");
    out << "  FIRING " << key.first << " node=" << key.second
        << " since t=" << (t != nullptr ? t->raw : "?")
        << " value=" << fmt_fixed(value != nullptr ? value->number : 0.0, 3)
        << " threshold="
        << fmt_fixed(threshold != nullptr ? threshold->number : 0.0, 3) << "\n";
  }
  if (!any) out << "  (none firing)\n";
}

void report_capture(const Json& root, std::ostream& out) {
  // Capture transitions live in the flight rings of a postmortem dump:
  // obs/capture.armed + obs/capture.disarmed (per node) and the recorder's
  // own flight/capture.full / flight/capture.sampled flips.
  out << "\n  capture transitions:\n";
  const Json* nodes = root.find("nodes");
  bool any = false;
  if (nodes != nullptr && nodes->type == Json::Type::kArray) {
    for (const Json& n : nodes->items) {
      const Json* records = n.find("records");
      if (records == nullptr) continue;
      for (const Json& rec : records->items) {
        const Json* layer = rec.find("layer");
        const Json* op = rec.find("op");
        const Json* t = rec.find("t");
        if (layer == nullptr || op == nullptr) continue;
        const bool arming = layer->str == "obs" &&
                            (op->str == "capture.armed" ||
                             op->str == "capture.disarmed");
        const bool flip = layer->str == "flight" &&
                          (op->str == "capture.full" ||
                           op->str == "capture.sampled");
        if (!arming && !flip) continue;
        any = true;
        const Json* node = n.find("node");
        out << "  t=" << (t != nullptr ? t->raw : "?") << " " << op->str
            << " node=" << (node != nullptr ? node->u64_or(0) : 0) << "\n";
      }
    }
  }
  if (!any) out << "  (no capture transitions recorded)\n";
}

void report_hotset(const Json& root, std::size_t top, std::ostream& out) {
  const Json* domains = root.find("domains");
  if (domains == nullptr) return;
  for (const Json& d : domains->items) {
    const Json* name = d.find("domain");
    const Json* total = d.find("total");
    const Json* entries = d.find("entries");
    if (name == nullptr || entries == nullptr) continue;
    out << "\n  hot " << name->str
        << " (total=" << (total != nullptr ? total->u64_or(0) : 0) << "):\n";
    std::size_t shown = 0;
    for (const Json& e : entries->items) {
      if (shown == top) break;
      ++shown;
      out << "    key=" << field_u64(e, "key")
          << " count=" << field_u64(e, "count")
          << " error=" << field_u64(e, "error") << "\n";
    }
    if (shown == 0) out << "    (no entries)\n";
  }
}

void report_exemplars(const Json& root, std::size_t top, std::ostream& out) {
  const Json* series = root.find("series");
  if (series == nullptr) return;
  for (const Json& s : series->items) {
    const Json* node = s.find("node");
    const Json* name = s.find("name");
    const Json* buckets = s.find("buckets");
    if (node == nullptr || name == nullptr || buckets == nullptr) continue;
    out << "\n  exemplars node=" << node->u64_or(0) << " series="
        << name->str << ":\n";
    // Buckets are ascending and higher buckets hold larger latencies, so
    // the slowest exemplars are the last rows; report them slowest-first.
    const auto& rows = buckets->items;
    std::size_t shown = 0;
    for (std::size_t i = rows.size(); i > 0 && shown < top; --i, ++shown) {
      const Json& b = rows[i - 1];
      out << "    bucket=" << field_u64(b, "bucket")
          << " count=" << field_u64(b, "count")
          << " max_ns=" << field_u64(b, "max_ns")
          << " request=" << field_u64(b, "request") << "\n";
      const Json* split = b.find("critical_path_ns");
      if (split == nullptr) continue;
      out << "     ";
      for (const auto& [cat, v] : split->fields) {
        out << " " << cat << "=" << v.raw;
      }
      out << "\n";
    }
    if (shown == 0) out << "    (no buckets)\n";
  }
}

}  // namespace

int run_explain(const std::string& file, const ExplainOptions& opts,
                std::ostream& out, std::ostream& err) {
  Json timeseries;
  if (const int rc = load_schema(file, "dcs-timeseries-v1", &timeseries, err);
      rc != 0) {
    return rc;
  }
  Json hotset, exemplars, postmortem;
  if (!opts.hotset.empty()) {
    if (const int rc =
            load_schema(opts.hotset, "dcs-hotset-v1", &hotset, err);
        rc != 0) {
      return rc;
    }
  }
  if (!opts.exemplars.empty()) {
    if (const int rc = load_schema(opts.exemplars, "dcs-exemplar-v1",
                                   &exemplars, err);
        rc != 0) {
      return rc;
    }
  }
  if (!opts.postmortem.empty()) {
    if (const int rc = load_schema(opts.postmortem, "dcs-postmortem-v1",
                                   &postmortem, err);
        rc != 0) {
      return rc;
    }
  }

  if (opts.self_check) {
    std::size_t checked = 1;  // the timeseries schema gate already passed
    if (!opts.hotset.empty()) {
      if (const int rc = check_hotset(hotset, opts.hotset, err); rc != 0) {
        return rc;
      }
      ++checked;
    }
    if (!opts.exemplars.empty()) {
      if (const int rc = check_exemplars(exemplars, opts.exemplars, err);
          rc != 0) {
        return rc;
      }
      ++checked;
    }
    if (!opts.postmortem.empty()) ++checked;
    out << "explain: self-check ok: " << checked << " dump(s) validated\n";
    return 0;
  }

  out << "explain (" << file << ")\n\n";
  report_alerts(timeseries, out);
  if (!opts.postmortem.empty()) report_capture(postmortem, out);
  if (!opts.hotset.empty()) report_hotset(hotset, opts.top, out);
  if (!opts.exemplars.empty()) report_exemplars(exemplars, opts.top, out);
  return 0;
}

}  // namespace dcs::obs
