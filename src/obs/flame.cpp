#include "obs/flame.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "trace/inspect.hpp"

namespace dcs::obs {

namespace {

using trace::inspect::Json;

/// One span lifted out of the trace, keyed by its tracer span id.
struct SpanRec {
  std::string frame;   // "category.name" label
  std::uint64_t request = 0;
  std::uint64_t parent = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t child_ns = 0;  // sum of direct children's durations
};

std::uint64_t to_ns(const Json* us) {
  // Chrome JSON carries ts/dur in microseconds with 3 decimals; the
  // underlying virtual times are integer ns, so this round-trips exactly.
  if (us == nullptr) return 0;
  return static_cast<std::uint64_t>(us->number * 1000.0 + 0.5);
}

}  // namespace

int run_flame(const std::string& trace_file, std::ostream& out,
              std::ostream& err) {
  Json root;
  try {
    root = trace::inspect::parse_json_file(trace_file);
  } catch (const std::exception& e) {
    err << "flame: " << e.what() << "\n";
    return 2;
  }
  const Json* events = root.find("traceEvents");
  if (events == nullptr || events->type != Json::Type::kArray) {
    err << "flame: " << trace_file
        << " is not a Chrome trace (no traceEvents array)\n";
    return 2;
  }

  // Pass 1: collect spans and request roots.
  std::map<std::uint64_t, SpanRec> spans;         // span id -> record
  std::map<std::uint64_t, std::string> requests;  // request id -> root name
  std::uint64_t total_ns = 0;
  for (const Json& ev : events->items) {
    const Json* ph = ev.find("ph");
    if (ph == nullptr || ph->str != "X") continue;
    const Json* cat = ev.find("cat");
    const Json* name = ev.find("name");
    const Json* args = ev.find("args");
    if (cat == nullptr || name == nullptr || args == nullptr) continue;
    const std::uint64_t dur = to_ns(ev.find("dur"));
    if (cat->str == "request") {
      const Json* req = args->find("request");
      if (req != nullptr) requests[req->u64_or(0)] = name->str;
      total_ns += dur;
      continue;
    }
    const Json* span = args->find("span");
    if (span == nullptr) continue;
    SpanRec rec;
    rec.frame = cat->str + "." + name->str;
    const Json* req = args->find("request");
    if (req != nullptr) rec.request = req->u64_or(0);
    const Json* parent = args->find("parent");
    if (parent != nullptr) rec.parent = parent->u64_or(0);
    rec.dur_ns = dur;
    spans.emplace(span->u64_or(0), rec);
  }

  // Pass 2: charge each span's duration to its parent's child_ns.
  for (const auto& [id, rec] : spans) {
    (void)id;
    if (rec.parent == 0) continue;
    const auto parent = spans.find(rec.parent);
    if (parent != spans.end()) parent->second.child_ns += rec.dur_ns;
  }

  // Pass 3: build the self-time stack per span.  Stacks aggregate in a
  // sorted map so the emission order (and thus the file) is deterministic.
  std::map<std::vector<std::string>, std::uint64_t> stacks;
  for (const auto& [id, rec] : spans) {
    (void)id;
    // Concurrent children can overlap the parent arbitrarily; clamping at
    // zero keeps the profile well-formed (speedscope requires
    // non-negative weights).
    const std::uint64_t self =
        rec.dur_ns > rec.child_ns ? rec.dur_ns - rec.child_ns : 0;
    if (self == 0) continue;
    std::vector<std::string> stack;
    stack.push_back(rec.frame);
    std::uint64_t parent = rec.parent;
    // Walk ancestors; traces are finite and parent ids strictly older, but
    // guard the walk anyway so a corrupt file cannot loop.
    for (std::size_t depth = 0; parent != 0 && depth < 256; ++depth) {
      const auto it = spans.find(parent);
      if (it == spans.end()) break;
      stack.push_back(it->second.frame);
      parent = it->second.parent;
    }
    const auto req = requests.find(rec.request);
    stack.push_back(req != requests.end() ? "request:" + req->second
                                          : "(untracked)");
    std::reverse(stack.begin(), stack.end());
    stacks[stack] += self;
  }

  // Pass 4: emit.  Frames index in first-appearance order over the sorted
  // stack set.
  std::map<std::string, std::size_t> frame_index;
  std::vector<std::string> frames;
  std::uint64_t end_value = 0;
  std::string samples, weights;
  bool first_sample = true;
  for (const auto& [stack, weight] : stacks) {
    samples += first_sample ? "[" : ",[";
    weights += first_sample ? "" : ",";
    first_sample = false;
    bool first_frame = true;
    for (const std::string& frame : stack) {
      const auto [it, inserted] =
          frame_index.emplace(frame, frames.size());
      if (inserted) frames.push_back(frame);
      samples += (first_frame ? "" : ",") + std::to_string(it->second);
      first_frame = false;
    }
    samples += "]";
    weights += std::to_string(weight);
    end_value += weight;
  }

  out << "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\","
      << "\"exporter\":\"dcs-flame\",\"shared\":{\"frames\":[";
  for (std::size_t i = 0; i < frames.size(); ++i) {
    out << (i ? "," : "") << "{\"name\":\"" << json_escape(frames[i])
        << "\"}";
  }
  out << "]},\"profiles\":[{\"type\":\"sampled\",\"name\":\""
      << json_escape(trace_file) << "\",\"unit\":\"nanoseconds\","
      << "\"startValue\":0,\"endValue\":" << end_value << ","
      << "\"samples\":[" << samples << "],\"weights\":[" << weights
      << "]}],\"activeProfileIndex\":0}\n";
  err << "flame: " << stacks.size() << " stack(s), " << frames.size()
      << " frame(s), " << end_value << " self-ns";
  if (total_ns > 0) err << " over " << total_ns << " request-ns";
  err << "\n";
  return 0;
}

}  // namespace dcs::obs
