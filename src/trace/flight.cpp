#include "trace/flight.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/check.hpp"
#include "common/json.hpp"

namespace dcs::trace {

namespace {

FlightRecorder* g_current_flight = nullptr;

}  // namespace

// --- trace.hpp forwarding shims ---

namespace detail {

SimNanos flight_now(FlightRecorder* fr) { return fr->now(); }

std::uint64_t flight_next_request(FlightRecorder* fr) {
  return fr->next_request_id();
}

std::uint64_t flight_next_span(FlightRecorder* fr) {
  return fr->next_span_id();
}

void flight_span(FlightRecorder* fr, const TraceEvent& ev) {
  fr->span_close(ev);
}

void flight_request_begin(FlightRecorder* fr, std::uint64_t request,
                          const char* name, std::uint32_t node,
                          std::uint64_t id) {
  fr->request_begin(request, name, node, id);
}

void flight_request_end(FlightRecorder* fr, std::uint64_t request,
                        const char* name, std::uint32_t node,
                        std::uint64_t id) {
  fr->request_end(request, name, node, id);
}

void emit_instant(const char* category, const char* name, std::uint32_t node,
                  std::uint64_t id, const char* detail) {
  Sinks& s = sinks();
  if (s.tracer != nullptr) s.tracer->instant(category, name, node, id, detail);
  if (s.flight != nullptr) s.flight->instant(category, name, node, id);
}

void emit_log(const char* layer, const char* opcode, std::uint32_t node,
              std::uint64_t a0, std::uint64_t a1) {
  Sinks& s = sinks();
  if (s.tracer != nullptr) s.tracer->instant(layer, opcode, node, a0);
  if (s.flight != nullptr) s.flight->log(layer, opcode, node, a0, a1);
}

}  // namespace detail

// --- FlightRecorder ---

FlightRecorder::FlightRecorder(sim::Engine& eng, FlightConfig config)
    : eng_(eng), config_(std::move(config)) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  if (config_.sample_period == 0) config_.sample_period = 1;
}

FlightRecorder::~FlightRecorder() { uninstall(); }

void FlightRecorder::install() {
  DCS_CHECK_MSG(g_current_flight == nullptr || g_current_flight == this,
                "another flight recorder is already installed");
  g_current_flight = this;
  auto& s = detail::sinks();
  s.flight = this;
  s.any = true;
  sim::stall_hook() = this;
}

void FlightRecorder::uninstall() {
  if (g_current_flight != this) return;
  g_current_flight = nullptr;
  auto& s = detail::sinks();
  s.flight = nullptr;
  s.any = s.tracer != nullptr;
  if (sim::stall_hook() == this) sim::stall_hook() = nullptr;
}

bool FlightRecorder::installed() const { return g_current_flight == this; }

FlightRecorder* FlightRecorder::current() { return g_current_flight; }

void FlightRecorder::push(std::uint32_t node, const FlightRecord& rec) {
  Ring& ring = rings_[node];
  ++ring.offered;
  if (ring.buf.size() < config_.ring_capacity) {
    ring.buf.push_back(rec);
  } else {
    ring.buf[ring.total % config_.ring_capacity] = rec;
  }
  ++ring.total;
}

void FlightRecorder::push_sampled(std::uint32_t node,
                                  const FlightRecord& rec) {
  if (full_capture_ || config_.sample_period <= 1) {
    push(node, rec);
    return;
  }
  Ring& ring = rings_[node];
  // Keep the 1st, (N+1)th, ... offered record per node — a deterministic
  // decimation in offer order, so same-seed runs sample identically.
  if (ring.offered % config_.sample_period != 0) {
    ++ring.offered;
    return;
  }
  push(node, rec);
}

void FlightRecorder::set_full_capture(bool on) {
  if (full_capture_ == on) return;
  full_capture_ = on;
  // The transition record rides in the ring itself (node 0) so postmortem
  // dumps show exactly when deep capture armed; it bypasses sampling.
  FlightRecord rec;
  rec.time = eng_.now();
  rec.request = sim::strand_ctx().request;
  rec.layer = "flight";
  rec.opcode = on ? "capture.full" : "capture.sampled";
  rec.a0 = config_.sample_period;
  rec.node = 0;
  rec.kind = 'L';
  push(0, rec);
}

void FlightRecorder::touch(std::uint64_t request) {
  if (request == 0) return;
  const auto it = in_flight_.find(request);
  if (it != in_flight_.end()) it->second.last_activity = eng_.now();
}

void FlightRecorder::log(const char* layer, const char* opcode,
                         std::uint32_t node, std::uint64_t a0,
                         std::uint64_t a1) {
  FlightRecord rec;
  rec.time = eng_.now();
  rec.request = sim::strand_ctx().request;
  rec.layer = layer;
  rec.opcode = opcode;
  rec.a0 = a0;
  rec.a1 = a1;
  rec.node = node;
  rec.kind = 'L';
  push_sampled(node, rec);
  touch(rec.request);
}

void FlightRecorder::instant(const char* category, const char* name,
                             std::uint32_t node, std::uint64_t id) {
  FlightRecord rec;
  rec.time = eng_.now();
  rec.request = sim::strand_ctx().request;
  rec.layer = category;
  rec.opcode = name;
  rec.a0 = id;
  rec.node = node;
  rec.kind = 'i';
  push_sampled(node, rec);
  touch(rec.request);
}

void FlightRecorder::span_close(const TraceEvent& ev) {
  // Mirror the tracer's filter: zero-length cost intervals carry no
  // information and would flood the ring from contention-free fast paths.
  if (ev.cost != Cost::kNone && ev.end == ev.start) return;
  FlightRecord rec;
  rec.time = ev.end;
  rec.request = ev.request;
  rec.layer = ev.category;
  rec.opcode = ev.name;
  rec.a0 = ev.id;
  rec.a1 = ev.end - ev.start;  // span duration
  rec.node = ev.node;
  rec.kind = 'S';
  push_sampled(ev.node, rec);
  if (ev.request != 0) {
    const auto it = in_flight_.find(ev.request);
    if (it != in_flight_.end()) {
      it->second.last_activity = ev.end;
      if (ev.cost != Cost::kNone) {
        it->second.cost_ns[static_cast<std::size_t>(ev.cost) - 1] +=
            ev.end - ev.start;
      }
    }
  }
}

void FlightRecorder::violation(const char* checker) {
  FlightRecord rec;
  rec.time = eng_.now();
  rec.request = sim::strand_ctx().request;
  rec.layer = "audit";
  rec.opcode = checker;
  rec.node = 0;
  rec.kind = 'V';
  push(0, rec);
  touch(rec.request);
}

void FlightRecorder::request_begin(std::uint64_t request, const char* name,
                                   std::uint32_t node, std::uint64_t id) {
  InFlight entry;
  entry.name = name;
  entry.id = id;
  entry.node = node;
  entry.start = eng_.now();
  entry.last_activity = entry.start;
  in_flight_[request] = entry;
}

void FlightRecorder::request_end(std::uint64_t request, const char* name,
                                 std::uint32_t node, std::uint64_t id) {
  in_flight_.erase(request);
  FlightRecord rec;
  rec.time = eng_.now();
  rec.request = request;
  rec.layer = "request";
  rec.opcode = name;
  rec.a0 = id;
  rec.node = node;
  rec.kind = 'S';
  push(node, rec);
}

std::vector<std::uint32_t> FlightRecorder::nodes() const {
  std::vector<std::uint32_t> out;
  out.reserve(rings_.size());
  for (const auto& [node, ring] : rings_) out.push_back(node);
  return out;
}

std::vector<FlightRecord> FlightRecorder::records(std::uint32_t node) const {
  std::vector<FlightRecord> out;
  const auto it = rings_.find(node);
  if (it == rings_.end()) return out;
  const Ring& ring = it->second;
  const std::size_t n = ring.buf.size();
  out.reserve(n);
  // Oldest retained record first.  Before wraparound the buffer is already
  // in order; after it, the slot past the newest holds the oldest.
  const std::size_t start =
      ring.total > n ? ring.total % config_.ring_capacity : 0;
  for (std::size_t i = 0; i < n; ++i) out.push_back(ring.buf[(start + i) % n]);
  return out;
}

std::uint64_t FlightRecorder::total_records(std::uint32_t node) const {
  const auto it = rings_.find(node);
  return it == rings_.end() ? 0 : it->second.total;
}

std::uint64_t FlightRecorder::offered_records(std::uint32_t node) const {
  const auto it = rings_.find(node);
  return it == rings_.end() ? 0 : it->second.offered;
}

// --- trip conditions ---

void FlightRecorder::on_time_jump(SimNanos from, SimNanos to) {
  // The jump itself is not a verdict — an idle patrol loop legitimately
  // leaps between ticks.  Only a request that saw no activity for longer
  // than the horizon is evidence of a wedge.
  std::uint64_t stalled = 0;
  std::uint64_t oldest = 0;
  SimNanos oldest_idle = 0;
  for (const auto& [request, info] : in_flight_) {
    if (to - info.last_activity <= config_.stall_horizon) continue;
    ++stalled;
    const SimNanos idle = to - info.last_activity;
    if (oldest == 0 || idle > oldest_idle) {
      oldest = request;
      oldest_idle = idle;
    }
  }
  if (stalled == 0) return;
  std::string detail =
      "virtual time jumped " + std::to_string(from) + "ns -> " +
      std::to_string(to) + "ns with " + std::to_string(stalled) +
      " stalled request(s); oldest request #" + std::to_string(oldest) +
      " idle " + std::to_string(oldest_idle) + "ns";
  trip("engine-stall", detail);
}

void FlightRecorder::on_wedged(std::size_t live_roots) {
  trip("engine-stall",
       "engine drained with " + std::to_string(live_roots) +
           " live root(s) still parked; no event can wake them");
}

void FlightRecorder::trip(const char* reason, const std::string& detail) {
  if (tripping_) return;  // a dump must never trip another dump
  tripping_ = true;
  ++trips_;
  last_reason_ = reason;
  last_detail_ = detail;
  Registry::global().counter("flight.trips").add();
  if (!config_.postmortem_dir.empty() && trips_ <= config_.max_dumps) {
    const std::string path = config_.postmortem_dir + "/" + config_.prefix +
                             "." + reason + "." + std::to_string(trips_) +
                             ".postmortem.json";
    std::ofstream os(path);
    if (os) write_postmortem(os, reason, detail);
    if (os.flush()) {
      dump_paths_.push_back(path);
      std::fprintf(stderr, "postmortem: %s -> %s\n", reason, path.c_str());
    } else {
      ++lost_dumps_;
      std::fprintf(stderr, "postmortem: cannot write %s\n", path.c_str());
    }
  }
  tripping_ = false;
}

void FlightRecorder::write_postmortem(std::ostream& os, const char* reason,
                                      const std::string& detail) const {
  char buf[64];
  os << "{\n";
  os << "  \"schema\": \"dcs-postmortem-v1\",\n";
  os << "  \"reason\": \"" << json_escape(reason) << "\",\n";
  os << "  \"detail\": \"" << json_escape(detail) << "\",\n";
  os << "  \"now_ns\": " << eng_.now() << ",\n";
  os << "  \"config\": {\"ring_capacity\": " << config_.ring_capacity
     << ", \"stall_horizon_ns\": " << config_.stall_horizon << "},\n";
  // Fingerprint as a hex string: 64-bit values are not exactly
  // representable by every JSON consumer's number type.
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64,
                eng_.dispatch_fingerprint());
  os << "  \"engine\": {\"now_ns\": " << eng_.now()
     << ", \"events_dispatched\": " << eng_.events_dispatched()
     << ", \"last_dispatch_seq\": " << eng_.last_dispatch_seq()
     << ", \"dispatch_fingerprint\": \"" << buf << "\""
     << ", \"ready_ring\": " << eng_.ready_ring_size()
     << ", \"wheel_timers\": " << eng_.wheel_timer_count()
     << ", \"overflow_timers\": " << eng_.overflow_timer_count()
     << ", \"live_roots\": " << eng_.live_roots() << "},\n";
  os << "  \"metrics\": ";
  Registry::global().write_json(os);
  os << ",\n";
  os << "  \"requests\": [";
  bool first = true;
  for (const auto& [request, info] : in_flight_) {
    os << (first ? "\n" : ",\n");
    first = false;
    SimNanos attributed = 0;
    os << "    {\"request\": " << request << ", \"name\": \""
       << json_escape(info.name) << "\", \"node\": " << info.node
       << ", \"id\": " << info.id << ", \"start_ns\": " << info.start
       << ", \"last_activity_ns\": " << info.last_activity
       << ", \"age_ns\": " << eng_.now() - info.start
       << ", \"critical_path_ns\": {";
    for (std::size_t c = 0; c < kCostCategories; ++c) {
      os << (c == 0 ? "" : ", ") << '"'
         << to_string(static_cast<Cost>(c + 1)) << "\": " << info.cost_ns[c];
      attributed += info.cost_ns[c];
    }
    os << ", \"attributed\": " << attributed << "}}";
  }
  os << (first ? "" : "\n  ") << "],\n";
  os << "  \"nodes\": [";
  first = true;
  for (const auto& [node, ring] : rings_) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"node\": " << node << ", \"logged\": " << ring.total
       << ", \"records\": [";
    bool first_rec = true;
    for (const FlightRecord& rec : records(node)) {
      os << (first_rec ? "\n" : ",\n");
      first_rec = false;
      os << "      {\"t\": " << rec.time << ", \"kind\": \"" << rec.kind
         << "\", \"layer\": \"" << json_escape(rec.layer) << "\", \"op\": \""
         << json_escape(rec.opcode) << "\"";
      if (rec.request != 0) os << ", \"request\": " << rec.request;
      if (rec.a0 != 0) os << ", \"a0\": " << rec.a0;
      if (rec.a1 != 0) os << ", \"a1\": " << rec.a1;
      os << "}";
    }
    os << (first_rec ? "" : "\n    ") << "]}";
  }
  os << (first ? "" : "\n  ") << "]\n";
  os << "}\n";
}

}  // namespace dcs::trace
