#include "trace/flight.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/json.hpp"

namespace dcs::trace {

// --- FlightRecorder ---

FlightRecorder::FlightRecorder(sim::Engine& eng, FlightConfig config)
    : eng_(eng), config_(std::move(config)) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  if (config_.sample_period == 0) config_.sample_period = 1;
}

FlightRecorder::~FlightRecorder() { uninstall(); }

void FlightRecorder::install() {
  detail::sinks().attach(detail::Sinks::kRing, this, eng_,
                         "another flight recorder is already installed");
  sim::stall_hook() = this;
}

void FlightRecorder::uninstall() {
  if (!detail::sinks().detach(detail::Sinks::kRing, this)) return;
  if (sim::stall_hook() == this) sim::stall_hook() = nullptr;
}

FlightRecorder* FlightRecorder::current() {
  return static_cast<FlightRecorder*>(
      detail::sinks().consumers[detail::Sinks::kRing]);
}

void FlightRecorder::keep(const TraceEvent& ev, std::uint64_t a1,
                          bool sampled) {
  Ring& ring = rings_[ev.node];
  // Keep the 1st, (N+1)th, ... offered record per node — a deterministic
  // decimation in offer order, so same-seed runs sample identically.
  const bool decimate = sampled && !full_capture_ &&
                        config_.sample_period > 1 &&
                        ring.offered % config_.sample_period != 0;
  ++ring.offered;
  if (!decimate) {
    const bool closed = ev.phase == 'X' || ev.phase == 'R';
    FlightRecord rec;
    rec.time = ev.end;
    rec.request = ev.request;
    rec.layer = ev.category;
    rec.opcode = ev.name;
    rec.a0 = ev.id;
    rec.a1 = ev.phase == 'X' ? ev.end - ev.start : a1;  // span duration
    rec.node = ev.node;
    rec.kind = closed ? 'S' : ev.phase;
    if (ring.buf.size() < config_.ring_capacity) {
      ring.buf.push_back(rec);
    } else {
      ring.buf[ring.total % config_.ring_capacity] = rec;
    }
    ++ring.total;
  }
  if (ev.request == 0) return;
  const auto it = in_flight_.find(ev.request);
  if (it == in_flight_.end()) return;
  if (ev.phase == 'R') {
    in_flight_.erase(it);
    return;
  }
  it->second.last_activity = ev.end;
  if (ev.cost != Cost::kNone) {
    it->second.cost_ns[static_cast<std::size_t>(ev.cost) - 1] +=
        ev.end - ev.start;
  }
}

void FlightRecorder::record(const TraceEvent& ev, std::uint64_t a1) {
  // Request closes are always kept: they end a request's story.
  keep(ev, a1, /*sampled=*/ev.phase != 'R');
}

void FlightRecorder::open_request(const TraceEvent& ev) {
  in_flight_[ev.request] = InFlight{.name = ev.name,
                                    .id = ev.id,
                                    .node = ev.node,
                                    .start = ev.start,
                                    .last_activity = ev.start};
}

void FlightRecorder::log(const char* layer, const char* opcode,
                         std::uint32_t node, std::uint64_t a0,
                         std::uint64_t a1) {
  keep(detail::instant_event(eng_.now(), layer, opcode, node, a0, 'L'), a1,
       /*sampled=*/true);
}

void FlightRecorder::violation(const char* checker) {
  keep(detail::instant_event(eng_.now(), "audit", checker, 0, 0, 'V'), 0,
       /*sampled=*/false);
}

void FlightRecorder::set_full_capture(bool on) {
  if (full_capture_ == on) return;
  full_capture_ = on;
  // The transition record rides in the ring itself (node 0) so postmortem
  // dumps show exactly when deep capture armed; it bypasses sampling.
  keep(detail::instant_event(eng_.now(), "flight",
                             on ? "capture.full" : "capture.sampled", 0,
                             config_.sample_period, 'L'),
       0, /*sampled=*/false);
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
  // Parked roots alone are not a verdict either: a server loop waiting on
  // receive leaves a healthy run draining that way.  Only a request still
  // in flight is evidence that something never finished.
  if (in_flight_.empty()) return;
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
     << ", \"timers\": " << eng_.pending_timer_count()
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
