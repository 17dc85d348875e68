#include "monitor/watchdog.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace dcs::monitor {

DeadlineWatchdog::DeadlineWatchdog(ResourceMonitor& monitor,
                                   trace::FlightRecorder& flight,
                                   WatchdogConfig config)
    : mon_(monitor), flight_(flight), config_(config) {}

sim::Task<void> DeadlineWatchdog::run(SimNanos until) {
  sim::Engine& eng = flight_.engine();
  auto& trip_counter = trace::Registry::global().counter(
      "monitor.watchdog.trips");
  while (eng.now() + config_.interval <= until) {
    co_await eng.delay(config_.interval);
    ++sweeps_;
    double load = 0.0;
    for (const NodeId target : mon_.targets()) {
      load = std::max(load, co_await mon_.load_estimate(target));
    }
    DCS_LOG("monitor", "watchdog.sweep", mon_.frontend(),
            static_cast<std::uint64_t>(load * 1000.0),
            flight_.in_flight().size());
    const auto limit = static_cast<SimNanos>(
        static_cast<double>(config_.deadline) *
        (1.0 + config_.load_slack * load));
    // Snapshot the overdue requests first: trip() may be configured to
    // write files, and the in-flight table must not change under the scan.
    std::vector<std::uint64_t> overdue;
    for (const auto& [request, info] : flight_.in_flight()) {
      if (eng.now() - info.start <= limit) continue;
      if (tripped_.contains(request)) continue;
      overdue.push_back(request);
    }
    for (const std::uint64_t request : overdue) {
      const auto it = flight_.in_flight().find(request);
      if (it == flight_.in_flight().end()) continue;
      const auto& info = it->second;
      tripped_.insert(request);
      ++trips_;
      trip_counter.add();
      DCS_LOG("monitor", "watchdog.deadline", info.node, request,
              eng.now() - info.start);
      flight_.trip(
          "deadline",
          "request #" + std::to_string(request) + " (" + info.name +
              ") on node " + std::to_string(info.node) + " in flight " +
              std::to_string(eng.now() - info.start) +
              "ns > load-adjusted deadline " + std::to_string(limit) +
              "ns (load estimate " + fmt_fixed(load, 3) + ")");
    }
  }
}

}  // namespace dcs::monitor
