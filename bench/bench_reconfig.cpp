// E11 — Section 6: fine-grained vs coarse-grained dynamic reconfiguration.
//
// A load spike shifts demand from site B to site A.  A manager with a
// millisecond-scale RDMA-fed monitoring loop repurposes nodes almost
// immediately; a conventional coarse (second-scale) loop leaves site A
// under-provisioned for the whole interval.  Paper claim: about an order
// of magnitude benefit in adaptation time for the fine-grained module.
#include "common/json.hpp"
#include "common/table.hpp"
#include "obs/harness.hpp"
#include "reconfig/reconfig.hpp"

namespace {

using namespace dcs;

/// One load spike under a manager polling every `manager_interval`;
/// time-to-adapt runs from the spike to the first reassignment.
void spike_scenario(obs::Scenario& s, SimNanos manager_interval) {
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 7, .cores_per_node = 1});
  verbs::Network net(fab);
  sockets::TcpNetwork tcp(fab);
  monitor::ResourceMonitor mon(net, tcp, 0, {1, 2, 3, 4, 5, 6},
                               monitor::MonScheme::kRdmaSync);
  mon.start();
  reconfig::ReconfigService svc(
      net, mon, 0, {1, 2, 3, 4, 5, 6}, 2,
      {.monitor_interval = manager_interval, .history_window = 2});
  svc.start();

  const SimNanos spike_at = milliseconds(100);
  const SimNanos spike_end = seconds(8);

  // Site 0 request generators: light before the spike, heavy after.
  LatencySamples spike_latency;
  for (int session = 0; session < 8; ++session) {
    eng.spawn([](sim::Engine& e, fabric::Fabric& f,
                 reconfig::ReconfigService& rs, SimNanos start, SimNanos end,
                 LatencySamples& lat) -> sim::Task<void> {
      co_await e.delay(start);
      while (e.now() < end) {
        const auto t0 = e.now();
        const auto server = co_await rs.pick_server(0);
        co_await f.tcp_wire_transfer(0, server, 256);
        co_await f.node(server).execute(microseconds(2500));
        co_await f.tcp_wire_transfer(server, 0, 8192);
        lat.add(to_micros(e.now() - t0));
      }
    }(eng, fab, svc, spike_at, spike_end, spike_latency));
  }
  // Site 1 trickle (so it is not empty).
  eng.spawn([](sim::Engine& e, fabric::Fabric& f,
               reconfig::ReconfigService& rs, SimNanos end) -> sim::Task<void> {
    while (e.now() < end) {
      const auto server = co_await rs.pick_server(1);
      co_await f.node(server).execute(microseconds(300));
      co_await e.delay(milliseconds(5));
    }
  }(eng, fab, svc, spike_end));

  eng.run_until(spike_end + milliseconds(10));

  s.metric("moves", static_cast<double>(svc.reconfigurations()));
  const SimNanos adapted_at =
      svc.events().empty() ? spike_end : svc.events().front().at;
  s.metric("time_to_adapt_ms", to_millis(adapted_at - spike_at));
  s.metric("spike_latency_us", spike_latency.mean());
}

void print_table(obs::Harness& h) {
  Table table({"manager interval", "time-to-adapt (ms)",
               "mean req latency (us)", "moves"});
  const std::vector<std::tuple<const char*, const char*, SimNanos>>
      kIntervals = {
          {"fine", "fine   10 ms", milliseconds(10)},
          {"medium", "medium 100 ms", milliseconds(100)},
          {"coarse", "coarse 2 s", seconds(2)},
      };
  for (const auto& [name, label, interval] : kIntervals) {
    const auto m = h.run(std::string("interval/") + name,
                         [interval](obs::Scenario& s) {
                           spike_scenario(s, interval);
                         });
    table.add_row({label, fmt_fixed(m.at("time_to_adapt_ms"), 1),
                   fmt_fixed(m.at("spike_latency_us"), 0),
                   std::to_string(static_cast<std::uint64_t>(m.at("moves")))});
  }
  table.print(
      "Section 6 — fine- vs coarse-grained reconfiguration under a load "
      "spike (paper: ~order of magnitude adaptation benefit)");
}

}  // namespace

int main(int argc, char** argv) {
  obs::Harness h("reconfig", Args(argc, argv));
  print_table(h);
  return h.finish();
}
