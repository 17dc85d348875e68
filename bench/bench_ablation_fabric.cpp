// Ablations over the fabric cost model (DESIGN.md §6): how sensitive are
// the paper's headline results to the simulator's calibration constants?
//
//   A1  remote-atomic latency x{0.5,1,2,4}  -> N-CoSED shared-cascade
//       latency and DDSS strict put (the one-sided designs' critical path)
//   A2  host memcpy rate sweep              -> the SDP buffered/zero-copy
//       crossover point (which scheme wins at 16 KB)
//   A3  TCP per-message kernel cost sweep   -> socket-monitor latency vs
//       the (unaffected) RDMA monitor
//
// The claim being validated: orderings are robust across a 8x parameter
// range; only magnitudes move.
#include <memory>

#include "common/json.hpp"
#include "common/table.hpp"
#include "ddss/ddss.hpp"
#include "dlm/ncosed.hpp"
#include "monitor/monitor.hpp"
#include "obs/harness.hpp"
#include "sockets/sdp.hpp"

namespace {

using namespace dcs;

// --- A1: atomic latency ----------------------------------------------------

void cascade_scenario(obs::Scenario& s, double atomic_scale) {
  fabric::FabricParams params;
  params.atomic_execute =
      static_cast<SimNanos>(params.atomic_execute * atomic_scale);
  auto& eng = s.engine();
  fabric::Fabric fab(eng, params, {.num_nodes = 12, .cores_per_node = 2});
  verbs::Network net(fab);
  dlm::NcosedLockManager mgr(net, 0);
  SimNanos release_at = 0, last_grant = 0;
  int granted = 0;
  eng.spawn([](sim::Engine& e, dlm::LockManager& m, SimNanos& rel)
                -> sim::Task<void> {
    co_await m.lock_exclusive(1, 0);
    co_await e.delay(milliseconds(1));
    rel = e.now();
    co_await m.unlock(1, 0);
  }(eng, mgr, release_at));
  for (int i = 0; i < 8; ++i) {
    eng.spawn([](sim::Engine& e, dlm::LockManager& m, fabric::NodeId self,
                 int& g, SimNanos& last) -> sim::Task<void> {
      co_await e.delay(microseconds(50 + 5 * self));
      co_await m.lock_shared(self, 0);
      ++g;
      last = std::max(last, e.now());
      co_await m.unlock(self, 0);
    }(eng, mgr, static_cast<fabric::NodeId>(2 + i), granted, last_grant));
  }
  eng.run();
  DCS_CHECK(granted == 8);
  s.metric("cascade_us", to_micros(last_grant - release_at));
}

void strict_put_scenario(obs::Scenario& s, double atomic_scale) {
  fabric::FabricParams params;
  params.atomic_execute =
      static_cast<SimNanos>(params.atomic_execute * atomic_scale);
  auto& eng = s.engine();
  fabric::Fabric fab(eng, params, {.num_nodes = 2, .mem_per_node = 1u << 20});
  verbs::Network net(fab);
  ddss::Ddss substrate(net);
  substrate.start();
  double out = 0;
  eng.spawn([](ddss::Ddss& d, sim::Engine& e, double& us) -> sim::Task<void> {
    auto c = d.client(0);
    auto a = co_await c.allocate(64, ddss::Coherence::kStrict,
                                 ddss::Placement::kRemote);
    std::vector<std::byte> v(64);
    const auto t0 = e.now();
    for (int i = 0; i < 10; ++i) co_await c.put(a, v);
    us = to_micros(e.now() - t0) / 10;
  }(substrate, eng, out));
  eng.run();
  s.metric("put_us", out);
}

void print_a1(obs::Harness& h) {
  Table table({"atomic latency scale", "N-CoSED shared cascade (us)",
               "DDSS strict put (us)"});
  for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
    const std::string x = "x" + fmt_fixed(scale, 1);
    const auto cascade = h.run("a1/cascade/" + x, [scale](obs::Scenario& s) {
      cascade_scenario(s, scale);
    });
    const auto put = h.run("a1/strict-put/" + x, [scale](obs::Scenario& s) {
      strict_put_scenario(s, scale);
    });
    table.add_row(x, {cascade.at("cascade_us"), put.at("put_us")}, 1);
  }
  table.print(
      "Ablation A1 — remote-atomic latency sensitivity "
      "(orderings unchanged; costs scale with the atomic unit)");
}

// --- A2: memcpy rate and the SDP crossover ----------------------------------

void sdp_scenario(obs::Scenario& s, sockets::SdpMode mode, double copy_rate,
                  std::size_t msg, int count) {
  fabric::FabricParams params;
  params.tcp_copy_bytes_per_ns = copy_rate;
  auto& eng = s.engine();
  fabric::Fabric fab(eng, params, {.num_nodes = 2});
  verbs::Network net(fab);
  sockets::SdpStream stream(net, 0, 1, mode);
  eng.spawn([](sockets::SdpStream& st, std::size_t m,
               int n) -> sim::Task<void> {
    for (int i = 0; i < n; ++i) co_await st.send(std::vector<std::byte>(m));
    co_await st.flush();
  }(stream, msg, count));
  eng.spawn([](sockets::SdpStream& st, int n) -> sim::Task<void> {
    for (int i = 0; i < n; ++i) (void)co_await st.recv();
  }(stream, count));
  eng.run();
  s.metric("elapsed_us", to_micros(eng.now()));
}

void print_a2(obs::Harness& h) {
  const auto elapsed_us = [&h](sockets::SdpMode mode, double rate) {
    const std::string name = std::string("a2/") + sockets::to_string(mode) +
                             "/" + fmt_fixed(rate, 2);
    return h.run(name, [=](obs::Scenario& s) {
              sdp_scenario(s, mode, rate, 16384, 50);
            }).at("elapsed_us");
  };
  Table table({"memcpy rate (B/ns)", "SDP @16K (us)", "ZSDP @16K (us)",
               "winner @16K", "crossover moved?"});
  for (const double rate : {0.25, 0.5, 1.0, 2.0}) {
    const double sdp = elapsed_us(sockets::SdpMode::kBufferedCopy, rate);
    const double zsdp = elapsed_us(sockets::SdpMode::kZeroCopy, rate);
    table.add_row({fmt_fixed(rate, 2), fmt_fixed(sdp, 0),
                   fmt_fixed(zsdp, 0), sdp < zsdp ? "SDP" : "ZSDP",
                   sdp < zsdp ? "yes: copies cheap enough" : "no"});
  }
  table.print(
      "Ablation A2 — host memcpy rate vs the buffered/zero-copy crossover "
      "(zero-copy wins 16 KB unless copies approach wire speed)");
}

// --- A3: TCP kernel cost and monitoring latency -----------------------------

void monitor_scenario(obs::Scenario& s, monitor::MonScheme scheme,
                      double tcp_cpu_scale) {
  fabric::FabricParams params;
  params.tcp_per_message_cpu =
      static_cast<SimNanos>(params.tcp_per_message_cpu * tcp_cpu_scale);
  auto& eng = s.engine();
  fabric::Fabric fab(eng, params, {.num_nodes = 2, .cores_per_node = 1});
  verbs::Network net(fab);
  sockets::TcpNetwork tcp(fab);
  monitor::ResourceMonitor mon(net, tcp, 0, {1}, scheme);
  mon.start();
  double out = 0;
  eng.spawn([](monitor::ResourceMonitor& m, sim::Engine& e, double& us)
                -> sim::Task<void> {
    co_await e.delay(milliseconds(1));
    const auto t0 = e.now();
    for (int i = 0; i < 10; ++i) (void)co_await m.query(1);
    us = to_micros(e.now() - t0) / 10;
  }(mon, eng, out));
  eng.run_until(seconds(1));
  s.metric("query_us", out);
}

void print_a3(obs::Harness& h) {
  const auto query_us = [&h](monitor::MonScheme scheme, double scale) {
    const std::string name = std::string("a3/") + monitor::to_string(scheme) +
                             "/x" + fmt_fixed(scale, 1);
    return h.run(name, [=](obs::Scenario& s) {
              monitor_scenario(s, scheme, scale);
            }).at("query_us");
  };
  Table table({"TCP kernel-cost scale", "Socket-Sync query (us)",
               "RDMA-Sync query (us)", "ratio"});
  for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
    const double sock = query_us(monitor::MonScheme::kSocketSync, scale);
    const double rdma = query_us(monitor::MonScheme::kRdmaSync, scale);
    table.add_row({"x" + fmt_fixed(scale, 1), fmt_fixed(sock, 1),
                   fmt_fixed(rdma, 1), fmt_fixed(sock / rdma, 1) + "x"});
  }
  table.print(
      "Ablation A3 — TCP kernel cost sensitivity "
      "(RDMA monitoring latency is independent of the host stack)");
}

}  // namespace

int main(int argc, char** argv) {
  obs::Harness h("ablation_fabric", Args(argc, argv));
  print_a1(h);
  print_a2(h);
  print_a3(h);
  return h.finish();
}
