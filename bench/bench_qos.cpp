// QoS prioritization + admission control ([4] and the paper's "controlling
// overload scenarios"): soft-QoS latency protection under overload, and
// admission control keeping admitted-request latency bounded while the
// offered load grows past capacity.
#include "common/json.hpp"
#include "common/table.hpp"
#include "datacenter/admission.hpp"
#include "datacenter/qos.hpp"
#include "obs/harness.hpp"

namespace {

using namespace dcs;
using datacenter::AdmissionController;
using datacenter::QosScheduler;

// --- QoS: premium protection under a standard-class flood ------------------

void qos_scenario(obs::Scenario& s, double premium_weight) {
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 1, .cores_per_node = 1});
  QosScheduler sched(fab, 0,
                     {{"premium", premium_weight}, {"standard", 1.0}});
  sched.start();
  // Both classes arrive open-loop beyond capacity (premium 1x, standard
  // 2x the core), so the weights decide who eats the backlog.
  eng.spawn([](sim::Engine& e, QosScheduler& q) -> sim::Task<void> {
    for (int i = 0; i < 700; ++i) {
      e.spawn(q.submit(1, microseconds(400)));   // standard
      co_await e.delay(microseconds(200));
      if (i % 2 == 0) e.spawn(q.submit(0, microseconds(400)));  // premium
    }
  }(eng, sched));
  eng.run_until(milliseconds(140));

  const auto& prem = sched.stats(0);
  const auto& stan = sched.stats(1);
  const double total_cpu =
      static_cast<double>(prem.cpu_consumed + stan.cpu_consumed);
  s.metric("premium_p95_us", prem.latency_us.percentile(95));
  s.metric("standard_p95_us", stan.latency_us.percentile(95));
  s.metric("premium_cpu_share",
           total_cpu > 0 ? prem.cpu_consumed / total_cpu : 0);
}

void print_qos_table(obs::Harness& h) {
  Table table({"premium weight", "premium p95 (us)", "standard p95 (us)",
               "premium CPU share"});
  for (const double weight : {1.0, 2.0, 4.0, 8.0}) {
    const auto m = h.run("qos/weight=" + fmt_fixed(weight, 0),
                         [weight](obs::Scenario& s) {
                           qos_scenario(s, weight);
                         });
    table.add_row({"x" + fmt_fixed(weight, 0),
                   fmt_fixed(m.at("premium_p95_us"), 0),
                   fmt_fixed(m.at("standard_p95_us"), 0),
                   fmt_fixed(100 * m.at("premium_cpu_share"), 1) + " %"});
  }
  table.print(
      "Soft QoS ([4]) — premium latency under a standard-class flood "
      "(higher weight -> tighter premium tail, standard absorbs the queue)");
}

// --- admission control under rising offered load ----------------------------

void admission_scenario(obs::Scenario& s, int sessions, bool with_admission) {
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 4, .cores_per_node = 1});
  verbs::Network net(fab);
  sockets::TcpNetwork tcp(fab);
  monitor::ResourceMonitor mon(net, tcp, 0, {1, 2, 3},
                               monitor::MonScheme::kRdmaSync);
  mon.start();
  AdmissionController adm(
      net, mon,
      {.max_load_per_node = with_admission ? 2.0 : 1e9,
       .retry_backoff = milliseconds(1),
       .max_retries = 2});
  for (int session = 0; session < sessions; ++session) {
    eng.spawn([](sim::Engine& e, AdmissionController& a) -> sim::Task<void> {
      for (int i = 0; i < 60; ++i) {
        (void)co_await a.offer(microseconds(1200), 2048);
        co_await e.delay(microseconds(200));
      }
    }(eng, adm));
  }
  eng.run_until(seconds(3));
  const auto& stats = adm.stats();
  s.metric("admitted_p95_us", stats.admitted_latency_us.percentile(95));
  s.metric("drop_rate", stats.drop_rate());
  s.metric("served", static_cast<double>(stats.admitted));
}

void print_admission_table(obs::Harness& h) {
  Table table({"closed-loop sessions", "policy", "admitted p95 (us)",
               "drop rate", "served"});
  for (const int sessions : {4, 12, 24}) {
    for (const bool on : {false, true}) {
      const auto m = h.run("admission/" + std::to_string(sessions) +
                               (on ? "/on" : "/off"),
                           [sessions, on](obs::Scenario& s) {
                             admission_scenario(s, sessions, on);
                           });
      table.add_row(
          {std::to_string(sessions),
           on ? "admission control" : "admit everything",
           fmt_fixed(m.at("admitted_p95_us"), 0),
           fmt_fixed(100 * m.at("drop_rate"), 1) + " %",
           std::to_string(static_cast<std::uint64_t>(m.at("served")))});
    }
  }
  table.print(
      "Admission control — bounded latency for admitted requests as "
      "offered load passes capacity (shed instead of queue)");
}

}  // namespace

int main(int argc, char** argv) {
  obs::Harness h("qos", Args(argc, argv));
  print_qos_table(h);
  print_admission_table(h);
  return h.finish();
}
