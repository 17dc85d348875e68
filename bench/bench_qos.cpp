// QoS prioritization + admission control ([4] and the paper's "controlling
// overload scenarios"): soft-QoS latency protection under overload, and
// admission control keeping admitted-request latency bounded while the
// offered load grows past capacity.
#include "common/json.hpp"
#include "common/table.hpp"
#include "datacenter/admission.hpp"
#include "datacenter/qos.hpp"
#include "obs/flags.hpp"

namespace {

using namespace dcs;
using datacenter::AdmissionController;
using datacenter::QosScheduler;

// --- QoS: premium protection under a standard-class flood ------------------

struct QosOutcome {
  double premium_p95_us;
  double standard_p95_us;
  double premium_share;
};

QosOutcome run_qos(double premium_weight) {
  sim::Engine eng;
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

  auto& prem = const_cast<datacenter::QosClassStats&>(sched.stats(0));
  auto& stan = const_cast<datacenter::QosClassStats&>(sched.stats(1));
  const double total_cpu =
      static_cast<double>(prem.cpu_consumed + stan.cpu_consumed);
  return QosOutcome{prem.latency_us.percentile(95),
                    stan.latency_us.percentile(95),
                    total_cpu > 0 ? prem.cpu_consumed / total_cpu : 0};
}

void print_qos_table() {
  Table table({"premium weight", "premium p95 (us)", "standard p95 (us)",
               "premium CPU share"});
  for (const double weight : {1.0, 2.0, 4.0, 8.0}) {
    const auto r = run_qos(weight);
    table.add_row({"x" + fmt_fixed(weight, 0),
                   fmt_fixed(r.premium_p95_us, 0),
                   fmt_fixed(r.standard_p95_us, 0),
                   fmt_fixed(100 * r.premium_share, 1) + " %"});
  }
  table.print(
      "Soft QoS ([4]) — premium latency under a standard-class flood "
      "(higher weight -> tighter premium tail, standard absorbs the queue)");
}

// --- admission control under rising offered load ----------------------------

struct AdmOutcome {
  double admitted_p95_us;
  double drop_rate;
  std::uint64_t served;
};

AdmOutcome run_admission(int sessions, bool with_admission) {
  sim::Engine eng;
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
  for (int s = 0; s < sessions; ++s) {
    eng.spawn([](sim::Engine& e, AdmissionController& a) -> sim::Task<void> {
      for (int i = 0; i < 60; ++i) {
        (void)co_await a.offer(microseconds(1200), 2048);
        co_await e.delay(microseconds(200));
      }
    }(eng, adm));
  }
  eng.run_until(seconds(3));
  auto& stats = const_cast<datacenter::AdmissionStats&>(adm.stats());
  return AdmOutcome{stats.admitted_latency_us.percentile(95),
                    stats.drop_rate(), stats.admitted};
}

void print_admission_table() {
  Table table({"closed-loop sessions", "policy", "admitted p95 (us)",
               "drop rate", "served"});
  for (const int sessions : {4, 12, 24}) {
    for (const bool on : {false, true}) {
      const auto r = run_admission(sessions, on);
      table.add_row({std::to_string(sessions),
                     on ? "admission control" : "admit everything",
                     fmt_fixed(r.admitted_p95_us, 0),
                     fmt_fixed(100 * r.drop_rate, 1) + " %",
                     std::to_string(r.served)});
    }
  }
  table.print(
      "Admission control — bounded latency for admitted requests as "
      "offered load passes capacity (shed instead of queue)");
}

}  // namespace

int main(int argc, char** argv) {
  dcs::obs::reject_unknown_args(argc, argv);
  print_qos_table();
  print_admission_table();
  return 0;
}
