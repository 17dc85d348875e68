// E3/E4 — Figure 5: lock cascading latency vs number of waiting processes.
//
//   (a) shared waiters behind one exclusive holder: N-CoSED grants the
//       whole batch at release (near-flat), DQNL serializes a grant chain
//       (steep linear; paper: up to ~317 % worse at 16 nodes), SRSL pays a
//       server round trip per grant (linear).
//   (b) exclusive waiters: N-CoSED/DQNL hand off peer-to-peer (~39 % better
//       than SRSL in the paper).
//
// Also prints the Figure 4 sanity table: one-sided op counts for
// uncontended lock/unlock.
#include <memory>

#include "common/table.hpp"
#include "obs/harness.hpp"
#include "scenarios/scenarios.hpp"

namespace {

using namespace dcs;
using dlm::LockMode;
using dlm::Scheme;

struct World {
  sim::Engine& eng;
  fabric::Fabric fab;
  verbs::Network net;
  std::unique_ptr<dlm::LockManager> mgr;

  World(sim::Engine& engine, Scheme scheme)
      : eng(engine),
        fab(eng, fabric::FabricParams{},
            {.num_nodes = 20, .cores_per_node = 2}),
        net(fab),
        mgr(dlm::make_lock_manager(scheme, net, 0)) {}
};

const std::vector<Scheme> kSchemes = {Scheme::kSrsl, Scheme::kDqnl,
                                      Scheme::kNcosed};

const std::vector<int> kWaiters = {1, 2, 4, 8, 16};
const std::vector<int> kContenders = {1, 4, 8};
const LockMode kModes[] = {LockMode::kExclusive, LockMode::kShared};

/// 20 uncontended lock+unlock round trips on node 1, each a trace::Request
/// so lock-wait shows up in the attribution; the mean is "roundtrip_us".
void roundtrip_scenario(obs::Scenario& s, Scheme scheme, LockMode mode) {
  World w(s.engine(), scheme);
  double us = 0;
  w.eng.spawn([](World& world, LockMode m, obs::Scenario& out,
                 double& mean_us) -> sim::Task<void> {
    constexpr int kIters = 20;
    const auto start = world.eng.now();
    for (int i = 0; i < kIters; ++i) {
      const auto t0 = world.eng.now();
      {
        trace::Request req("dlm.roundtrip", 1, static_cast<std::uint64_t>(i));
        co_await world.mgr->lock(1, 0, m);
        co_await world.mgr->unlock(1, 0);
      }
      out.latency_ns(static_cast<double>(world.eng.now() - t0));
    }
    mean_us = to_micros(world.eng.now() - start) / kIters;
  }(w, mode, s, us));
  w.eng.run();
  s.metric("roundtrip_us", us);
}

/// `nodes` contending nodes each run 60 exclusive lock+unlock pairs on one
/// hot lock; the aggregate rate is "kops_per_s".
void throughput_scenario(obs::Scenario& s, Scheme scheme, int nodes) {
  World w(s.engine(), scheme);
  int total_ops = 0;
  for (int n = 0; n < nodes; ++n) {
    w.eng.spawn([](World& world, fabric::NodeId self,
                   int& ops) -> sim::Task<void> {
      for (int i = 0; i < 60; ++i) {
        co_await world.mgr->lock_exclusive(self, 0);
        co_await world.mgr->unlock(self, 0);
        ++ops;
      }
    }(w, static_cast<fabric::NodeId>(1 + n), total_ops));
  }
  w.eng.run();
  s.metric("kops_per_s",
           static_cast<double>(total_ops) / to_secs(w.eng.now()) / 1000.0);
}

/// Figure 4's operations; each is counted as "<key>.one_sided_ops" and
/// "<key>.messages".
struct Fig4Step {
  const char* label;
  const char* key;
  sim::Task<void> (*action)(World&);
};
const Fig4Step kFig4Steps[] = {
    {"exclusive lock (free)", "exclusive_lock",
     [](World& w) -> sim::Task<void> { co_await w.mgr->lock_exclusive(1, 1); }},
    {"exclusive unlock (no successor)", "exclusive_unlock",
     [](World& w) -> sim::Task<void> { co_await w.mgr->unlock(1, 1); }},
    {"shared lock (free)", "shared_lock",
     [](World& w) -> sim::Task<void> { co_await w.mgr->lock_shared(1, 2); }},
    {"shared unlock", "shared_unlock",
     [](World& w) -> sim::Task<void> { co_await w.mgr->unlock(1, 2); }},
};

/// One N-CoSED world, scenario "fig4/N-CoSED": each step runs alone and
/// node 1's one-sided ops and messages are counted across it.
void print_fig4_op_counts(obs::Harness& h) {
  const auto m = h.run("fig4/N-CoSED", [](obs::Scenario& s) {
    World w(s.engine(), Scheme::kNcosed);
    for (const Fig4Step& step : kFig4Steps) {
      const auto ops0 = w.net.hca(1).one_sided_ops();
      const auto msg0 = w.net.hca(1).messages_sent();
      w.eng.spawn(step.action(w));
      w.eng.run();
      s.metric(std::string(step.key) + ".one_sided_ops",
               static_cast<double>(w.net.hca(1).one_sided_ops() - ops0));
      s.metric(std::string(step.key) + ".messages",
               static_cast<double>(w.net.hca(1).messages_sent() - msg0));
    }
  });
  Table table({"operation", "one-sided ops", "messages"});
  for (const Fig4Step& step : kFig4Steps) {
    const auto count = [&](const char* what) {
      return std::to_string(
          static_cast<std::uint64_t>(m.at(std::string(step.key) + what)));
    };
    table.add_row({step.label, count(".one_sided_ops"), count(".messages")});
  }
  table.print(
      "Figure 4 — N-CoSED uncontended wire-level op counts "
      "(paper: one CAS / one FAA, no messages)");
}

void print_op_latency_table(obs::Harness& h) {
  Table table({"scheme", "excl lock+unlock (us)", "shared lock+unlock (us)"});
  for (const Scheme scheme : kSchemes) {
    std::vector<double> row;
    for (const LockMode mode : kModes) {
      const bool shared = mode == LockMode::kShared;
      row.push_back(
          h.run(std::string("uncontended/") + (shared ? "shared/" : "") +
                    dlm::to_string(scheme),
                [=](obs::Scenario& s) { roundtrip_scenario(s, scheme, mode); })
              .at("roundtrip_us"));
    }
    table.add_row(dlm::to_string(scheme), row, 1);
  }
  table.print(
      "Uncontended lock+unlock round-trip latency "
      "(one-sided atomics vs server messaging)");
}

void print_throughput_table(obs::Harness& h) {
  Table table({"contending nodes", "SRSL kops/s", "DQNL kops/s",
               "N-CoSED kops/s"});
  for (const int nodes : kContenders) {
    std::vector<double> row;
    for (const Scheme scheme : kSchemes) {
      row.push_back(
          h.run("throughput/" + std::to_string(nodes) + "/" +
                    dlm::to_string(scheme),
                [=](obs::Scenario& s) {
                  throughput_scenario(s, scheme, nodes);
                })
              .at("kops_per_s"));
    }
    table.add_row(std::to_string(nodes), row, 1);
  }
  table.print(
      "Exclusive lock throughput under contention (kops/s, one hot lock)");
}

void print_fig5(obs::Harness& h, LockMode mode, const char* title) {
  const std::string prefix =
      mode == LockMode::kShared ? "cascade/shared/" : "cascade/exclusive/";
  Table table({"# waiting", "SRSL (us)", "DQNL (us)", "N-CoSED (us)"});
  for (const int n : kWaiters) {
    std::vector<double> row;
    for (const Scheme scheme : kSchemes) {
      row.push_back(
          h.run(prefix + std::to_string(n) + "/" + dlm::to_string(scheme),
                [=](obs::Scenario& s) {
                  World w(s.engine(), scheme);
                  s.metric("cascade_us",
                           scenarios::run_lock_cascade(w.eng, *w.mgr, mode, n)
                               .cascade_us());
                })
              .at("cascade_us"));
    }
    table.add_row(std::to_string(n), row, 1);
  }
  table.print(title);
}

}  // namespace

int main(int argc, char** argv) {
  obs::Harness h("dlm_cascade", Args(argc, argv));
  print_fig4_op_counts(h);
  print_op_latency_table(h);
  print_throughput_table(h);
  print_fig5(h, LockMode::kShared,
             "Figure 5a — shared-lock cascade latency after release "
             "(paper: N-CoSED up to ~317 % better than DQNL at 16)");
  print_fig5(h, LockMode::kExclusive,
             "Figure 5b — exclusive-lock cascade latency after release "
             "(paper: N-CoSED ~39 % better than SRSL)");
  return h.finish();
}
