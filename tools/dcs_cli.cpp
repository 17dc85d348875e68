// dcs — scenario driver and offline debugger.
//
// Runs parameterizable versions of the repository's experiments without
// recompiling, e.g.:
//
//   dcs cache   --scheme HYBCC --proxies 4 --file-kb 32 --alpha 0.9
//   dcs locks   --scheme ncosed --waiters 12 --mode shared
//   dcs monitor --scheme rdma-sync --jobs 6
//   dcs storm   --records 250000 --plane ddss
//   dcs wedge   --scenario stall|deadline|violation --postmortem-dir pm
//   dcs inspect pm/dcs_wedge_stall.engine-stall.1.postmortem.json --timeline 2
//   dcs top     TIMESERIES.json [--self-check] [--node N] [--windows W]
//   dcs explain TIMESERIES.json [--postmortem PM.json] [--top N]
//   dcs flame   TRACE.json [--out profile.speedscope.json]
//   dcs params
//
// Every command reads its arguments through the one argument reader
// (common/args.hpp): `--flag value` or `--flag=value`, the last occurrence
// wins, and anything the command does not read exits 2.  All numbers are
// deterministic virtual-time results.
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "audit/audit.hpp"
#include "common/args.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "dlm/ncosed.hpp"
#include "monitor/monitor.hpp"
#include "monitor/watchdog.hpp"
#include "obs/explain.hpp"
#include "obs/flame.hpp"
#include "obs/harness.hpp"
#include "obs/top.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/sync.hpp"
#include "trace/flight.hpp"
#include "trace/inspect.hpp"

using namespace dcs;

namespace {

/// The largest fabric a run command builds: the 1024 nodes of the largest
/// bench fabric (`bench_datacenter_scale --nodes=1024`).
constexpr int kMaxNodes = 1024;
/// `dcs monitor --jobs`: at most this many busy jobs on the probed node.
constexpr int kMaxJobs = 1024;

int cmd_params(const Args& args) {
  args.reject_unread();
  const fabric::FabricParams p;
  Table t({"parameter", "value"});
  t.add_row({"link latency", std::to_string(p.link_latency) + " ns"});
  t.add_row({"wire rate", fmt_fixed(p.wire_bytes_per_ns, 2) + " B/ns"});
  t.add_row({"RDMA post/target/completion",
             std::to_string(p.rdma_post_overhead) + "/" +
                 std::to_string(p.rdma_target_nic) + "/" +
                 std::to_string(p.rdma_completion) + " ns"});
  t.add_row({"atomic execute", std::to_string(p.atomic_execute) + " ns"});
  t.add_row({"TCP per-message CPU",
             std::to_string(p.tcp_per_message_cpu / 1000) + " us/side"});
  t.add_row({"interrupt latency",
             std::to_string(p.tcp_interrupt_latency / 1000) + " us"});
  t.add_row({"memcpy rate", fmt_fixed(p.tcp_copy_bytes_per_ns, 2) + " B/ns"});
  t.add_row({"scheduler quantum",
             std::to_string(p.sched_quantum / 1000000) + " ms"});
  t.add_row({"op timeout", std::to_string(p.op_timeout / 1000) + " us"});
  t.print("fabric cost model (FabricParams defaults)");
  return 0;
}

int cmd_cache(const Args& args) {
  const std::string scheme_name =
      args.choice("--scheme", {"HYBCC", "AC", "BCC", "CCWR", "MTACC"});
  cache::Scheme scheme = cache::Scheme::kHYBCC;
  for (const auto s : {cache::Scheme::kAC, cache::Scheme::kBCC,
                       cache::Scheme::kCCWR, cache::Scheme::kMTACC,
                       cache::Scheme::kHYBCC}) {
    if (scheme_name == cache::to_string(s)) scheme = s;
  }
  // The site's fabric has `proxies + 6` nodes.
  const std::size_t proxies_n =
      args.count<std::size_t>("--proxies", 1, kMaxNodes - 6).value_or(2);
  const int ws_mb = args.count<int>("--ws-mb", 1, INT_MAX / 1024).value_or(12);
  // At least one document must fit in the working set.
  const std::size_t file_bytes =
      args.count<std::size_t>("--file-kb", 1, ws_mb * 1024).value_or(16) *
      1024;
  // The Zipf trace keeps a CDF and a permutation entry per document.
  constexpr std::size_t kMaxDocs = std::size_t{1} << 24;
  const std::size_t ws_bytes = static_cast<std::size_t>(ws_mb) << 20;
  const std::size_t num_docs = ws_bytes / file_bytes;
  if (num_docs > kMaxDocs) {
    std::fprintf(stderr,
                 "--ws-mb: expected at most %zu documents of %zu KB, got "
                 "%zu\n",
                 kMaxDocs, file_bytes / 1024, num_docs);
    std::exit(2);
  }
  const double alpha = args.real("--alpha", 0.75, 0.0);
  const std::size_t requests =
      args.count<std::size_t>("--requests", 1, INT_MAX).value_or(3000);
  const std::size_t cache_mb =
      args.count<std::size_t>("--cache-mb", 0, INT_MAX).value_or(4);

  int rc = 0;
  obs::Harness h("dcs_cache", args);
  h.run("run", [&](obs::Scenario& s) {
    const auto site = scenarios::run_coop_site(
        s.engine(), {.scheme = scheme,
                     .proxies = proxies_n,
                     .doc_bytes = file_bytes,
                     .working_set_bytes = ws_bytes,
                     .cache_bytes_per_node = cache_mb << 20,
                     .alpha = alpha,
                     .requests = requests,
                     .trace_seed = 42});
    Table t({"metric", "value"});
    t.add_row({"scheme", cache::to_string(scheme)});
    t.add_row({"throughput", fmt_fixed(site.tps, 0) + " TPS"});
    t.add_row({"mean latency", fmt_fixed(site.mean_latency_us, 0) + " us"});
    t.add_row({"hit rate", fmt_fixed(100 * site.hit_rate, 1) + " %"});
    t.add_row({"integrity failures",
               std::to_string(site.integrity_failures)});
    t.add_row({"audit", site.audit.empty() ? "clean" : site.audit});
    t.print("cooperative cache run (" + std::to_string(proxies_n) +
            " proxies, " + std::to_string(file_bytes / 1024) + " KB docs, a=" +
            fmt_fixed(alpha, 2) + ")");
    rc = site.audit.empty() ? 0 : 1;  // a failed invariant audit fails the run
  });
  return std::max(rc, h.finish());
}

int cmd_locks(const Args& args) {
  const std::string scheme_name =
      args.choice("--scheme", {"ncosed", "srsl", "dqnl"});
  const auto scheme = scheme_name == "srsl"   ? dlm::Scheme::kSrsl
                      : scheme_name == "dqnl" ? dlm::Scheme::kDqnl
                                              : dlm::Scheme::kNcosed;
  // The run's fabric has `waiters + 4` nodes.
  const int waiters =
      args.count<int>("--waiters", 1, kMaxNodes - 4).value_or(8);
  const std::string mode_name = args.choice("--mode", {"shared", "exclusive"});
  const auto mode = mode_name == "shared" ? dlm::LockMode::kShared
                                          : dlm::LockMode::kExclusive;

  obs::Harness h("dcs_locks", args);
  h.run("run", [&](obs::Scenario& s) {
    fabric::Fabric fab(s.engine(), fabric::FabricParams{},
                       {.num_nodes = static_cast<std::size_t>(waiters + 4),
                        .cores_per_node = 2});
    verbs::Network net(fab);
    const auto mgr = dlm::make_lock_manager(scheme, net, 0);
    const auto cascade =
        scenarios::run_lock_cascade(s.engine(), *mgr, mode, waiters);

    Table t({"metric", "value"});
    t.add_row({"scheme", mgr->name()});
    t.add_row({"mode", mode_name});
    t.add_row({"waiters", std::to_string(waiters)});
    t.add_row({"cascade latency", fmt_fixed(cascade.cascade_us(), 1) + " us"});
    t.print("lock cascade run");
  });
  return h.finish();
}

int cmd_monitor(const Args& args) {
  const std::string scheme_name =
      args.choice("--scheme", {"rdma-sync", "socket-sync", "socket-async",
                               "rdma-async", "e-rdma-sync"});
  monitor::MonScheme scheme = monitor::MonScheme::kRdmaSync;
  if (scheme_name == "socket-sync") scheme = monitor::MonScheme::kSocketSync;
  if (scheme_name == "socket-async") scheme = monitor::MonScheme::kSocketAsync;
  if (scheme_name == "rdma-async") scheme = monitor::MonScheme::kRdmaAsync;
  if (scheme_name == "e-rdma-sync") scheme = monitor::MonScheme::kERdmaSync;
  const int jobs = args.count<int>("--jobs", 0, kMaxJobs).value_or(4);

  obs::Harness h("dcs_monitor", args);
  h.run("run", [&](obs::Scenario& s) {
    sim::Engine& eng = s.engine();
    fabric::Fabric fab(eng, fabric::FabricParams{},
                       {.num_nodes = 2, .cores_per_node = 1});
    verbs::Network net(fab);
    sockets::TcpNetwork tcp(fab);
    monitor::ResourceMonitor mon(net, tcp, 0, {1}, scheme);
    mon.start();
    for (int j = 0; j < jobs; ++j) eng.spawn(fab.node(1).execute(seconds(1)));

    SimNanos latency = 0;
    std::uint64_t reported = 0;
    eng.spawn([](sim::Engine& e, monitor::ResourceMonitor& m, SimNanos& lat,
                 std::uint64_t& rep) -> sim::Task<void> {
      co_await e.delay(milliseconds(50));
      const auto t0 = e.now();
      monitor::Sample sample;
      {
        trace::Request req("monitor.query", 0, 1);
        sample = co_await m.query(1);
      }
      lat = e.now() - t0;
      rep = sample.stats.runnable;
    }(eng, mon, latency, reported));
    eng.run_until(milliseconds(200));

    Table t({"metric", "value"});
    t.add_row({"scheme", monitor::to_string(scheme)});
    t.add_row({"actual runnable", std::to_string(jobs)});
    t.add_row({"reported runnable", std::to_string(reported)});
    t.add_row({"query latency", fmt_fixed(to_micros(latency), 1) + " us"});
    t.add_row({"target CPU consumed by monitoring",
               std::to_string(fab.node(1).busy_ns()) + " ns (incl. load)"});
    t.print("resource monitor probe");
  });
  return h.finish();
}

int cmd_storm(const Args& args) {
  const std::uint64_t records =
      args.count<std::uint64_t>("--records", 0, INT_MAX).value_or(100000);
  const auto plane = args.choice("--plane", {"ddss", "sockets"}) == "ddss"
                         ? storm::ControlPlane::kDdss
                         : storm::ControlPlane::kSockets;

  obs::Harness h("dcs_storm", args);
  h.run("run", [&](obs::Scenario& s) {
    scenarios::StormSite site(s.engine(), plane);
    storm::QueryResult result;
    site.eng.spawn([](storm::StormCluster& c, std::uint64_t n,
                      storm::QueryResult& out) -> sim::Task<void> {
      trace::Request req("storm.query", 0, n);
      out = co_await c.run_query(n);
    }(site.cluster, records, result));
    site.eng.run();

    Table t({"metric", "value"});
    t.add_row({"control plane", storm::to_string(plane)});
    t.add_row({"records scanned", std::to_string(result.records_scanned)});
    t.add_row({"records returned", std::to_string(result.records_returned)});
    t.add_row({"control-plane ops", std::to_string(result.control_ops)});
    t.add_row({"query time", fmt_fixed(to_millis(result.elapsed), 2) + " ms"});
    t.print("STORM query run");
  });
  return h.finish();
}

// --- wedge: seeded failure scenarios that trip the flight recorder ---

/// A holder node takes the N-CoSED exclusive lock and parks forever on an
/// event nobody sets; every waiter queues behind it in the protocol's
/// fully-parked wait (no timers).  Depending on --scenario, the wedge is
/// witnessed by the engine stall detector, the load-adjusted deadline
/// watchdog, or (violation) a seeded use-after-deregister under
/// OnViolation::kPostmortem.  Each run writes deterministic
/// dcs-postmortem-v1 dumps for `dcs inspect`; a dump that cannot be written
/// fails the run.
int cmd_wedge(const Args& args) {
  const std::string scenario =
      args.choice("--scenario", {"stall", "deadline", "violation"});
  // The run's fabric has `waiters + 2` nodes.
  const int waiters =
      args.count<int>("--waiters", 0, kMaxNodes - 2).value_or(3);
  trace::FlightConfig fc;
  fc.ring_capacity =
      args.count<std::size_t>("--ring", 0, INT_MAX).value_or(128);
  fc.postmortem_dir = args.text("--postmortem-dir", ".");
  fc.prefix = "dcs_wedge_" + scenario;
  args.reject_unread();

  sim::Engine eng;
  trace::FlightRecorder flight(eng, fc);
  flight.install();

  audit::Auditor auditor(
      eng, {.on_violation = audit::OnViolation::kPostmortem});
  if (scenario == "violation") auditor.install();

  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = static_cast<std::size_t>(waiters + 2),
                      .cores_per_node = 2});
  verbs::Network net(fab);
  sockets::TcpNetwork tcp(fab);

  if (scenario == "violation") {
    // Use-after-deregister: node 2 reads through an rkey node 1 tore down.
    eng.spawn([](verbs::Network& n) -> sim::Task<void> {
      trace::Request req("wedge.stale_read", 2, 1);
      auto region = n.hca(1).allocate_region(64);
      std::byte buf[8];
      co_await n.hca(2).read(region, 0, buf);
      n.hca(1).free_region(region);
      co_await n.hca(2).read(region, 0, buf);  // faults: tombstoned rkey
    }(net));
    try {
      eng.run();
    } catch (const audit::AuditError& e) {
      std::printf("wedge: audit violation captured: %s\n", e.what());
    }
  } else {
    dlm::NcosedLockManager mgr(net, 0);
    sim::Event never(eng);
    eng.spawn([](sim::Engine& e, dlm::LockManager& m,
                 sim::Event& park) -> sim::Task<void> {
      trace::Request req("wedge.hold", 1, 1);
      co_await m.lock(1, 0, dlm::LockMode::kExclusive);
      DCS_LOG("wedge", "holder.parked", 1, 0);
      co_await park.wait();  // never set: the lock is never released
      co_await e.delay(0);
    }(eng, mgr, never));
    for (int i = 0; i < waiters; ++i) {
      const auto self = static_cast<fabric::NodeId>(2 + i);
      eng.spawn([](sim::Engine& e, dlm::LockManager& m,
                   fabric::NodeId node) -> sim::Task<void> {
        co_await e.delay(microseconds(10 * (node - 1)));
        trace::Request req("wedge.acquire", node, node);
        co_await m.lock(node, 0, dlm::LockMode::kExclusive);
      }(eng, mgr, self));
    }

    if (scenario == "deadline") {
      monitor::ResourceMonitor mon(net, tcp, 0, {1},
                                   monitor::MonScheme::kERdmaSync);
      mon.start();
      // Background load on the holder's node so the watchdog's deadline is
      // genuinely load-adjusted, not a fixed constant.
      for (int j = 0; j < 2; ++j) {
        eng.spawn(fab.node(1).execute(milliseconds(200)));
      }
      monitor::DeadlineWatchdog watchdog(
          mon, flight,
          {.interval = milliseconds(5), .deadline = milliseconds(20)});
      eng.spawn(watchdog.run(milliseconds(200)));
      eng.run_until(milliseconds(200));
      std::printf("wedge: %llu watchdog sweeps, %llu deadline trips\n",
                  static_cast<unsigned long long>(watchdog.sweeps()),
                  static_cast<unsigned long long>(watchdog.trips()));
    } else {
      eng.run();  // drains with live roots -> stall detector trips
    }
  }

  std::printf("wedge[%s]: %llu trip(s), %zu in-flight request(s) at end\n",
              scenario.c_str(),
              static_cast<unsigned long long>(flight.trips()),
              flight.in_flight().size());
  for (const auto& path : flight.dump_paths()) {
    std::printf("  dump: %s\n", path.c_str());
  }
  return flight.trips() > 0 && flight.lost_dumps() == 0 ? 0 : 1;
}

// --- inspect: offline queries over dumps and trace JSON ---

/// The FILE positional of an offline command; without it, prints `usage`
/// and exits 2.
std::string input_file(const Args& args, const char* usage) {
  auto file = args.positional();
  if (!file) {
    std::fprintf(stderr, "usage: dcs %s\n", usage);
    std::exit(2);
  }
  return *file;
}

int cmd_inspect(const Args& args) {
  const std::string file = input_file(
      args,
      "inspect FILE [--node N] [--layer L] [--request R] [--from NS] "
      "[--to NS] [--timeline R] [--top N] [--diff FILE] [--self-check]");
  trace::inspect::Options opts;
  opts.self_check = args.given("--self-check");
  opts.node = args.count<std::uint32_t>("--node");
  opts.layer = args.text("--layer");
  opts.request = args.count<std::uint64_t>("--request");
  opts.from_ns = args.count<SimNanos>("--from");
  opts.to_ns = args.count<SimNanos>("--to");
  opts.timeline = args.count<std::uint64_t>("--timeline");
  opts.top = args.count<std::size_t>("--top").value_or(0);
  opts.diff_path = args.text("--diff");
  args.reject_unread();
  return trace::inspect::run(file, opts, std::cout, std::cerr);
}

// --- top/flame: offline views over timeseries dumps and trace JSON ---

int cmd_top(const Args& args) {
  const std::string file = input_file(
      args, "top TIMESERIES.json [--self-check] [--node N] [--windows W]");
  obs::TopOptions opts;
  opts.self_check = args.given("--self-check");
  opts.node = args.count<std::uint32_t>("--node");
  opts.windows = args.count<std::size_t>("--windows").value_or(opts.windows);
  args.reject_unread();
  return obs::run_top(file, opts, std::cout, std::cerr);
}

int cmd_explain(const Args& args) {
  const std::string file = input_file(
      args,
      "explain TIMESERIES.json [--postmortem FILE] [--top N] "
      "[--self-check]");
  obs::ExplainOptions opts;
  opts.self_check = args.given("--self-check");
  opts.postmortem = args.text("--postmortem");
  opts.top = args.count<std::size_t>("--top").value_or(opts.top);
  args.reject_unread();
  return obs::run_explain(file, opts, std::cout, std::cerr);
}

int cmd_flame(const Args& args) {
  const std::string file =
      input_file(args, "flame TRACE.json [--out PROFILE.json]");
  const std::string out_path = args.text("--out");
  args.reject_unread();
  if (out_path.empty()) return obs::run_flame(file, std::cout, std::cerr);
  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "flame: cannot open %s\n", out_path.c_str());
    return 2;
  }
  const int rc = obs::run_flame(file, os, std::cerr);
  if (rc == 0) std::fprintf(stderr, "flame: -> %s\n", out_path.c_str());
  return rc;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: dcs <command> [FILE] [--flag value | --flag=value ...]\n\n"
      "Every command reads one grammar: a flag takes `--flag value` or\n"
      "`--flag=value`, the last occurrence wins, --self-check is a bare\n"
      "switch, and any argument a command does not read exits 2.\n\n"
      "commands:\n"
      "  params                         dump the fabric cost model\n"
      "  cache   --scheme AC|BCC|CCWR|MTACC|HYBCC --proxies N --file-kb N\n"
      "          --alpha F --requests N --cache-mb N --ws-mb N\n"
      "  locks   --scheme srsl|dqnl|ncosed --waiters N --mode shared|exclusive\n"
      "  monitor --scheme socket-sync|socket-async|rdma-sync|rdma-async|"
      "e-rdma-sync --jobs N\n"
      "  storm   --plane sockets|ddss --records N\n"
      "  wedge   --scenario stall|deadline|violation --waiters N --ring N\n"
      "          [--postmortem-dir DIR]\n"
      "          (seeded wedged runs that trip the flight recorder)\n"
      "  inspect FILE [--node N] [--layer L] [--request R] [--from NS]\n"
      "          [--to NS] [--timeline R] [--top N] [--diff FILE]\n"
      "          [--self-check]   offline debugger over postmortem/trace "
      "JSON\n"
      "  top     FILE [--self-check] [--node N] [--windows W]\n"
      "          cluster health tables + firing alerts from a\n"
      "          dcs-timeseries-v1 dump\n"
      "  explain FILE [--postmortem FILE] [--top N] [--self-check]\n"
      "          breach attribution: firing rules -> hot keys ->\n"
      "          tail exemplars, from a dcs-timeseries-v1 document\n"
      "  flame   FILE [--out PROFILE.json]\n"
      "          span tree -> speedscope self-time profile from a\n"
      "          --trace-out Chrome trace\n\n"
      "observability (cache/locks/monitor/storm; the run is the one\n"
      "scenario \"run\" of the bench harness; wedge takes --postmortem-dir):\n"
      "  --trace-out FILE      write a Chrome trace_event JSON of the run\n"
      "  --metrics-out FILE    write the metrics registry dump of the run\n"
      "  --critical-path FILE  write the critical-path attribution report\n"
      "  --bench-json FILE     write a dcs-bench-v1 telemetry snapshot\n"
      "  --bench-wall-json FILE  write dcs-bench-wall-v1 wall telemetry\n"
      "  --postmortem-dir DIR  arm a flight recorder; trips dump there\n"
      "  --timeseries-out FILE write the run's dcs-timeseries-v1 health\n"
      "                        document: series, alerts, hot keys, exemplars\n"
      "  --slo FILE            evaluate SLO rules; alert stream to stderr\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The command is the first positional, the offline commands' FILE the
  // second.
  const Args args(argc, argv, {"--self-check"});
  const std::string cmd = args.positional().value_or("");
  if (cmd == "params") return cmd_params(args);
  if (cmd == "cache") return cmd_cache(args);
  if (cmd == "locks") return cmd_locks(args);
  if (cmd == "monitor") return cmd_monitor(args);
  if (cmd == "storm") return cmd_storm(args);
  if (cmd == "wedge") return cmd_wedge(args);
  if (cmd == "inspect") return cmd_inspect(args);
  if (cmd == "top") return cmd_top(args);
  if (cmd == "explain") return cmd_explain(args);
  if (cmd == "flame") return cmd_flame(args);
  if (!cmd.empty()) {
    std::fprintf(stderr, "dcs: unknown command '%s'\n", cmd.c_str());
  }
  usage();
  return 2;
}
