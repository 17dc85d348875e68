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
//   dcs explain TIMESERIES.json --hotset HOT.json --exemplars EX.json
//   dcs flame   TRACE.json [--out profile.speedscope.json]
//   dcs params
//
// All numbers are deterministic virtual-time results.
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "audit/audit.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "dlm/ncosed.hpp"
#include "monitor/monitor.hpp"
#include "monitor/watchdog.hpp"
#include "obs/explain.hpp"
#include "obs/flags.hpp"
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

/// The `--key value` arguments of one command.  A command reads every
/// key it knows first and then calls reject_unread(), which exits 2 naming
/// the first positional, valueless or never-read argument, so a typo never
/// runs with a silently substituted default.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const bool flag = std::strncmp(argv[i], "--", 2) == 0;
      if (flag && i + 1 < argc) {
        args_.push_back({argv[i], argv[i + 1]});
        ++i;
      } else {
        args_.push_back({argv[i], std::nullopt});
      }
    }
  }
  /// Numeric values exit 2 with a message naming the flag when malformed
  /// or outside [min, max]; `max` is at most INT_MAX, so every caller's
  /// narrowing cast is exact.
  int num(const std::string& key, int fallback, int min = 0,
          int max = INT_MAX) const {
    const std::string* v = find(key);
    return v != nullptr
               ? static_cast<int>(obs::count_flag(
                     "--" + key, *v, static_cast<std::uint64_t>(min),
                     static_cast<std::uint64_t>(max)))
               : fallback;
  }
  double real(const std::string& key, double fallback,
              double min = -HUGE_VAL) const {
    const std::string* v = find(key);
    return v != nullptr ? obs::real_flag("--" + key, *v, min) : fallback;
  }
  /// The value of `--key` (the first name when absent); any name not in
  /// `names` exits 2 naming the flag.
  std::string one_of(const std::string& key,
                     std::initializer_list<std::string_view> names) const {
    const std::string* v = find(key);
    return v != nullptr ? std::string(obs::choice_flag("--" + key, *v, names))
                        : std::string(*names.begin());
  }
  std::string text(const std::string& key, const std::string& fallback) const {
    const std::string* v = find(key);
    return v != nullptr ? *v : fallback;
  }
  void reject_unread() const {
    for (const Arg& a : args_) {
      const char* problem = nullptr;
      if (!a.text.starts_with("--")) {
        problem = "unexpected argument";
      } else if (!a.value) {
        problem = "missing value for";
      } else if (!read_.contains(a.text.substr(2))) {
        problem = "unknown flag";
      }
      if (problem == nullptr) continue;
      std::fprintf(stderr, "dcs: %s '%s'\n", problem, a.text.c_str());
      std::exit(2);
    }
  }

 private:
  struct Arg {
    std::string text;  // as typed, e.g. "--waiters"
    std::optional<std::string> value;
  };
  /// The last value given for `--key`; marks the key as read.
  const std::string* find(const std::string& key) const {
    read_.insert(key);
    for (auto it = args_.rbegin(); it != args_.rend(); ++it) {
      if (it->value && it->text == "--" + key) return &*it->value;
    }
    return nullptr;
  }

  std::vector<Arg> args_;
  mutable std::set<std::string> read_;
};

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

int cmd_cache(const Args& args, const obs::HarnessOptions& flags) {
  const std::string scheme_name =
      args.one_of("scheme", {"HYBCC", "AC", "BCC", "CCWR", "MTACC"});
  cache::Scheme scheme = cache::Scheme::kHYBCC;
  for (const auto s : {cache::Scheme::kAC, cache::Scheme::kBCC,
                       cache::Scheme::kCCWR, cache::Scheme::kMTACC,
                       cache::Scheme::kHYBCC}) {
    if (scheme_name == cache::to_string(s)) scheme = s;
  }
  // The site's fabric has `proxies + 6` nodes.
  const auto proxies_n =
      static_cast<std::size_t>(args.num("proxies", 2, 1, kMaxNodes - 6));
  const int ws_mb = args.num("ws-mb", 12, 1, INT_MAX / 1024);
  // At least one document must fit in the working set.
  const std::size_t file_bytes =
      static_cast<std::size_t>(args.num("file-kb", 16, 1, ws_mb * 1024)) *
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
  const double alpha = args.real("alpha", 0.75, 0.0);
  const auto requests =
      static_cast<std::size_t>(args.num("requests", 3000, 1));
  const std::size_t cache_mb =
      static_cast<std::size_t>(args.num("cache-mb", 4));
  args.reject_unread();

  int rc = 0;
  obs::Harness h("dcs_cache", flags);
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

int cmd_locks(const Args& args, const obs::HarnessOptions& flags) {
  const std::string scheme_name =
      args.one_of("scheme", {"ncosed", "srsl", "dqnl"});
  const auto scheme = scheme_name == "srsl"   ? dlm::Scheme::kSrsl
                      : scheme_name == "dqnl" ? dlm::Scheme::kDqnl
                                              : dlm::Scheme::kNcosed;
  // The run's fabric has `waiters + 4` nodes.
  const int waiters = args.num("waiters", 8, 1, kMaxNodes - 4);
  const std::string mode_name = args.one_of("mode", {"shared", "exclusive"});
  const auto mode = mode_name == "shared" ? dlm::LockMode::kShared
                                          : dlm::LockMode::kExclusive;
  args.reject_unread();

  obs::Harness h("dcs_locks", flags);
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

int cmd_monitor(const Args& args, const obs::HarnessOptions& flags) {
  const std::string scheme_name =
      args.one_of("scheme", {"rdma-sync", "socket-sync", "socket-async",
                             "rdma-async", "e-rdma-sync"});
  monitor::MonScheme scheme = monitor::MonScheme::kRdmaSync;
  if (scheme_name == "socket-sync") scheme = monitor::MonScheme::kSocketSync;
  if (scheme_name == "socket-async") scheme = monitor::MonScheme::kSocketAsync;
  if (scheme_name == "rdma-async") scheme = monitor::MonScheme::kRdmaAsync;
  if (scheme_name == "e-rdma-sync") scheme = monitor::MonScheme::kERdmaSync;
  const int jobs = args.num("jobs", 4, 0, kMaxJobs);
  args.reject_unread();

  obs::Harness h("dcs_monitor", flags);
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

int cmd_storm(const Args& args, const obs::HarnessOptions& flags) {
  const auto records = static_cast<std::uint64_t>(args.num("records", 100000));
  const auto plane = args.one_of("plane", {"ddss", "sockets"}) == "ddss"
                         ? storm::ControlPlane::kDdss
                         : storm::ControlPlane::kSockets;
  args.reject_unread();

  obs::Harness h("dcs_storm", flags);
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
      args.one_of("scenario", {"stall", "deadline", "violation"});
  // The run's fabric has `waiters + 2` nodes.
  const int waiters = args.num("waiters", 3, 0, kMaxNodes - 2);
  trace::FlightConfig fc;
  fc.ring_capacity = static_cast<std::size_t>(args.num("ring", 128));
  fc.postmortem_dir = args.text("postmortem-dir", ".");
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

int cmd_inspect(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: dcs inspect FILE [--node N] [--layer L] "
                 "[--request R] [--from NS] [--to NS] [--timeline R] "
                 "[--top N] [--diff FILE] [--self-check]\n");
    return 2;
  }
  const std::string file = argv[2];
  trace::inspect::Options opts;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "inspect: %s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--self-check") {
      opts.self_check = true;
    } else if (flag == "--node") {
      opts.node = static_cast<std::uint32_t>(
          obs::count_flag(flag, value(), 0, UINT32_MAX));
    } else if (flag == "--layer") {
      opts.layer = value();
    } else if (flag == "--request") {
      opts.request = obs::count_flag(flag, value());
    } else if (flag == "--from") {
      opts.from_ns = obs::count_flag(flag, value());
    } else if (flag == "--to") {
      opts.to_ns = obs::count_flag(flag, value());
    } else if (flag == "--timeline") {
      opts.timeline = obs::count_flag(flag, value());
    } else if (flag == "--top") {
      opts.top = static_cast<std::size_t>(obs::count_flag(flag, value()));
    } else if (flag == "--diff") {
      opts.diff_path = value();
    } else {
      std::fprintf(stderr, "inspect: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  return trace::inspect::run(file, opts, std::cout, std::cerr);
}

// --- top/flame: offline views over timeseries dumps and trace JSON ---

int cmd_top(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: dcs top TIMESERIES.json [--self-check] [--node N] "
                 "[--windows W]\n");
    return 2;
  }
  const std::string file = argv[2];
  obs::TopOptions opts;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "top: %s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--self-check") {
      opts.self_check = true;
    } else if (flag == "--node") {
      opts.node = static_cast<std::uint32_t>(
          obs::count_flag(flag, value(), 0, UINT32_MAX));
    } else if (flag == "--windows") {
      opts.windows =
          static_cast<std::size_t>(obs::count_flag(flag, value()));
    } else {
      std::fprintf(stderr, "top: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  return obs::run_top(file, opts, std::cout, std::cerr);
}

int cmd_explain(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: dcs explain TIMESERIES.json [--hotset FILE] "
                 "[--exemplars FILE] [--postmortem FILE] [--top N] "
                 "[--self-check]\n");
    return 2;
  }
  const std::string file = argv[2];
  obs::ExplainOptions opts;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "explain: %s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--self-check") {
      opts.self_check = true;
    } else if (flag == "--hotset") {
      opts.hotset = value();
    } else if (flag == "--exemplars") {
      opts.exemplars = value();
    } else if (flag == "--postmortem") {
      opts.postmortem = value();
    } else if (flag == "--top") {
      opts.top = static_cast<std::size_t>(obs::count_flag(flag, value()));
    } else {
      std::fprintf(stderr, "explain: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  return obs::run_explain(file, opts, std::cout, std::cerr);
}

int cmd_flame(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: dcs flame TRACE.json [--out PROFILE.json]\n");
    return 2;
  }
  const std::string file = argv[2];
  std::string out_path;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "flame: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
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
  std::printf(
      "usage: dcs <command> [--flag value ...]\n\n"
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
      "  explain FILE [--hotset FILE] [--exemplars FILE]\n"
      "          [--postmortem FILE] [--top N] [--self-check]\n"
      "          breach attribution: firing rules -> hot keys ->\n"
      "          tail exemplars, from the byte-stable dumps\n"
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
      "  --timeseries-out FILE write a dcs-timeseries-v1 dump of the run\n"
      "  --slo FILE            evaluate SLO rules; alert stream to stderr\n"
      "  --hotset-out FILE     write the dcs-hotset-v1 hot-key dump\n"
      "  --exemplars-out FILE  write the dcs-exemplar-v1 tail exemplars\n"
      "  --hot-keys N          print the top-N hot keys per domain\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  if (cmd == "inspect") return cmd_inspect(argc, argv);
  if (cmd == "top") return cmd_top(argc, argv);
  if (cmd == "explain") return cmd_explain(argc, argv);
  if (cmd == "flame") return cmd_flame(argc, argv);
  // Only the run commands observe a run, so only they take the
  // observability flags; to params and wedge those are unknown arguments.
  const bool observed =
      cmd == "cache" || cmd == "locks" || cmd == "monitor" || cmd == "storm";
  obs::HarnessOptions flags;
  if (observed) flags = obs::extract_harness_flags(argc, argv);
  const Args args(argc, argv);
  if (cmd == "params") return cmd_params(args);
  if (cmd == "cache") return cmd_cache(args, flags);
  if (cmd == "locks") return cmd_locks(args, flags);
  if (cmd == "monitor") return cmd_monitor(args, flags);
  if (cmd == "storm") return cmd_storm(args, flags);
  if (cmd == "wedge") return cmd_wedge(args);
  usage();
  return 1;
}
