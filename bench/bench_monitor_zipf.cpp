// E8 — Figure 8b: data-center throughput improvement from monitor-driven
// load balancing, vs Zipf alpha, for Socket-Sync / RDMA-Async / RDMA-Sync /
// e-RDMA-Sync relative to the Socket-Async baseline.
//
// Workload: two hosted services — a Zipf-popularity document service
// (popular documents are cheap cache hits, unpopular ones cost app/db
// work) and a RUBiS-like auction mix.  Lower alpha = less locality = more
// heavy requests and more imbalance, which accurate fine-grained
// monitoring turns into throughput (paper: ~35 % improvement for the
// RDMA-based schemes).
#include <cstdio>
#include <string_view>

#include "common/table.hpp"
#include "common/zipf.hpp"
#include "datacenter/workload.hpp"
#include "harness.hpp"
#include "monitor/monitor.hpp"
#include "trace/hot.hpp"

namespace {

using namespace dcs;
using monitor::MonScheme;

constexpr std::size_t kNumDocs = 1000;
constexpr std::size_t kRequests = 1500;
constexpr std::size_t kSessions = 12;

const std::vector<double> kAlphas = {0.9, 0.75, 0.5, 0.25};
const std::vector<MonScheme> kSchemes = {
    MonScheme::kSocketSync, MonScheme::kRdmaAsync, MonScheme::kRdmaSync,
    MonScheme::kERdmaSync};

/// Marks a RUBiS request, which has no document rank to attribute.
constexpr std::size_t kNoDoc = ~std::size_t{0};

struct Request {
  SimNanos cpu;
  std::size_t reply_bytes;
  std::size_t doc = kNoDoc;  // Zipf document rank (kNoDoc for RUBiS ops)
};

std::vector<Request> make_mixed_trace(double alpha) {
  Rng rng(4242);
  ZipfSampler zipf(kNumDocs, alpha);
  const auto rubis = datacenter::make_rubis_trace(kRequests, 777);
  std::vector<Request> trace;
  trace.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (rng.chance(0.7)) {
      // Document service: popular ranks are cached (cheap); the tail costs
      // application work.
      const auto rank = zipf.sample(rng);
      const bool popular = rank < kNumDocs / 10;
      trace.push_back(Request{popular ? microseconds(150) : microseconds(1400),
                              16384, rank});
    } else {
      const auto& op = datacenter::rubis_mix()[rubis[i]];
      trace.push_back(Request{op.cpu, op.reply_bytes});
    }
  }
  return trace;
}

/// Runs the mixed trace on `eng` and returns its throughput (TPS).
double throughput_tps_on(sim::Engine& eng, MonScheme scheme, double alpha,
                         std::size_t cores_per_node) {
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 5, .cores_per_node = cores_per_node});
  verbs::Network net(fab);
  sockets::TcpNetwork tcp(fab);
  // Async intervals reflect each transport's sustainable granularity: a
  // socket push daemon burns target CPU per push (5 ms is already chatty
  // for 2006-era daemons), while RDMA polls are free for the target and
  // can run at millisecond granularity — the paper's core argument.
  const SimNanos interval = scheme == MonScheme::kRdmaAsync
                                ? milliseconds(1)
                                : milliseconds(5);
  monitor::ResourceMonitor mon(net, tcp, 0, {1, 2, 3, 4}, scheme,
                               {.async_interval = interval});
  mon.start();
  monitor::MonitoredDispatcher disp(net, mon);

  const auto trace = make_mixed_trace(alpha);
  SimNanos finished_at = 0;
  // Closed-loop sessions pull from a shared cursor.
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < kSessions; ++s) {
    eng.spawn([](sim::Engine& e, monitor::MonitoredDispatcher& d,
                 const std::vector<Request>& reqs, std::size_t& cur,
                 SimNanos& done) -> sim::Task<void> {
      co_await e.delay(milliseconds(1));
      while (cur < reqs.size()) {
        const Request r = reqs[cur++];
        // Attribute document heat at dispatch: a no-op unless a hot sink
        // is armed (--hotset-out / --hot-keys via the bench harness).
        if (r.doc != kNoDoc) DCS_HOT("monitor.doc", r.doc, 1);
        co_await d.dispatch(r.cpu, r.reply_bytes);
      }
      done = std::max(done, e.now());
    }(eng, disp, trace, cursor, finished_at));
  }
  eng.run_until(seconds(30));
  DCS_CHECK(disp.completed() == kRequests);
  return static_cast<double>(kRequests) /
         to_secs(finished_at - milliseconds(1));
}

double throughput_tps(MonScheme scheme, double alpha,
                      std::size_t cores_per_node = 1) {
  sim::Engine eng;
  return throughput_tps_on(eng, scheme, alpha, cores_per_node);
}

void print_fig8b() {
  std::vector<std::string> header = {"scheme"};
  for (const double a : kAlphas) header.push_back("a=" + Table::fmt(a, 2));
  Table table(header);
  std::vector<double> baseline;
  for (const double a : kAlphas) {
    baseline.push_back(throughput_tps(MonScheme::kSocketAsync, a));
  }
  {
    std::vector<std::string> row = {"Socket-Async (baseline TPS)"};
    for (const double b : baseline) row.push_back(Table::fmt(b, 0));
    table.add_row(row);
  }
  for (const auto scheme : kSchemes) {
    std::vector<std::string> row = {std::string(monitor::to_string(scheme)) +
                                    " (% impr.)"};
    for (std::size_t i = 0; i < kAlphas.size(); ++i) {
      const double tps = throughput_tps(scheme, kAlphas[i]);
      row.push_back(Table::fmt(100.0 * (tps / baseline[i] - 1.0), 1));
    }
    table.add_row(row);
  }
  table.print(
      "Figure 8b — throughput improvement over Socket-Async vs Zipf alpha "
      "(paper: ~35 % for RDMA-based schemes)");
}

/// --cores-per-node variant (a NEW experiment row, the single-core Figure
/// 8b above is untouched): with per-node CPU headroom the sync socket
/// query no longer steals the only core serving requests, so Socket-Sync
/// recovers most of the gap to the RDMA schemes — which localizes the
/// paper's single-core penalty to CPU contention, not protocol latency.
void print_cores_variant(std::size_t cores) {
  std::vector<std::string> header = {"scheme"};
  for (const double a : kAlphas) header.push_back("a=" + Table::fmt(a, 2));
  Table table(header);
  std::vector<double> baseline;
  for (const double a : kAlphas) {
    baseline.push_back(throughput_tps(MonScheme::kSocketAsync, a, cores));
  }
  {
    std::vector<std::string> row = {"Socket-Async (baseline TPS)"};
    for (const double b : baseline) row.push_back(Table::fmt(b, 0));
    table.add_row(row);
  }
  for (const auto scheme : kSchemes) {
    std::vector<std::string> row = {std::string(monitor::to_string(scheme)) +
                                    " (% impr.)"};
    for (std::size_t i = 0; i < kAlphas.size(); ++i) {
      const double tps = throughput_tps(scheme, kAlphas[i], cores);
      row.push_back(Table::fmt(100.0 * (tps / baseline[i] - 1.0), 1));
    }
    table.add_row(row);
  }
  table.print("Figure 8b variant — " + std::to_string(cores) +
              " cores/node (Socket-Sync recovers with CPU headroom)");
}

/// Harnessed scenarios (docs/BENCHMARKS.md): one scenario per
/// scheme/alpha pair reporting the TPS metric and recording the Zipf skew
/// in the wall JSON (`zipf_alpha`), so regressions can be compared at
/// matched skew.  Under --hotset-out / --hot-keys the harness arms the
/// ambient hot sink and the dispatch-time DCS_HOT("monitor.doc", ...)
/// feeds the top-K sketch with document ranks.
int run_harness(const obs::HarnessOptions& opts) {
  bench::Harness h("monitor_zipf", opts);
  for (const auto scheme : kSchemes) {
    for (const double alpha : kAlphas) {
      h.run(std::string(monitor::to_string(scheme)) + "/a=" +
                Table::fmt(alpha, 2),
            [&](bench::Scenario& s) {
              const double tps =
                  throughput_tps_on(s.engine(), scheme, alpha, 1);
              s.zipf_alpha(alpha);
              s.metric("tps", tps);
            });
    }
  }
  return h.finish();
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = obs::extract_harness_flags(argc, argv);
  // --cores-per-node=N adds the multi-core variant table; anything else
  // left after the harness flags is an error.
  constexpr std::string_view kCores = "--cores-per-node=";
  std::size_t cores_variant = 0;
  int rest = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with(kCores)) {
      cores_variant = obs::count_flag("--cores-per-node",
                                      arg.substr(kCores.size()), 1);
    } else {
      argv[rest++] = argv[i];
    }
  }
  obs::reject_unknown_args(rest, argv);
  if (flags.harness_mode()) return run_harness(flags);
  print_fig8b();
  if (cores_variant > 1) print_cores_variant(cores_variant);
  return 0;
}
