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

#include "common/json.hpp"
#include "common/table.hpp"
#include "common/zipf.hpp"
#include "datacenter/workload.hpp"
#include "monitor/monitor.hpp"
#include "obs/harness.hpp"
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
        // is armed (--timeseries-out via the bench harness).
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

/// Figure 8b from scenarios "<scheme>/a=<alpha>", one per scheme/alpha
/// pair, Socket-Async the baseline.  Each reports its TPS and records the
/// Zipf skew in the wall JSON (`zipf_alpha`), so regressions can be
/// compared at matched skew.  Under --timeseries-out the harness arms the
/// ambient hot sink and the dispatch-time DCS_HOT("monitor.doc", ...)
/// feeds the top-K sketch with document ranks.
///
/// `cores` > 1 is the --cores-per-node variant (a NEW experiment row; the
/// single-core Figure 8b is untouched), scenarios "<scheme>/a=<alpha>/
/// cores=<cores>": with per-node CPU headroom the sync socket query no
/// longer steals the only core serving requests, so Socket-Sync recovers
/// most of the gap to the RDMA schemes — which localizes the paper's
/// single-core penalty to CPU contention, not protocol latency.
void print_fig8b(obs::Harness& h, std::size_t cores) {
  const auto tps = [&h, cores](MonScheme scheme, double alpha) {
    std::string name =
        std::string(monitor::to_string(scheme)) + "/a=" + fmt_fixed(alpha, 2);
    if (cores > 1) name += "/cores=" + std::to_string(cores);
    return h.run(name, [=](obs::Scenario& s) {
              s.zipf_alpha(alpha);
              s.metric("tps", throughput_tps_on(s.engine(), scheme, alpha,
                                                cores));
            }).at("tps");
  };
  std::vector<std::string> header = {"scheme"};
  for (const double a : kAlphas) header.push_back("a=" + fmt_fixed(a, 2));
  Table table(header);
  std::vector<double> baseline;
  for (const double a : kAlphas) {
    baseline.push_back(tps(MonScheme::kSocketAsync, a));
  }
  {
    std::vector<std::string> row = {"Socket-Async (baseline TPS)"};
    for (const double b : baseline) row.push_back(fmt_fixed(b, 0));
    table.add_row(row);
  }
  for (const auto scheme : kSchemes) {
    std::vector<std::string> row = {std::string(monitor::to_string(scheme)) +
                                    " (% impr.)"};
    for (std::size_t i = 0; i < kAlphas.size(); ++i) {
      row.push_back(
          fmt_fixed(100.0 * (tps(scheme, kAlphas[i]) / baseline[i] - 1.0), 1));
    }
    table.add_row(row);
  }
  table.print(cores > 1
                  ? "Figure 8b variant — " + std::to_string(cores) +
                        " cores/node (Socket-Sync recovers with CPU headroom)"
                  : std::string("Figure 8b — throughput improvement over "
                                "Socket-Async vs Zipf alpha "
                                "(paper: ~35 % for RDMA-based schemes)"));
}

}  // namespace

int main(int argc, char** argv) {
  // --cores-per-node N adds the multi-core variant table.
  const Args args(argc, argv);
  const auto cores_variant =
      args.count<std::size_t>("--cores-per-node", 1).value_or(0);
  obs::Harness h("monitor_zipf", args);
  print_fig8b(h, 1);
  if (cores_variant > 1) print_fig8b(h, cores_variant);
  return h.finish();
}
