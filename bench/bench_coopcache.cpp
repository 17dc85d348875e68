// E5/E6 — Figure 6: data-center throughput (TPS) for the five caching
// schemes, with two proxies (6a) and eight proxies (6b), file sizes
// 8k/16k/32k/64k.
//
// Paper shape: all cooperative schemes beat AC; the redundancy-controlled
// schemes (CCWR/MTACC) beat BCC when the working set exceeds a single
// cache (up to ~35 % in the paper); HYBCC tracks the best scheme per file
// size; gaps are larger with fewer proxies (less aggregate memory).
#include "cache/coop_cache.hpp"
#include "common/table.hpp"
#include "common/zipf.hpp"
#include "datacenter/clients.hpp"
#include "datacenter/webfarm.hpp"
#include "obs/harness.hpp"

namespace {

using namespace dcs;

constexpr std::size_t kWorkingSetBytes = 12u << 20;  // 12 MB
constexpr std::size_t kCachePerNode = 4u << 20;      // 4 MB
constexpr std::size_t kRequests = 4000;
constexpr double kAlpha = 0.75;

const std::vector<cache::Scheme> kSchemes = {
    cache::Scheme::kAC, cache::Scheme::kBCC, cache::Scheme::kCCWR,
    cache::Scheme::kMTACC, cache::Scheme::kHYBCC};
const std::vector<std::size_t> kFileSizes = {8192, 16384, 32768, 65536};

/// One Figure 6 cell: closed-loop clients through `num_proxies` proxies.
void datacenter_scenario(obs::Scenario& s, cache::Scheme scheme,
                         std::size_t file_bytes, std::size_t num_proxies) {
  // Layout: [0,1] clients, [2 .. 2+P) proxies, then 2 donors, 2 backends.
  const std::size_t total_nodes = 2 + num_proxies + 2 + 2;
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = total_nodes, .cores_per_node = 2,
                      .mem_per_node = 64u << 20});
  verbs::Network net(fab);
  sockets::TcpNetwork tcp(fab);

  std::vector<fabric::NodeId> clients = {0, 1};
  std::vector<fabric::NodeId> proxies, donors, backends;
  for (std::size_t i = 0; i < num_proxies; ++i) {
    proxies.push_back(static_cast<fabric::NodeId>(2 + i));
  }
  donors = {static_cast<fabric::NodeId>(2 + num_proxies),
            static_cast<fabric::NodeId>(3 + num_proxies)};
  backends = {static_cast<fabric::NodeId>(4 + num_proxies),
              static_cast<fabric::NodeId>(5 + num_proxies)};

  const std::size_t num_docs = kWorkingSetBytes / file_bytes;
  datacenter::DocumentStore store(
      {.num_docs = num_docs, .doc_bytes = file_bytes});
  datacenter::BackendService backend(tcp, store, backends);
  backend.start();

  cache::CoopCacheService coop(net, backend, store, scheme, proxies, donors,
                               {.capacity_per_node = kCachePerNode});
  datacenter::WebFarm farm(tcp, proxies, coop.handler());
  farm.start();

  datacenter::ClientFarm farm_clients(tcp, clients, proxies, store,
                                      {.sessions = 4 * num_proxies});
  ZipfTrace trace(num_docs, kAlpha, kRequests, 20260705);
  eng.spawn(farm_clients.run(
      {trace.requests().begin(), trace.requests().end()}));
  eng.run();

  DCS_CHECK(farm_clients.stats().completed == kRequests);
  DCS_CHECK(farm_clients.stats().integrity_failures == 0);
  s.metric("tps", farm_clients.stats().tps());
  s.metric("hit_rate", coop.stats().hit_rate());
}

void print_fig6(obs::Harness& h, std::size_t num_proxies, const char* title) {
  std::vector<std::string> header = {"file size"};
  for (const auto s : kSchemes) header.push_back(cache::to_string(s));
  Table tps_table(header);
  Table hit_table(header);
  for (const std::size_t size : kFileSizes) {
    std::vector<double> tps_row, hit_row;
    for (const auto scheme : kSchemes) {
      const std::string name = "fig6/" + std::to_string(num_proxies) + "p/" +
                               cache::to_string(scheme) + "/" +
                               std::to_string(size / 1024) + "k";
      const auto m = h.run(name, [=](obs::Scenario& s) {
        datacenter_scenario(s, scheme, size, num_proxies);
      });
      tps_row.push_back(m.at("tps"));
      hit_row.push_back(100.0 * m.at("hit_rate"));
    }
    tps_table.add_row(std::to_string(size / 1024) + "k", tps_row, 0);
    hit_table.add_row(std::to_string(size / 1024) + "k", hit_row, 1);
  }
  tps_table.print(title);
  hit_table.print("  └─ corresponding cache hit rates (%)");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::extract_harness_flags(argc, argv);
  obs::reject_unknown_args(argc, argv);
  obs::reject_unsupported("coopcache", opts.batch != 0, "--batch");
  obs::Harness h("coopcache", opts);
  print_fig6(h, 2,
             "Figure 6a — data-center throughput (TPS), two proxy nodes "
             "(paper: advanced schemes up to ~35 % over BCC)");
  print_fig6(h, 8,
             "Figure 6b — data-center throughput (TPS), eight proxy nodes");
  return h.finish();
}
