// E5/E6 — Figure 6: data-center throughput (TPS) for the five caching
// schemes, with two proxies (6a) and eight proxies (6b), file sizes
// 8k/16k/32k/64k.
//
// Paper shape: all cooperative schemes beat AC; the redundancy-controlled
// schemes (CCWR/MTACC) beat BCC when the working set exceeds a single
// cache (up to ~35 % in the paper); HYBCC tracks the best scheme per file
// size; gaps are larger with fewer proxies (less aggregate memory).
#include "common/table.hpp"
#include "obs/harness.hpp"
#include "scenarios/scenarios.hpp"

namespace {

using namespace dcs;

const std::vector<cache::Scheme> kSchemes = {
    cache::Scheme::kAC, cache::Scheme::kBCC, cache::Scheme::kCCWR,
    cache::Scheme::kMTACC, cache::Scheme::kHYBCC};
const std::vector<std::size_t> kFileSizes = {8192, 16384, 32768, 65536};

/// One Figure 6 cell: closed-loop clients through `num_proxies` proxies.
void datacenter_scenario(obs::Scenario& s, cache::Scheme scheme,
                         std::size_t file_bytes, std::size_t num_proxies) {
  const scenarios::CoopSiteConfig config{
      .scheme = scheme, .proxies = num_proxies, .doc_bytes = file_bytes};
  const auto site = scenarios::run_coop_site(s.engine(), config);
  DCS_CHECK(site.completed == config.requests);
  DCS_CHECK(site.integrity_failures == 0);
  s.metric("tps", site.tps);
  s.metric("hit_rate", site.hit_rate);
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
  obs::Harness h("coopcache", Args(argc, argv));
  print_fig6(h, 2,
             "Figure 6a — data-center throughput (TPS), two proxy nodes "
             "(paper: advanced schemes up to ~35 % over BCC)");
  print_fig6(h, 8,
             "Figure 6b — data-center throughput (TPS), eight proxy nodes");
  return h.finish();
}
