// E2 — Figure 3b: STORM vs STORM-DDSS query execution time vs record count.
//
// Paper shape: the DDSS control plane wins everywhere (~19 % reported);
// both curves grow with record count.
#include "common/json.hpp"
#include "common/table.hpp"
#include "obs/harness.hpp"
#include "scenarios/scenarios.hpp"

namespace {

using namespace dcs;

const std::vector<std::uint64_t> kRecordCounts = {1000, 10000, 100000,
                                                  1000000};

double query_time_ms(obs::Harness& h, storm::ControlPlane plane,
                     std::uint64_t records) {
  const std::string name = std::string("query/") + storm::to_string(plane) +
                           "/" + std::to_string(records);
  const auto m = h.run(name, [=](obs::Scenario& s) {
    scenarios::StormSite site(s.engine(), plane);
    s.metric("query_ms", to_millis(site.query(records).elapsed));
  });
  return m.at("query_ms");
}

void print_fig3b(obs::Harness& h) {
  Table table({"# records", "STORM (ms)", "STORM-DDSS (ms)", "improvement"});
  for (const auto records : kRecordCounts) {
    const double trad =
        query_time_ms(h, storm::ControlPlane::kSockets, records);
    const double ddss = query_time_ms(h, storm::ControlPlane::kDdss, records);
    const double improvement = 100.0 * (1.0 - ddss / trad);
    table.add_row({std::to_string(records), fmt_fixed(trad, 2),
                   fmt_fixed(ddss, 2), fmt_fixed(improvement, 1) + " %"});
  }
  table.print(
      "Figure 3b — STORM query execution time vs record count "
      "(paper: ~19 % improvement with DDSS)");
}

}  // namespace

int main(int argc, char** argv) {
  obs::Harness h("storm", Args(argc, argv));
  print_fig3b(h);
  return h.finish();
}
