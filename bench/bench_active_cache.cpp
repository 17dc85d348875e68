// E18 — Section 3 / [12]: active caching of dynamic content with strong
// coherency.  A proxy serves dynamic pages composed of multiple backend
// dependencies while writers keep updating those dependencies.
//
// Paper claim: RDMA-based version validation gives strong coherency
// (zero stale responses) at close to cache-hit cost, where TTL-based
// invalidation must choose between staleness and recompute load.
#include "cache/active_cache.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/zipf.hpp"
#include "obs/harness.hpp"

namespace {

using namespace dcs;
using cache::ActiveCache;
using cache::DataObject;
using cache::DynamicPolicy;

/// 1200 Zipf page reads under `policy` while writers update a dependency
/// every `update_period`.
void policy_scenario(obs::Scenario& s, DynamicPolicy policy,
                     SimNanos update_period) {
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 4, .cores_per_node = 2,
                      .mem_per_node = 2u << 20});
  verbs::Network net(fab);
  ddss::Ddss substrate(net);
  substrate.start();

  // 8 data objects on nodes 2-3; 16 pages, 2-3 dependencies each.
  std::vector<std::unique_ptr<DataObject>> objects;
  eng.spawn([](ddss::Ddss& d,
               std::vector<std::unique_ptr<DataObject>>& objs)
                -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      auto client = d.client(static_cast<fabric::NodeId>(2 + i % 2));
      auto alloc = co_await client.allocate(64, ddss::Coherence::kVersion,
                                            ddss::Placement::kLocal);
      co_await client.put(alloc, std::vector<std::byte>(64, std::byte{1}));
      objs.push_back(std::make_unique<DataObject>(client, alloc));
    }
  }(substrate, objects));
  eng.run();

  ActiveCache cache(substrate, 1, policy, {.ttl = milliseconds(20)});
  Rng setup_rng(7);
  for (int p = 0; p < 16; ++p) {
    std::vector<const DataObject*> deps;
    const int ndeps = 2 + static_cast<int>(setup_rng.uniform(2));
    for (int d = 0; d < ndeps; ++d) {
      deps.push_back(objects[setup_rng.uniform(objects.size())].get());
    }
    cache.register_doc("page" + std::to_string(p), deps);
  }

  // Writers update random objects with the given period.
  eng.spawn([](sim::Engine& e,
               std::vector<std::unique_ptr<DataObject>>& objs,
               SimNanos period) -> sim::Task<void> {
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
      co_await e.delay(period);
      auto& obj = *objs[rng.uniform(objs.size())];
      co_await obj.update(std::vector<std::byte>(
          64, static_cast<std::byte>(i & 0xff)));
    }
  }(eng, objects, update_period));

  // Reader: Zipf over pages, continuous.
  RunningStat latency;
  eng.spawn([](sim::Engine& e, ActiveCache& c, RunningStat& lat)
                -> sim::Task<void> {
    Rng rng(13);
    ZipfSampler zipf(16, 0.8);
    for (int i = 0; i < 1200; ++i) {
      const auto t0 = e.now();
      (void)co_await c.serve("page" + std::to_string(zipf.sample(rng)));
      lat.add(to_micros(e.now() - t0));
      co_await e.delay(microseconds(150));
    }
  }(eng, cache, latency));
  eng.run();

  const auto& stats = cache.stats();
  const auto requests = static_cast<double>(stats.requests);
  s.metric("mean_latency_us", latency.mean());
  s.metric("stale_fraction",
           static_cast<double>(stats.stale_served) / requests);
  s.metric("recompute_fraction",
           static_cast<double>(stats.recomputed) / requests);
}

void print_table(obs::Harness& h) {
  Table table({"policy", "mean latency (us)", "stale responses",
               "recompute fraction"});
  const std::pair<DynamicPolicy, const char*> kPolicies[] = {
      {DynamicPolicy::kNoCache, "no-cache"},
      {DynamicPolicy::kTtl, "ttl"},
      {DynamicPolicy::kStrong, "strong"}};
  for (const auto& [policy, name] : kPolicies) {
    const auto m = h.run(std::string("policy/") + name,
                         [policy](obs::Scenario& s) {
                           policy_scenario(s, policy, milliseconds(2));
                         });
    table.add_row({to_string(policy), fmt_fixed(m.at("mean_latency_us"), 0),
                   fmt_fixed(100 * m.at("stale_fraction"), 1) + " %",
                   fmt_fixed(100 * m.at("recompute_fraction"), 1) + " %"});
  }
  table.print(
      "Section 3/[12] — dynamic-content caching with multiple dependencies "
      "(strong RDMA validation: zero staleness at near-hit cost)");
}

}  // namespace

int main(int argc, char** argv) {
  obs::Harness h("active_cache", Args(argc, argv));
  print_table(h);
  return h.finish();
}
