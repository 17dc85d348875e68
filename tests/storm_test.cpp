// Tests for the STORM-like query middleware: correctness of both control
// planes, scaling with record count, and the Figure 3b DDSS advantage.
#include <gtest/gtest.h>

#include <memory>

#include "storm/storm.hpp"

namespace dcs::storm {
namespace {

struct StormWorld {
  // Node 0: coordinator; 1: metadata; 2..4: data nodes.
  sim::Engine eng;
  fabric::Fabric fab;
  verbs::Network net;
  sockets::TcpNetwork tcp;
  StormCluster cluster;

  explicit StormWorld(ControlPlane plane, StormConfig config = {})
      : fab(eng, fabric::FabricParams{},
            {.num_nodes = 5, .cores_per_node = 2}),
        net(fab),
        tcp(fab),
        cluster(net, tcp, plane, 0, 1, {2, 3, 4}, config) {
    eng.spawn(cluster.start());
    eng.run();
  }

  QueryResult query(std::uint64_t records) {
    QueryResult result;
    eng.spawn([](StormCluster& c, std::uint64_t n, QueryResult& out)
                  -> sim::Task<void> {
      out = co_await c.run_query(n);
    }(cluster, records, result));
    eng.run();
    return result;
  }
};

class StormBothPlanes : public ::testing::TestWithParam<ControlPlane> {};

TEST_P(StormBothPlanes, QueryScansAllRecords) {
  StormWorld w(GetParam());
  const auto result = w.query(30000);
  EXPECT_EQ(result.records_scanned, 30000u);
  EXPECT_GT(result.records_returned, 0u);
  EXPECT_GT(result.elapsed, 0u);
  EXPECT_GT(result.control_ops, 3u);
}

TEST_P(StormBothPlanes, SelectivityBoundsResults) {
  StormWorld w(GetParam());
  const auto result = w.query(30000);
  // ~2% selectivity, with a little per-batch rounding headroom.
  EXPECT_GE(result.records_returned, 30000u * 2 / 100 / 2);
  EXPECT_LE(result.records_returned, 30000u * 2 / 100 + 60);
}

TEST_P(StormBothPlanes, TimeGrowsWithRecords) {
  StormWorld w(GetParam());
  const auto small = w.query(10000);
  const auto large = w.query(100000);
  EXPECT_GT(large.elapsed, 3 * small.elapsed);
}

TEST_P(StormBothPlanes, BackToBackQueriesWork) {
  StormWorld w(GetParam());
  // A query's data connections close after the final batch; only the
  // sockets plane's cached metadata connections (coordinator + 3 data
  // nodes) stay open.
  const std::size_t cached = GetParam() == ControlPlane::kSockets ? 4 : 0;
  for (int i = 0; i < 3; ++i) {
    const auto r = w.query(5000);
    EXPECT_EQ(r.records_scanned, 5000u);
    EXPECT_EQ(w.tcp.connection_count(), cached) << "after query " << i;
  }
}

TEST_P(StormBothPlanes, FewerRecordsThanDataNodesComplete) {
  // 0 and 2 records over 3 data nodes leave some partitions empty; each
  // still ends its stream with a final empty batch, so the query completes.
  StormWorld w(GetParam());
  const std::size_t cached = GetParam() == ControlPlane::kSockets ? 4 : 0;
  for (const std::uint64_t records : {2u, 0u}) {
    const auto r = w.query(records);
    EXPECT_EQ(r.records_scanned, records) << records << " records";
    EXPECT_GT(r.elapsed, 0u) << records << " records";
    EXPECT_EQ(w.tcp.connection_count(), cached) << records << " records";
  }
}

INSTANTIATE_TEST_SUITE_P(Planes, StormBothPlanes,
                         ::testing::Values(ControlPlane::kSockets,
                                           ControlPlane::kDdss),
                         [](const auto& param_info) {
                           std::string name = to_string(param_info.param);
                           std::erase_if(name, [](char c) {
                             return !std::isalnum(c);
                           });
                           return name;
                         });

TEST(StormComparisonTest, DdssControlPlaneFaster) {
  // Figure 3b: same data plane, cheaper shared-state path -> faster query.
  for (const std::uint64_t records : {5000u, 50000u}) {
    StormWorld sockets_w(ControlPlane::kSockets);
    StormWorld ddss_w(ControlPlane::kDdss);
    const auto trad = sockets_w.query(records);
    const auto ddss = ddss_w.query(records);
    EXPECT_LT(ddss.elapsed, trad.elapsed) << records << " records";
  }
}

TEST(StormComparisonTest, ImprovementInPaperBallpark) {
  // The paper reports ~19 % improvement; accept a generous 5-60 % band.
  StormWorld sockets_w(ControlPlane::kSockets);
  StormWorld ddss_w(ControlPlane::kDdss);
  const auto trad = sockets_w.query(100000);
  const auto ddss = ddss_w.query(100000);
  const double improvement =
      100.0 * (1.0 - static_cast<double>(ddss.elapsed) /
                         static_cast<double>(trad.elapsed));
  EXPECT_GT(improvement, 5.0);
  EXPECT_LT(improvement, 60.0);
}

}  // namespace
}  // namespace dcs::storm
