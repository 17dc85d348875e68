// Flight recorder and post-mortem capture: ring wraparound, disarmed
// cost, trip conditions (engine stall, deadline watchdog, audit
// violation), byte-identical same-seed dumps, and the `dcs inspect`
// offline queries over the dumps they produce.
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.hpp"
#include "dlm/ncosed.hpp"
#include "monitor/watchdog.hpp"
#include "sim/sync.hpp"
#include "trace/flight.hpp"
#include "trace/inspect.hpp"
#include "trace/trace.hpp"
#include "verbs/verbs.hpp"

namespace dcs::trace {
namespace {

using fabric::NodeId;

// --- ring mechanics ---

TEST(FlightRecorderTest, RingWraparoundRetainsNewestOldestFirst) {
  sim::Engine eng;
  FlightRecorder fr(eng, {.ring_capacity = 4});
  fr.install();
  for (std::uint64_t i = 0; i < 10; ++i) {
    DCS_LOG("test", "tick", 1, i, 2 * i);
  }
  EXPECT_EQ(fr.total_records(1), 10u);
  const auto recs = fr.records(1);
  ASSERT_EQ(recs.size(), 4u);
  // Records 6..9 survive, oldest first, both arguments intact.
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].a0, 6 + i);
    EXPECT_EQ(recs[i].a1, 2 * (6 + i));
    EXPECT_STREQ(recs[i].layer, "test");
    EXPECT_STREQ(recs[i].opcode, "tick");
    EXPECT_EQ(recs[i].kind, 'L');
  }
  EXPECT_EQ(fr.nodes(), std::vector<std::uint32_t>{1});
  fr.uninstall();
}

TEST(FlightRecorderTest, NotInstalledRecordsNothing) {
  sim::Engine eng;
  FlightRecorder fr(eng);  // never installed
  DCS_LOG("test", "op", 0, 1, 2);
  DCS_TRACE_INSTANT("test", "mark", 0);
  EXPECT_EQ(FlightRecorder::current(), nullptr);
  EXPECT_TRUE(fr.nodes().empty());
  EXPECT_EQ(fr.total_records(0), 0u);
  EXPECT_EQ(fr.trips(), 0u);
}

TEST(FlightRecorderTest, UninstallDisarmsTheSites) {
  sim::Engine eng;
  FlightRecorder fr(eng);
  fr.install();
  DCS_LOG("test", "before", 3);
  fr.uninstall();
  DCS_LOG("test", "after", 3);
  EXPECT_EQ(fr.total_records(3), 1u);
  EXPECT_STREQ(fr.records(3)[0].opcode, "before");
}

// --- in-flight request table and partial critical path ---

TEST(FlightRecorderTest, TracksInFlightRequestsAndChargesCost) {
  sim::Engine eng;
  FlightRecorder fr(eng, {.ring_capacity = 64});
  fr.install();
  sim::Event park(eng);
  eng.spawn([](sim::Engine& e, sim::Event& p) -> sim::Task<void> {
    Request req("stuck.op", 2, 7);
    {
      DCS_TRACE_COST_SPAN(Cost::kLockWait, "test", "wait", 2, 7);
      co_await e.delay(microseconds(3));
    }
    co_await p.wait();  // never set: the request stays in flight
  }(eng, park));
  eng.spawn([](sim::Engine& e) -> sim::Task<void> {
    Request req("done.op", 1, 1);
    co_await e.delay(microseconds(1));
  }(eng));
  eng.run_until(milliseconds(1));

  // The completed request left the table; the parked one aged in place.
  ASSERT_EQ(fr.in_flight().size(), 1u);
  const auto& [request, info] = *fr.in_flight().begin();
  EXPECT_NE(request, 0u);
  EXPECT_STREQ(info.name, "stuck.op");
  EXPECT_EQ(info.node, 2u);
  EXPECT_EQ(info.id, 7u);
  const auto lock_wait = static_cast<std::size_t>(Cost::kLockWait) - 1;
  EXPECT_EQ(info.cost_ns[lock_wait], microseconds(3));
  fr.uninstall();
}

// --- the wedged N-CoSED cascade used by the trip tests below ---
//
// Node 1 takes the lock exclusively and parks forever; nodes 2..N queue
// behind it fully parked (the N-CoSED handoff is event-driven, no timers),
// so an unbounded run drains with live roots and the stall hook fires.
struct WedgeWorld {
  sim::Engine eng;
  fabric::Fabric fab{eng, fabric::FabricParams{},
                     {.num_nodes = 4, .cores_per_node = 2,
                      .mem_per_node = 1u << 20}};
  verbs::Network net{fab};
  dlm::NcosedLockManager mgr{net, 0};
  sim::Event park{eng};

  void spawn_cascade(int waiters = 2) {
    eng.spawn([](dlm::LockManager& m, sim::Event& p) -> sim::Task<void> {
      Request req("wedge.hold", 1, 1);
      co_await m.lock(1, 0, dlm::LockMode::kExclusive);
      DCS_LOG("test", "holder.parked", 1);
      co_await p.wait();  // the bug under investigation: release never comes
    }(mgr, park));
    for (NodeId node = 2; node < 2 + static_cast<NodeId>(waiters); ++node) {
      eng.spawn([](dlm::LockManager& m, sim::Engine& e,
                   NodeId self) -> sim::Task<void> {
        co_await e.delay(microseconds(10 * self));
        Request req("wedge.acquire", self, self);
        co_await m.lock(self, 0, dlm::LockMode::kExclusive);
      }(mgr, eng, node));
    }
  }
};

std::string wedged_stall_dump() {
  Registry::global().reset();
  WedgeWorld w;
  FlightRecorder fr(w.eng, {.ring_capacity = 128});
  fr.install();
  w.spawn_cascade();
  w.eng.run();  // drains with live roots -> on_wedged -> trip
  EXPECT_GE(fr.trips(), 1u);
  EXPECT_EQ(fr.last_reason(), "engine-stall");
  EXPECT_FALSE(fr.in_flight().empty());
  std::ostringstream os;
  fr.write_postmortem(os, fr.last_reason().c_str(), fr.last_detail());
  fr.uninstall();
  return os.str();
}

TEST(FlightPostmortemTest, WedgedCascadeTripsStallDetectorDeterministically) {
  const std::string first = wedged_stall_dump();
  const std::string second = wedged_stall_dump();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // same seed, byte-identical dump
  EXPECT_NE(first.find("\"schema\": \"dcs-postmortem-v1\""),
            std::string::npos);
  EXPECT_NE(first.find("\"reason\": \"engine-stall\""), std::string::npos);
  EXPECT_NE(first.find("wedge.acquire"), std::string::npos);
  EXPECT_NE(first.find("\"live_roots\""), std::string::npos);
}

TEST(FlightPostmortemTest, UnwritableDumpIsCountedAsLost) {
  Registry::global().reset();
  WedgeWorld w;
  FlightRecorder fr(w.eng, {.ring_capacity = 128,
                            .postmortem_dir = ::testing::TempDir() +
                                              "/no-such-dir/nested"});
  fr.install();
  w.spawn_cascade();
  w.eng.run();  // trips, but the dump has nowhere to go
  fr.uninstall();
  EXPECT_EQ(fr.trips(), 1u);
  EXPECT_TRUE(fr.dump_paths().empty());
  EXPECT_EQ(fr.lost_dumps(), 1u);
}

TEST(FlightPostmortemTest, WrittenDumpIsNotLost) {
  Registry::global().reset();
  WedgeWorld w;
  FlightRecorder fr(w.eng, {.ring_capacity = 128,
                            .postmortem_dir = ::testing::TempDir(),
                            .prefix = "flight_test.not_lost"});
  fr.install();
  w.spawn_cascade();
  w.eng.run();
  fr.uninstall();
  ASSERT_EQ(fr.dump_paths().size(), 1u);
  EXPECT_EQ(fr.lost_dumps(), 0u);
  std::remove(fr.dump_paths()[0].c_str());
}

// --- audit-violation trip (OnViolation::kPostmortem) ---

std::string audit_violation_dump() {
  Registry::global().reset();
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 4, .cores_per_node = 2,
                      .mem_per_node = 1u << 20});
  verbs::Network net(fab);
  FlightRecorder fr(eng, {.ring_capacity = 64});
  fr.install();
  audit::Auditor auditor(eng,
                         {.on_violation = audit::OnViolation::kPostmortem});
  auditor.install();

  auto region = net.hca(1).allocate_region(64);
  net.hca(1).deregister(region.rkey);
  eng.spawn([](verbs::Network& n, verbs::RemoteRegion stale)
                -> sim::Task<void> {
    Request req("stale.write", 0, 1);
    co_await n.hca(0).write(stale, 0,
                            std::vector<std::byte>(16, std::byte{0x5A}));
  }(net, region));

  // kPostmortem still throws; the dump is taken before the unwind.
  EXPECT_THROW(eng.run(), audit::AuditError);
  EXPECT_EQ(fr.trips(), 1u);
  EXPECT_EQ(fr.last_reason(), "audit-violation");
  bool violation_in_ring = false;
  for (const FlightRecord& rec : fr.records(0)) {
    if (rec.kind != 'V') continue;
    violation_in_ring = true;
    EXPECT_STREQ(rec.opcode, "use-after-deregister");
  }
  EXPECT_TRUE(violation_in_ring);
  std::ostringstream os;
  fr.write_postmortem(os, fr.last_reason().c_str(), fr.last_detail());
  fr.uninstall();
  return os.str();
}

TEST(FlightPostmortemTest, AuditViolationDumpIsByteIdenticalAcrossRuns) {
  const std::string first = audit_violation_dump();
  const std::string second = audit_violation_dump();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"reason\": \"audit-violation\""), std::string::npos);
  EXPECT_NE(first.find("use-after-deregister"), std::string::npos);
}

// --- deadline watchdog trip ---

TEST(FlightWatchdogTest, DeadlineTripCapturesTheStuckRequest) {
  WedgeWorld w;
  sockets::TcpNetwork tcp(w.fab);
  FlightRecorder fr(w.eng, {.ring_capacity = 128});
  fr.install();
  w.spawn_cascade(/*waiters=*/1);
  monitor::ResourceMonitor mon(w.net, tcp, 0, {1},
                               monitor::MonScheme::kERdmaSync);
  mon.start();
  monitor::DeadlineWatchdog watchdog(
      mon, fr, {.interval = milliseconds(5), .deadline = milliseconds(20)});
  w.eng.spawn(watchdog.run(milliseconds(200)));
  w.eng.run_until(milliseconds(200));

  EXPECT_GE(watchdog.sweeps(), 10u);
  // Two requests wedge (holder + waiter), but each trips at most once.
  EXPECT_GE(watchdog.trips(), 1u);
  EXPECT_LE(watchdog.trips(), fr.trips());
  EXPECT_EQ(fr.last_reason(), "deadline");
  EXPECT_NE(fr.last_detail().find("load-adjusted deadline"),
            std::string::npos);
  fr.uninstall();
}

// --- dcs inspect over a real dump file ---

struct InspectFixture : ::testing::Test {
  std::string dir = ::testing::TempDir();
  std::string dump_path;

  void SetUp() override {
    Registry::global().reset();
    WedgeWorld w;
    // One dump file per test: ctest runs the fixture's tests in parallel
    // processes, and a shared name lets one truncate another's dump.
    FlightRecorder fr(
        w.eng, {.ring_capacity = 128, .postmortem_dir = dir,
                .prefix = std::string("flight_test.") +
                          ::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()});
    fr.install();
    w.spawn_cascade();
    w.eng.run();
    ASSERT_EQ(fr.dump_paths().size(), 1u);
    dump_path = fr.dump_paths()[0];
    fr.uninstall();
  }
};

TEST_F(InspectFixture, SelfCheckAcceptsAFreshDump) {
  std::ostringstream out, err;
  inspect::Options opts;
  opts.self_check = true;
  EXPECT_EQ(inspect::run(dump_path, opts, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("self-check OK"), std::string::npos);
}

TEST_F(InspectFixture, TimelineReconstructsTheStuckRequestAcrossNodes) {
  const inspect::Document doc = inspect::load(dump_path);
  EXPECT_EQ(doc.kind, inspect::Document::Kind::kPostmortem);
  EXPECT_EQ(doc.reason, "engine-stall");

  // Find the wedged waiter in the in-flight table.
  std::uint64_t stuck = 0;
  for (const inspect::RequestRow& row : doc.requests) {
    if (row.name == "wedge.acquire" && row.in_flight) stuck = row.request;
  }
  ASSERT_NE(stuck, 0u);

  // Its records span the waiter's own node AND the lock home (node 0),
  // where the CAS executed under the waiter's request context — the
  // cross-node story a single-node log cannot tell.
  std::set<std::uint32_t> nodes;
  for (const inspect::Entry& e : doc.entries) {
    if (e.request == stuck) nodes.insert(e.node);
  }
  EXPECT_GE(nodes.size(), 2u);
  EXPECT_TRUE(nodes.contains(0u));

  std::ostringstream out, err;
  inspect::Options opts;
  opts.timeline = stuck;
  EXPECT_EQ(inspect::run(dump_path, opts, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("timeline of request"), std::string::npos);
  EXPECT_EQ(out.str().find("across 1 node"), std::string::npos);
}

TEST_F(InspectFixture, FiltersAndTopSlowest) {
  std::ostringstream out, err;
  inspect::Options opts;
  opts.layer = "dlm";
  EXPECT_EQ(inspect::run(dump_path, opts, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("ncosed"), std::string::npos);

  std::ostringstream top_out;
  inspect::Options top;
  top.top = 2;
  EXPECT_EQ(inspect::run(dump_path, top, top_out, err), 0) << err.str();
  EXPECT_NE(top_out.str().find("wedge."), std::string::npos);
}

TEST_F(InspectFixture, DiffAgainstItselfReportsNoDifferences) {
  std::ostringstream out, err;
  inspect::Options opts;
  opts.diff_path = dump_path;
  EXPECT_EQ(inspect::run(dump_path, opts, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("(no differences)"), std::string::npos);
}

TEST(InspectErrorTest, MissingFileIsALoadError) {
  std::ostringstream out, err;
  EXPECT_EQ(inspect::run("/nonexistent/no-such.postmortem.json", {}, out,
                         err), 2);
  EXPECT_FALSE(err.str().empty());
}

TEST(InspectErrorTest, UnrecognizedJsonIsALoadError) {
  const std::string path = ::testing::TempDir() + "/flight_test_bogus.json";
  {
    std::ofstream os(path);
    os << "{\"hello\": 1}\n";
  }
  std::ostringstream out, err;
  EXPECT_EQ(inspect::run(path, {}, out, err), 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dcs::trace
