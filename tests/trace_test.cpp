// Observability layer: metrics registry semantics, tracer span recording,
// CLI flag extraction, and the headline guarantee — two same-seed runs
// produce byte-identical trace and metrics output.
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flags.hpp"
#include "sockets/sdp.hpp"
#include "trace/critical_path.hpp"
#include "trace/trace.hpp"

namespace {

using namespace dcs;

// --- registry ---

TEST(TraceRegistryTest, RegistrationIsIdempotentWithStableHandles) {
  trace::Registry reg;
  trace::Counter& c1 = reg.counter("layer.comp.ops");
  c1.add(2);
  trace::Counter& c2 = reg.counter("layer.comp.ops");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value, 2u);
  // Handles survive arbitrary later registrations (node-based storage).
  for (int i = 0; i < 100; ++i) reg.counter("filler." + std::to_string(i));
  EXPECT_EQ(&reg.counter("layer.comp.ops"), &c1);
  EXPECT_EQ(reg.size(), 101u);
}

TEST(TraceRegistryTest, FindRespectsNameAndKind) {
  trace::Registry reg;
  reg.counter("a.b.ops").add(5);
  reg.gauge("a.b.depth").set(3.5);
  ASSERT_NE(reg.find_counter("a.b.ops"), nullptr);
  EXPECT_EQ(reg.find_counter("a.b.ops")->value, 5u);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_counter("a.b.depth"), nullptr);  // wrong kind
  ASSERT_NE(reg.find_gauge("a.b.depth"), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_gauge("a.b.depth")->value, 3.5);
}

TEST(TraceRegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  trace::Registry reg;
  trace::Counter& c = reg.counter("a.ops");
  c.add(7);
  reg.distribution("a.lat").record(12.0);
  reg.reset();
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(c.value, 0u);  // same handle, zeroed
  EXPECT_EQ(reg.find_distribution("a.lat")->stat.count(), 0u);
  // Nothing is touched since reset(), so nothing is enumerated.
  EXPECT_TRUE(reg.names().empty());
  std::ostringstream json;
  reg.write_json(json);
  EXPECT_EQ(json.str(), "{}");
  c.add(1);
  EXPECT_EQ(reg.find_counter("a.ops")->value, 1u);
  EXPECT_EQ(reg.names(), std::vector<std::string>{"a.ops"});
}

TEST(TraceRegistryTest, MergeFoldsEveryMetricKind) {
  trace::Registry a;
  trace::Registry b;
  a.counter("n.ops").add(3);
  b.counter("n.ops").add(4);
  b.counter("only.b").add(1);
  a.distribution("n.lat").record(1.0);
  b.distribution("n.lat").record(3.0);
  b.gauge("n.depth").set(9.0);
  a.histogram("n.batch").record(0);
  b.histogram("n.batch").record(5);
  b.histogram("n.batch").record(6);
  b.histogram("n.batch").record(std::uint64_t{1} << 63);
  a.merge(b);
  EXPECT_EQ(a.find_counter("n.ops")->value, 7u);
  EXPECT_EQ(a.find_counter("only.b")->value, 1u);
  EXPECT_EQ(a.find_distribution("n.lat")->stat.count(), 2u);
  EXPECT_DOUBLE_EQ(a.find_distribution("n.lat")->stat.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.find_gauge("n.depth")->value, 9.0);
  // Histograms add bucket-wise, the top bucket included.
  const LogHistogram& h = a.find_histogram("n.batch")->hist;
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(3), 2u);  // [4,8)
  EXPECT_EQ(h.bucket_count(LogHistogram::kBuckets - 1), 1u);
}

TEST(TraceRegistryTest, WriteIsSortedAndParseable) {
  trace::Registry reg;
  reg.counter("z.last").add(1);
  reg.counter("a.first").add(2);
  std::ostringstream os;
  reg.write(os);
  const std::string out = os.str();
  EXPECT_LT(out.find("counter a.first 2"), out.find("counter z.last 1"));
}

// --- tracer ---

TEST(TracerTest, NoTracerInstalledRecordsNothing) {
  sim::Engine eng;
  trace::Tracer tracer(eng);  // never installed
  {
    DCS_TRACE_SPAN("test", "op", 0, 1);
    DCS_TRACE_INSTANT("test", "mark", 0);
  }
  EXPECT_EQ(trace::current_tracer(), nullptr);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(TracerTest, SpanHoldsOneStreamPointer) {
  // A span sits in every verb's coroutine frame.  It points at its
  // context's record stream once, not at each consumer.
  EXPECT_EQ(sizeof(trace::Span), 80u);
}

TEST(TracerTest, RecordsNestedSpansAndInstantsAtVirtualTime) {
  sim::Engine eng;
  trace::Tracer tracer(eng);
  tracer.install();
  eng.spawn([](sim::Engine& e) -> sim::Task<void> {
    DCS_TRACE_SPAN("test", "outer", 1, 42);
    co_await e.delay(100);
    {
      DCS_TRACE_SPAN("test", "inner", 1, 43, "nested");
      co_await e.delay(50);
    }
    DCS_TRACE_INSTANT("test", "mark", 1, 7);
    co_await e.delay(10);
  }(eng));
  eng.run();
  tracer.uninstall();

  // Spans close inner-first; the instant fires between the two closes.
  ASSERT_EQ(tracer.event_count(), 3u);
  const auto& evs = tracer.events();
  EXPECT_STREQ(evs[0].name, "inner");
  EXPECT_EQ(evs[0].start, 100u);
  EXPECT_EQ(evs[0].end, 150u);
  EXPECT_STREQ(evs[0].detail, "nested");
  EXPECT_STREQ(evs[1].name, "mark");
  EXPECT_EQ(evs[1].phase, 'i');
  EXPECT_EQ(evs[1].start, 150u);
  EXPECT_STREQ(evs[2].name, "outer");
  EXPECT_EQ(evs[2].start, 0u);
  EXPECT_EQ(evs[2].end, 160u);
  EXPECT_EQ(evs[2].id, 42u);

  std::ostringstream json;
  trace::ChromeTrace chrome(json);
  chrome.add(tracer);
  chrome.close();
  EXPECT_NE(json.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.str().find("\"ph\":\"i\""), std::string::npos);
}

/// One traced run: a request on node 1 holding one span, ending at 10 ns.
void traced_request(trace::Tracer& tracer, sim::Engine& eng) {
  tracer.install();
  eng.spawn([](sim::Engine& e) -> sim::Task<void> {
    trace::Request req("test.req", 1);
    DCS_TRACE_SPAN("test", "op", 1);
    co_await e.delay(10);
  }(eng));
  eng.run();
  tracer.uninstall();
}

TEST(ChromeTraceTest, EachRunKeepsItsOwnProcessesAndIds) {
  sim::Engine eng_a, eng_b;
  trace::Tracer a(eng_a), b(eng_b);
  traced_request(a, eng_a);
  traced_request(b, eng_b);
  std::ostringstream os;
  trace::ChromeTrace chrome(os);
  chrome.add(a, "first");
  chrome.add(b, "second");
  chrome.close();
  EXPECT_EQ(chrome.event_count(), 4u);
  const std::string json = os.str();
  // Run b's node 1 is process 3: its pids follow run a's (0..1).
  EXPECT_NE(json.find("\"pid\":1,\"tid\":0,"
                      "\"args\":{\"name\":\"first node 1\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\":3,\"tid\":0,"
                      "\"args\":{\"name\":\"second node 1\"}"),
            std::string::npos);
  // Both runs number their request and span 1; in the file run b's
  // continue after run a's.
  EXPECT_NE(json.find("\"name\":\"op\",\"pid\":1,"), std::string::npos);
  EXPECT_NE(json.find("\"request\":1,\"span\":1}"), std::string::npos);
  EXPECT_NE(json.find("\"request\":2,\"span\":2}"), std::string::npos);
  EXPECT_EQ(json.find("\"request\":2,\"span\":1}"), std::string::npos);
}

// --- CLI flag extraction (obs/flags.hpp, the one parser) ---

/// argv storage for the parser tests: argv[argc] is a null terminator.
struct Argv {
  std::vector<std::string> storage;
  std::vector<char*> argv;
  int argc;
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (auto& s : storage) argv.push_back(s.data());
    argv.push_back(nullptr);
    argc = static_cast<int>(storage.size());
  }
};

TEST(ObserveFlagsTest, ExtractsAndRemovesBothFlags) {
  Argv a({"bench", "--foo", "--trace-out", "t.json", "--bar", "1",
          "--metrics-out", "m.txt"});
  const auto opts = obs::extract_harness_flags(a.argc, a.argv.data());
  EXPECT_TRUE(opts.observed());
  EXPECT_EQ(opts.trace_out, "t.json");
  EXPECT_EQ(opts.metrics_out, "m.txt");
  ASSERT_EQ(a.argc, 4);
  EXPECT_STREQ(a.argv[0], "bench");
  EXPECT_STREQ(a.argv[1], "--foo");
  EXPECT_STREQ(a.argv[2], "--bar");
  EXPECT_STREQ(a.argv[3], "1");
  EXPECT_EQ(a.argv[4], nullptr);
}

TEST(ObserveFlagsTest, AbsentFlagsDisableObservation) {
  Argv a({"bench", "--foo"});
  const auto opts = obs::extract_harness_flags(a.argc, a.argv.data());
  EXPECT_FALSE(opts.observed());
  EXPECT_EQ(a.argc, 2);
}

TEST(ObserveFlagsTest, PostmortemDirSelectsTheHarness) {
  Argv a({"bench", "--postmortem-dir", "pm"});
  const auto opts = obs::extract_harness_flags(a.argc, a.argv.data());
  EXPECT_TRUE(opts.observed());
  EXPECT_EQ(a.argc, 1);
  EXPECT_EQ(opts.postmortem_dir, "pm");
}

TEST(ObserveFlagsTest, ExtractsNumericFlags) {
  Argv a({"bench", "--hot-keys", "3"});
  const auto opts = obs::extract_harness_flags(a.argc, a.argv.data());
  EXPECT_EQ(opts.hot_keys, 3u);
  EXPECT_TRUE(opts.attribution_mode());
  EXPECT_EQ(a.argc, 1);
}

TEST(ObserveFlagsTest, ParseCountAcceptsOnlyPlainNonNegativeIntegers) {
  EXPECT_EQ(obs::parse_count("0"), 0u);
  EXPECT_EQ(obs::parse_count("42"), 42u);
  EXPECT_EQ(obs::parse_count("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "abc", "-1", "+1", "1x", " 1", "1.5",
                          "18446744073709551616"}) {
    EXPECT_EQ(obs::parse_count(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(ObserveFlagsTest, ParseRealAcceptsOnlyFiniteNumbers) {
  EXPECT_EQ(obs::parse_real("0.75"), 0.75);
  EXPECT_EQ(obs::parse_real("-1"), -1.0);
  EXPECT_EQ(obs::parse_real("1e3"), 1000.0);
  for (const char* bad : {"", "abc", "0.5x", "inf", "nan", "1e999"}) {
    EXPECT_EQ(obs::parse_real(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(ObserveFlagsDeathTest, MalformedHotKeysExitsTwoNamingTheFlag) {
  Argv a({"bench", "--hot-keys", "abc"});
  EXPECT_EXIT(obs::extract_harness_flags(a.argc, a.argv.data()),
              ::testing::ExitedWithCode(2),
              "--hot-keys: expected a non-negative integer, got 'abc'");
}

TEST(ObserveFlagsDeathTest, NegativeHotKeysExitsTwoInsteadOfWrapping) {
  Argv a({"bench", "--hot-keys", "-1"});
  EXPECT_EXIT(obs::extract_harness_flags(a.argc, a.argv.data()),
              ::testing::ExitedWithCode(2), "--hot-keys: .*got '-1'");
}

TEST(ObserveFlagsDeathTest, CountAboveItsLimitExitsTwo) {
  EXPECT_EQ(obs::count_flag("--node", "4294967295", 0, UINT32_MAX), UINT32_MAX);
  EXPECT_EXIT(obs::count_flag("--node", "4294967296", 0, UINT32_MAX),
              ::testing::ExitedWithCode(2),
              "--node: expected an integer <= 4294967295, got '4294967296'");
}

TEST(ObserveFlagsDeathTest, ValueBelowItsMinimumExitsTwo) {
  EXPECT_EQ(obs::count_flag("--proxies", "1", 1), 1u);
  EXPECT_EXIT(obs::count_flag("--proxies", "0", 1),
              ::testing::ExitedWithCode(2),
              "--proxies: expected an integer >= 1, got '0'");
  EXPECT_EQ(obs::real_flag("--alpha", "0", 0.0), 0.0);
  EXPECT_EXIT(obs::real_flag("--alpha", "-1", 0.0),
              ::testing::ExitedWithCode(2),
              "--alpha: expected a number >= 0, got '-1'");
}

TEST(ObserveFlagsDeathTest, UnknownChoiceExitsTwoListingTheNames) {
  EXPECT_EQ(obs::choice_flag("--mode", "exclusive", {"shared", "exclusive"}),
            "exclusive");
  EXPECT_EXIT(obs::choice_flag("--mode", "foo", {"shared", "exclusive"}),
              ::testing::ExitedWithCode(2),
              "--mode: expected one of shared.exclusive, got 'foo'");
}

TEST(ObserveFlagsDeathTest, MalformedRealExitsTwoNamingTheFlag) {
  EXPECT_EXIT(obs::real_flag("--alpha", "fast"), ::testing::ExitedWithCode(2),
              "--alpha: expected a finite number, got 'fast'");
}

TEST(ObserveFlagsDeathTest, LeftoverArgumentExitsTwo) {
  Argv clean({"bench"});
  obs::reject_unknown_args(clean.argc, clean.argv.data());  // returns
  Argv a({"bench", "--bench-json", "b.json", "--no-such-flag"});
  (void)obs::extract_harness_flags(a.argc, a.argv.data());
  EXPECT_EXIT(obs::reject_unknown_args(a.argc, a.argv.data()),
              ::testing::ExitedWithCode(2),
              "unknown argument '--no-such-flag'");
}

// --- determinism: the headline guarantee ---

/// One traced SDP workload (all three modes on a fresh engine), returning
/// its Chrome JSON and metrics dump, concatenated.
std::string traced_sdp_run() {
  trace::Registry::global().reset();
  sim::Engine eng;
  trace::Tracer tracer(eng);
  tracer.install();
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  for (const auto mode :
       {sockets::SdpMode::kBufferedCopy, sockets::SdpMode::kZeroCopy,
        sockets::SdpMode::kAsyncZeroCopy}) {
    sockets::SdpStream stream(net, 0, 1, mode);
    constexpr int kMsgs = 8;
    eng.spawn([](sockets::SdpStream& s) -> sim::Task<void> {
      for (int i = 0; i < kMsgs; ++i) {
        co_await s.send(std::vector<std::byte>(32768));
      }
      co_await s.flush();
    }(stream));
    eng.spawn([](sockets::SdpStream& s) -> sim::Task<void> {
      for (int i = 0; i < kMsgs; ++i) (void)co_await s.recv();
    }(stream));
    eng.run();
  }
  tracer.uninstall();
  std::ostringstream json;
  std::ostringstream metrics;
  trace::ChromeTrace chrome(json);
  chrome.add(tracer);
  chrome.close();
  trace::Registry::global().write(metrics);
  return json.str() + "\n---\n" + metrics.str();
}

TEST(TraceDeterminismTest, SameSeedRunsProduceByteIdenticalOutput) {
  const std::string first = traced_sdp_run();
  const std::string second = traced_sdp_run();
  EXPECT_EQ(first, second);

  // The run exercised real instrumentation, not an empty trace.
  EXPECT_NE(first.find("\"cat\":\"sockets\""), std::string::npos);
  EXPECT_NE(first.find("counter sockets.sdp.sends 24"), std::string::npos)
      << first;
}

// --- critical path: determinism and the zero-overhead contract ---

struct RequestRun {
  SimNanos end = 0;        // final virtual time
  std::string metrics;     // registry text dump
  std::string report;      // critical-path report (traced runs only)
  std::string json;        // critical-path JSON (traced runs only)
  std::uint64_t requests = 0;
  double attributed = 0.0;
};

/// A fixed SDP workload whose sends are request roots.  With `traced`
/// false nothing is recorded, which is the baseline for the overhead
/// contract: instrumentation must not perturb the simulation.
RequestRun request_run(bool traced) {
  trace::Registry::global().reset();
  sim::Engine eng;
  trace::Tracer tracer(eng);
  if (traced) tracer.install();
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  sockets::SdpStream stream(net, 0, 1, sockets::SdpMode::kZeroCopy);
  constexpr int kMsgs = 6;
  eng.spawn([](sockets::SdpStream& s) -> sim::Task<void> {
    for (int i = 0; i < kMsgs; ++i) {
      trace::Request req("sdp.send", 0, static_cast<std::uint64_t>(i));
      co_await s.send(std::vector<std::byte>(16384));
    }
    co_await s.flush();
  }(stream));
  eng.spawn([](sockets::SdpStream& s) -> sim::Task<void> {
    for (int i = 0; i < kMsgs; ++i) (void)co_await s.recv();
  }(stream));
  eng.run();
  tracer.uninstall();

  RequestRun out;
  out.end = eng.now();
  std::ostringstream m;
  trace::Registry::global().write(m);
  out.metrics = m.str();
  if (traced) {
    const trace::CriticalPath cp(tracer);
    std::ostringstream r, j;
    cp.write_report(r);
    cp.write_json(j);
    out.report = r.str();
    out.json = j.str();
    out.requests = cp.aggregate().count;
    out.attributed = cp.aggregate().attributed_fraction();
  }
  return out;
}

TEST(CriticalPathTest, SameSeedRunsProduceByteIdenticalReports) {
  const RequestRun first = request_run(true);
  const RequestRun second = request_run(true);
  ASSERT_FALSE(first.report.empty());
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.json, second.json);
  EXPECT_EQ(first.end, second.end);

  // Sanity: every send became a request window and the report names it.
  EXPECT_EQ(first.requests, 6u);
  EXPECT_NE(first.report.find("sdp.send"), std::string::npos) << first.report;
  EXPECT_NE(first.json.find("\"schema\":\"dcs-critical-path-v1\""),
            std::string::npos);
}

TEST(CriticalPathTest, AttributionCoversWindowAndReportsResidual) {
  const RequestRun run = request_run(true);
  ASSERT_EQ(run.requests, 6u);
  // The six categories must explain the overwhelming share of latency;
  // whatever is left shows up as an explicit residual line, never silently.
  EXPECT_GE(run.attributed, 0.95);
  EXPECT_LE(run.attributed, 1.0 + 1e-12);
  EXPECT_NE(run.report.find("residual"), std::string::npos);
}

TEST(CriticalPathTest, TracingDoesNotPerturbTheSimulation) {
  const RequestRun untraced = request_run(false);
  const RequestRun traced = request_run(true);
  // Identical virtual end time and identical op counts: the tracer only
  // observes, it never schedules or delays.
  EXPECT_EQ(untraced.end, traced.end);
  EXPECT_EQ(untraced.metrics, traced.metrics);
  EXPECT_NE(untraced.metrics.find("counter sockets.sdp.sends 6"),
            std::string::npos)
      << untraced.metrics;
}

TEST(CriticalPathTest, EmptyTraceYieldsEmptyDeterministicReport) {
  sim::Engine eng;
  trace::Tracer tracer(eng);
  const trace::CriticalPath cp(tracer);
  EXPECT_EQ(cp.aggregate().count, 0u);
  EXPECT_TRUE(cp.requests().empty());
  std::ostringstream a, b;
  cp.write_report(a);
  cp.write_report(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("requests 0"), std::string::npos) << a.str();
}

}  // namespace
