// Rule-engine fixtures for dcs-lint: for every rule R1-R6 (plus the S1
// suppression-hygiene meta rule) a flagged snippet, a clean snippet, and a
// suppressed (`// dcs-lint: allow(...)`) snippet, driven through the full
// analyze() pipeline exactly as the CLI runs it — including the include
// graph and the nodiscard type model.
#include "lint/lint.hpp"

#include <gtest/gtest.h>

namespace dcs::lint {
namespace {

AnalysisResult run(std::vector<InputFile> files) {
  return analyze(files, Config{});
}

std::vector<std::string> rules_of(const std::vector<Finding>& fs) {
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const auto& f : fs) out.push_back(f.rule);
  return out;
}

// --- R1: nondeterminism sources ------------------------------------------

TEST(LintRules, R1FlagsNondeterminismSourcesInSrc) {
  auto r = run({{"src/foo/bar.cpp",
                 "#include <chrono>\n"
                 "int a() { return rand(); }\n"
                 "auto b() { return std::chrono::steady_clock::now(); }\n"
                 "void c() { std::this_thread::sleep_for(x); }\n"
                 "bool d() { return getenv(\"DCS_MODE\") != nullptr; }\n"}});
  EXPECT_EQ(rules_of(r.active),
            (std::vector<std::string>{"R1", "R1", "R1", "R1"}));
  EXPECT_EQ(r.active[0].line, 2);
  EXPECT_EQ(r.active[0].snippet, "rand");
}

TEST(LintRules, R1CleanDeterministicCode) {
  auto r = run({{"src/foo/bar.cpp",
                 // Deterministic PRNG, duration types, strings/comments
                 // mentioning clocks: all fine.
                 "#include \"common/rng.hpp\"\n"
                 "std::chrono::nanoseconds dt{5};  // not steady_clock\n"
                 "const char* s = \"rand() steady_clock\";\n"
                 "int strand_rand_like_names_ok(int strand) { return strand; }\n"}});
  EXPECT_TRUE(r.active.empty());
}

TEST(LintRules, R1IgnoresFilesOutsideSrc) {
  auto r = run({{"bench/bench_foo.cpp",
                 "auto t0 = std::chrono::steady_clock::now();\n"}});
  EXPECT_TRUE(r.active.empty());
}

TEST(LintRules, R1AllowedWithReason) {
  auto r = run({{"src/foo/bar.cpp",
                 "// dcs-lint: allow(R1, wall telemetry outside the "
                 "byte-stability contract)\n"
                 "auto t0 = std::chrono::steady_clock::now();\n"}});
  EXPECT_TRUE(r.active.empty());
  EXPECT_EQ(rules_of(r.suppressed), (std::vector<std::string>{"R1"}));
}

// --- R2: raw concurrency primitives --------------------------------------

TEST(LintRules, R2FlagsRawThreadingOutsideAllowlist) {
  auto r = run({{"src/ddss/store.cpp",
                 "#include <mutex>\n"
                 "static std::mutex m;\n"
                 "static std::atomic<int> n;\n"
                 "void f() { pthread_create(nullptr, nullptr, nullptr, "
                 "nullptr); }\n"}});
  EXPECT_EQ(rules_of(r.active),
            (std::vector<std::string>{"R2", "R2", "R2", "R2"}));
  EXPECT_EQ(r.active[0].snippet, "<mutex>");
}

TEST(LintRules, R2AllowlistCoversPdesWorkerInternals) {
  auto r = run({{"src/sim/shard.cpp",
                 "#include <thread>\n#include <atomic>\n"
                 "static std::mutex m; static std::atomic<int> n;\n"}});
  EXPECT_TRUE(r.active.empty());
}

TEST(LintRules, R2CleanEngineSyncUsage) {
  auto r = run({{"src/ddss/store.cpp",
                 "#include \"sim/sync.hpp\"\n"
                 "// engine primitives, and a member named mutex_ in a\n"
                 "// comment, do not trip the rule\n"
                 "dcs::sim::Semaphore sem{eng, 1};\n"}});
  EXPECT_TRUE(r.active.empty());
}

TEST(LintRules, R2AllowedWithReason) {
  auto r = run({{"src/monitor/probe.cpp",
                 "// dcs-lint: allow(R2, lock-free stats mailbox read by the\n"
                 "// scraper thread; engine sync cannot span real threads)\n"
                 "static std::atomic<int> mailbox;\n"}});
  EXPECT_TRUE(r.active.empty());
  EXPECT_EQ(rules_of(r.suppressed), (std::vector<std::string>{"R2"}));
}

// --- R3: iteration order in emit-visible files ----------------------------

TEST(LintRules, R3FlagsUnorderedContainerInEmitter) {
  auto r = run({{"src/trace/sink.cpp",
                 "#include <unordered_map>\n"
                 "std::unordered_map<int, int> by_node;\n"}});
  EXPECT_EQ(rules_of(r.active), (std::vector<std::string>{"R3"}));
}

TEST(LintRules, R3FlagsPointerKeyedMapInEmitter) {
  auto r = run({{"src/trace/sink.cpp",
                 "std::map<const Node*, int> by_ptr;\n"}});
  EXPECT_EQ(rules_of(r.active), (std::vector<std::string>{"R3"}));
  EXPECT_EQ(r.active[0].snippet, "std::map<*>");
}

TEST(LintRules, R3ScopesThroughIncludeGraphNotJustPaths) {
  // sink.cpp (an emitter) includes a header far from src/trace; that
  // header's iteration order now leaks into output, so it is in scope.
  auto r = run({{"src/trace/sink.cpp", "#include \"common/agg.hpp\"\n"},
                {"src/common/agg.hpp",
                 "std::unordered_set<int> seen;\n"}});
  EXPECT_EQ(rules_of(r.active), (std::vector<std::string>{"R3"}));
  EXPECT_EQ(r.active[0].path, "src/common/agg.hpp");
}

TEST(LintRules, R3IgnoresNonEmitVisibleFiles) {
  auto r = run({{"src/cache/lru.hpp",
                 "#include <unordered_map>\n"
                 "std::unordered_map<int, int> index_;\n"
                 "std::map<const Node*, int> by_ptr;\n"}});
  EXPECT_TRUE(r.active.empty());
}

TEST(LintRules, R3CleanOrderedValueKeyed) {
  auto r = run({{"src/obs/harness.hpp",
                 "std::map<std::string, double> metrics_;\n"
                 "std::vector<std::pair<int, int>> rows_;\n"}});
  EXPECT_TRUE(r.active.empty());
}

TEST(LintRules, R3AllowedWithReason) {
  auto r = run({{"src/trace/sink.cpp",
                 "// dcs-lint: allow(R3, staging only; drained through a\n"
                 "// sorted copy before any emit)\n"
                 "std::unordered_map<int, int> staging;\n"}});
  EXPECT_TRUE(r.active.empty());
  EXPECT_EQ(rules_of(r.suppressed), (std::vector<std::string>{"R3"}));
}

// --- R4: literal trace/log names -----------------------------------------

TEST(LintRules, R4FlagsRuntimeNames) {
  auto r = run({{"src/verbs/qp.cpp",
                 "void f(int node, std::string op) {\n"
                 "  DCS_LOG(\"verbs\", op + \".fail\", node);\n"
                 "  DCS_TRACE_SPAN(\"verbs\", name_for(op), node);\n"
                 "  DCS_TRACE_COST_SPAN(trace::Cost::kNic, \"verbs\", op, "
                 "node);\n"
                 "}\n"}});
  EXPECT_EQ(rules_of(r.active),
            (std::vector<std::string>{"R4", "R4", "R4"}));
}

TEST(LintRules, R4CleanLiteralNamesAndAdjacentConcat) {
  auto r = run({{"src/verbs/qp.cpp",
                 "void f(int node) {\n"
                 "  DCS_LOG(\"verbs\", \"cas.execute\", node, 1, 2);\n"
                 "  DCS_TRACE_SPAN(\"verbs\", \"read\" \".remote\", node);\n"
                 "  DCS_TRACE_COST_SPAN(trace::Cost::kNic, \"verbs\", "
                 "\"nic.post\", node);\n"
                 "}\n"}});
  EXPECT_TRUE(r.active.empty());
}

// DCS_TRACE_SPAN_INTO's first argument is the optional slot, not a name:
// category and name are its second and third arguments.
TEST(LintRules, R4FlagsRuntimeNamesInSpanInto) {
  auto r = run({{"src/verbs/qp.cpp",
                 "void f(int node, const char* verb) {\n"
                 "  std::optional<trace::Span> span;\n"
                 "  DCS_TRACE_SPAN_INTO(span, \"verbs\", verb, node, 1);\n"
                 "  DCS_TRACE_SPAN_INTO(span, layer, \"read\", node);\n"
                 "}\n"}});
  EXPECT_EQ(rules_of(r.active), (std::vector<std::string>{"R4", "R4"}));
}

TEST(LintRules, R4CleanLiteralSpanInto) {
  auto r = run({{"src/verbs/qp.cpp",
                 "void f(int node, std::uint32_t rkey) {\n"
                 "  std::optional<trace::Span> span;\n"
                 "  DCS_TRACE_SPAN_INTO(span, \"verbs\", \"read\", node, "
                 "rkey);\n"
                 "}\n"}});
  EXPECT_TRUE(r.active.empty());
}

TEST(LintRules, R4SkipsMacroDefinitionsAndAppliesEverywhere) {
  auto r = run({{"src/trace/trace.hpp",
                 "#define DCS_LOG(layer, opcode, node, ...) \\\n"
                 "  emit_log(layer, opcode, node)\n"},
                {"tests/foo_test.cpp",
                 "void f(int node, std::string op) { DCS_LOG(\"t\", op, "
                 "node); }\n"}});
  EXPECT_EQ(rules_of(r.active), (std::vector<std::string>{"R4"}));
  EXPECT_EQ(r.active[0].path, "tests/foo_test.cpp");
}

TEST(LintRules, R4FlagsRuntimeSeriesAndSloNames) {
  // DCS_SERIES / DCS_SLO_NAME are single-argument macros: only the first
  // argument is checked, and exactly one finding per bad site.
  auto r = run({{"src/obs/rules.cpp",
                 "void f(std::string metric, int shard) {\n"
                 "  store.ingest(DCS_SERIES(metric + \".total\"), 1);\n"
                 "  rule.name = DCS_SLO_NAME(\"burn-p\" + "
                 "std::to_string(shard));\n"
                 "}\n"}});
  EXPECT_EQ(rules_of(r.active), (std::vector<std::string>{"R4", "R4"}));
}

TEST(LintRules, R4CleanLiteralSeriesAndSloNames) {
  auto r = run({{"src/obs/rules.cpp",
                 "void f() {\n"
                 "  store.ingest(DCS_SERIES(\"scale.serve.total\"), 1);\n"
                 "  rule.name = DCS_SLO_NAME(\"serve-slow\" \"-burn\");\n"
                 "}\n"}});
  EXPECT_TRUE(r.active.empty());
}

// Batch-API fixture pair: the batched verbs data path is a hot new surface,
// so pin down that code driving verbs::OpBatch keeps both the concurrency
// ban (R2: completion coalescing is engine events, never host threads) and
// the literal-name discipline (R4: per-batch instrumentation must not bake
// the depth into the opcode).
TEST(LintRules, R2R4FlagBatchedPathViolations) {
  auto r = run({{"src/ddss/batcher.cpp",
                 "#include <mutex>\n"
                 "static std::mutex doorbell_mu;  // guards OpBatch build\n"
                 "sim::Task<void> flush(verbs::Hca& hca, verbs::OpBatch b) {\n"
                 "  DCS_TRACE_SPAN(\"ddss\", \"flush.batch=\" + "
                 "std::to_string(b.size()), 0);\n"
                 "  co_await hca.post(std::move(b));\n"
                 "}\n"}});
  EXPECT_EQ(rules_of(r.active),
            (std::vector<std::string>{"R2", "R2", "R4"}));
}

TEST(LintRules, R2R4CleanBatchedPath) {
  auto r = run({{"src/ddss/batcher.cpp",
                 "#include \"sim/sync.hpp\"\n"
                 "sim::Task<void> flush(verbs::Hca& hca, verbs::OpBatch b) {\n"
                 "  // depth rides the span's value argument, not its name\n"
                 "  DCS_TRACE_SPAN(\"ddss\", \"flush.batch\", 0, b.size());\n"
                 "  co_await hca.post(std::move(b));\n"
                 "}\n"}});
  EXPECT_TRUE(r.active.empty());
}

TEST(LintRules, R4FlagsRuntimeHotDomains) {
  // DCS_HOT checks only the domain argument; key and weight are runtime
  // values by design.
  auto r = run({{"src/ddss/ddss.cpp",
                 "void f(std::string layer, std::uint64_t key) {\n"
                 "  DCS_HOT(layer + \".object\", key, 1);\n"
                 "  DCS_HOT(domain_for(layer), key, 1);\n"
                 "}\n"}});
  EXPECT_EQ(rules_of(r.active), (std::vector<std::string>{"R4", "R4"}));
}

TEST(LintRules, R4CleanLiteralHotDomains) {
  auto r = run({{"src/ddss/ddss.cpp",
                 "void f(std::uint64_t key, std::size_t bytes) {\n"
                 "  DCS_HOT(\"ddss.object\", key, 1);\n"
                 "  DCS_HOT(\"verbs\" \".home\", key, bytes);\n"
                 "}\n"}});
  EXPECT_TRUE(r.active.empty());
}

TEST(LintRules, R4HotAllowedWithReason) {
  auto r = run({{"src/obs/heavy.cpp",
                 "// dcs-lint: allow(R4, domain table is a fixed per-layer\n"
                 "// constant array; names are stable per build)\n"
                 "void f(std::uint64_t k) { DCS_HOT(kDomains[0], k, 1); }\n"}});
  EXPECT_TRUE(r.active.empty());
  EXPECT_EQ(rules_of(r.suppressed), (std::vector<std::string>{"R4"}));
}

TEST(LintRules, R4AllowedWithReason) {
  auto r = run({{"src/verbs/qp.cpp",
                 "// dcs-lint: allow(R4, opcode set is a fixed enum table;\n"
                 "// names are stable per build)\n"
                 "void f(int node) { DCS_LOG(\"verbs\", kOpName[0], node); }\n"}});
  EXPECT_TRUE(r.active.empty());
  EXPECT_EQ(rules_of(r.suppressed), (std::vector<std::string>{"R4"}));
}

// --- R5: [[nodiscard]] on awaitable-returning header functions ------------

TEST(LintRules, R5FlagsUnmarkedAwaitableReturn) {
  auto r = run({{"src/ddss/client.hpp",
                 "struct CopyAwaiter { bool await_ready(); };\n"
                 "CopyAwaiter copy_from(int node);\n"}});
  EXPECT_EQ(rules_of(r.active), (std::vector<std::string>{"R5"}));
  EXPECT_EQ(r.active[0].snippet, "CopyAwaiter copy_from");
}

TEST(LintRules, R5SatisfiedByFunctionAttribute) {
  auto r = run({{"src/ddss/client.hpp",
                 "struct CopyAwaiter { bool await_ready(); };\n"
                 "[[nodiscard]] CopyAwaiter copy_from(int node);\n"}});
  EXPECT_TRUE(r.active.empty());
}

TEST(LintRules, R5SatisfiedByNodiscardClassAcrossFiles) {
  // sim::Task is `class [[nodiscard]]` in sim/task.hpp; functions
  // returning it are covered without a per-declaration attribute.
  auto r = run({{"src/sim/task.hpp",
                 "template <typename T> class [[nodiscard]] Task {};\n"},
                {"src/ddss/client.hpp",
                 "sim::Task<void> put(int node);\n"
                 "sim::Task<std::vector<std::byte>> get(int node);\n"}});
  EXPECT_TRUE(r.active.empty());
}

TEST(LintRules, R5IgnoresCppFilesAndCoroutineProtocol) {
  auto r = run({{"src/ddss/client.cpp",
                 "struct CopyAwaiter {};\nCopyAwaiter copy_from(int n);\n"},
                {"src/sim/task2.hpp",
                 "struct FinalAwaiter {};\n"
                 "struct promise { FinalAwaiter final_suspend() noexcept; };\n"}});
  EXPECT_TRUE(r.active.empty());
}

TEST(LintRules, R5AllowedWithReason) {
  auto r = run({{"src/ddss/client.hpp",
                 "struct CopyAwaiter { bool await_ready(); };\n"
                 "// dcs-lint: allow(R5, fire-and-forget poke; dropping the\n"
                 "// awaiter is the documented no-wait mode)\n"
                 "CopyAwaiter poke(int node);\n"}});
  EXPECT_TRUE(r.active.empty());
  EXPECT_EQ(rules_of(r.suppressed), (std::vector<std::string>{"R5"}));
}

// --- S1: suppression hygiene ---------------------------------------------

TEST(LintRules, S1FlagsUnknownRuleAndMissingReason) {
  auto r = run({{"src/foo/bar.cpp",
                 "// dcs-lint: allow(R9, no such rule)\n"
                 "// dcs-lint: allow(R1)\n"
                 "int x;\n"}});
  EXPECT_EQ(rules_of(r.active), (std::vector<std::string>{"S1", "S1"}));
}

TEST(LintRules, S1CleanProseMentioningMarkerMidComment) {
  auto r = run({{"src/foo/bar.cpp",
                 "// See docs/LINT.md for the dcs-lint: allow syntax.\n"
                 "int x;\n"}});
  EXPECT_TRUE(r.active.empty());
}

// --- R6: co_await inside an if/while condition -------------------------

TEST(LintRules, R6FlagsAwaitInIfAndWhileConditions) {
  auto r = run({{"tests/foo_test.cpp",
                 "Task<void> f(A& a, B& b) {\n"
                 "  if (!co_await a.offer()) co_return;\n"
                 "  while (co_await b.next()) {}\n"
                 "}\n"}});
  EXPECT_EQ(rules_of(r.active), (std::vector<std::string>{"R6", "R6"}));
  ASSERT_EQ(r.active.size(), 2u);
  EXPECT_EQ(r.active[0].line, 2);
  EXPECT_EQ(r.active[1].line, 3);
}

TEST(LintRules, R6CleanAwaitInBranchOrBoundFirst) {
  auto r = run({{"src/foo/bar.cpp",
                 "Task<void> f(bool c, A& a, X& x) {\n"
                 "  if (c) co_await x;\n"
                 "  const bool ok = co_await a.offer();\n"
                 "  if (!ok) co_return;\n"
                 "  while (c) co_await x;\n"
                 "}\n"}});
  EXPECT_TRUE(r.active.empty());
}

TEST(LintRules, R6AllowedWithReason) {
  auto r = run({{"bench/foo.cpp",
                 "Task<void> f(A& a) {\n"
                 "  // dcs-lint: allow(R6, a local with a destructor is in "
                 "scope)\n"
                 "  if (co_await a.offer()) {}\n"
                 "}\n"}});
  EXPECT_TRUE(r.active.empty());
  EXPECT_EQ(r.suppressed.size(), 1u);
}

// --- report determinism ---------------------------------------------------

TEST(LintRules, ReportsAreByteStableAndSorted) {
  std::vector<InputFile> files = {
      {"src/zzz/late.cpp", "int a() { return rand(); }\n"},
      {"src/aaa/early.cpp",
       "#include <mutex>\nint b() { return rand(); }\n"}};
  auto r1 = run(files);
  auto r2 = run(files);
  EXPECT_EQ(render_text(r1), render_text(r2));
  EXPECT_EQ(render_json(r1), render_json(r2));
  ASSERT_EQ(r1.active.size(), 3u);
  EXPECT_EQ(r1.active[0].path, "src/aaa/early.cpp");
  EXPECT_EQ(r1.active[2].path, "src/zzz/late.cpp");
  EXPECT_NE(render_json(r1).find("\"format\": \"dcs-lint-v1\""),
            std::string::npos);
}

}  // namespace
}  // namespace dcs::lint
