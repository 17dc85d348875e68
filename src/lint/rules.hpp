// Rule engine for dcs-lint: the repo's determinism, concurrency and
// instrumentation invariants as mechanically checkable rules over lexed
// translation units.
//
// Rule catalog (docs/LINT.md has the full rationale):
//   R1 nondeterminism  — banned nondeterminism sources in sim-visible code
//                        (`rand`, `std::random_device`, wall-clock chrono
//                        clocks, `getenv`, `sleep_*`): anything that can make
//                        two runs with the same seed diverge.
//   R2 raw-concurrency — no raw `std::thread`/`std::mutex`/`std::atomic`/...
//                        outside the PDES worker internals allowlist; sim
//                        code must use engine sync (sim/sync.hpp) so the
//                        happens-before auditor sees the edges.
//   R3 ordered-output  — no unordered containers, and no pointer-keyed
//                        ordered containers, in emit-visible files (anything
//                        a trace/bench/post-mortem emitter includes):
//                        iteration order there leaks into output bytes.
//   R4 trace-literal   — every DCS_TRACE_*/DCS_LOG site names its category /
//                        name / opcode with string literals, keeping dumps
//                        byte-stable and grep-able.
//   R5 nodiscard-task  — Task/awaitable-returning functions in src headers
//                        are [[nodiscard]], either on the declaration or via
//                        a `class [[nodiscard]]` return type: a discarded
//                        Task is a coroutine that silently never runs.
//   R6 await-in-condition — no `co_await` inside the parenthesised
//                        condition of an `if` or `while`: GCC 12 can resume
//                        such a coroutine frame without running the branch
//                        (`if (c) co_await x;` is fine).
//   S1 suppression     — inline `// dcs-lint: allow(<rule>, <reason>)`
//                        comments must name a known rule and give a reason
//                        (enforced by the driver, which owns comments).
//
// All rules are path-scoped (R1/R2/R5 to src/, R3 to the emitter include
// closure, R4/R6 everywhere) and report deterministic, position-sorted
// findings; the driver layers inline suppressions on top.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lint/include_graph.hpp"
#include "lint/lexer.hpp"

namespace dcs::lint {

struct Finding {
  std::string rule;
  std::string path;
  int line = 0;
  int col = 0;
  std::string message;
  std::string snippet;  // offending token(s), in the JSON report
};

struct RuleInfo {
  const char* id;
  const char* title;
  const char* summary;
};

/// Stable catalog of every rule id the tool knows (R1..R6, S1).
const std::vector<RuleInfo>& rule_catalog();
bool known_rule(std::string_view id);

struct SourceFile {
  std::string path;  // repo-relative, '/' separators
  LexedFile lexed;
  std::vector<IncludeRef> includes;
};

struct Config {
  // R2: PDES worker + slab internals are the only places raw threading
  // primitives are legal; everything else goes through engine sync.
  std::vector<std::string> concurrency_allowed_paths = {
      "src/sim/shard.hpp", "src/sim/shard.cpp", "src/sim/slab.hpp"};
  // R3: roots of the emit-visible include closure (prefix match).
  std::vector<std::string> emit_root_prefixes = {"src/trace/", "src/obs/"};
};

struct RepoModel {
  std::vector<SourceFile> files;          // sorted by path
  std::set<std::string> nodiscard_types;  // `class [[nodiscard]] X` names
  std::set<std::string> emit_visible;     // R3 scope (paths)
};

/// Lexes nothing itself: callers hand over already-lexed files.  Resolves
/// the include graph, computes the emit-visible closure, and collects
/// `[[nodiscard]]`-marked type names across all files.
RepoModel build_model(std::vector<SourceFile> files, const Config& config);

/// Runs R1–R6 over the model.  Findings come back unfiltered (no
/// suppressions) in file/position order.
std::vector<Finding> run_rules(const RepoModel& model, const Config& config);

}  // namespace dcs::lint
