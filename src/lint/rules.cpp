#include "lint/rules.hpp"

#include <algorithm>
#include <map>
#include <string_view>

namespace dcs::lint {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}
bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}
bool in_src(std::string_view path) { return starts_with(path, "src/"); }

bool is_tok(const std::vector<Token>& t, std::size_t i, std::string_view txt) {
  return i < t.size() && t[i].text == txt;
}

void add(std::vector<Finding>& out, const char* rule, const SourceFile& f,
         const Token& t, std::string message, std::string snippet) {
  out.push_back({rule, f.path, t.line, t.col, std::move(message),
                 std::move(snippet)});
}

// --- R1: banned nondeterminism sources in sim-visible code ----------------

const std::map<std::string_view, std::string_view>& r1_banned() {
  static const std::map<std::string_view, std::string_view> kBanned = {
      {"rand", "use dcs::common::Rng seeded from the scenario"},
      {"srand", "use dcs::common::Rng seeded from the scenario"},
      {"rand_r", "use dcs::common::Rng seeded from the scenario"},
      {"drand48", "use dcs::common::Rng seeded from the scenario"},
      {"lrand48", "use dcs::common::Rng seeded from the scenario"},
      {"mrand48", "use dcs::common::Rng seeded from the scenario"},
      {"random_device", "use dcs::common::Rng seeded from the scenario"},
      {"steady_clock", "use sim virtual time (Engine::now)"},
      {"system_clock", "use sim virtual time (Engine::now)"},
      {"high_resolution_clock", "use sim virtual time (Engine::now)"},
      {"gettimeofday", "use sim virtual time (Engine::now)"},
      {"clock_gettime", "use sim virtual time (Engine::now)"},
      {"getenv", "environment must not steer sim-visible behavior"},
      {"secure_getenv", "environment must not steer sim-visible behavior"},
      {"setenv", "environment must not steer sim-visible behavior"},
      {"putenv", "environment must not steer sim-visible behavior"},
      {"sleep_for", "use engine timers (co_await Engine::delay)"},
      {"sleep_until", "use engine timers (co_await Engine::delay)"},
      {"usleep", "use engine timers (co_await Engine::delay)"},
      {"nanosleep", "use engine timers (co_await Engine::delay)"},
  };
  return kBanned;
}

void rule_r1(const SourceFile& f, std::vector<Finding>& out) {
  if (!in_src(f.path)) return;
  for (const Token& t : f.lexed.tokens) {
    if (t.kind != TokKind::kIdent) continue;
    if (t.in_directive && t.directive == "include") continue;
    auto it = r1_banned().find(t.text);
    if (it == r1_banned().end()) continue;
    add(out, "R1", f, t,
        "nondeterminism source `" + t.text + "` in sim-visible code; " +
            std::string(it->second),
        t.text);
  }
}

// --- R2: raw threading primitives outside the engine-sync allowlist -------

const std::set<std::string_view>& r2_banned_types() {
  static const std::set<std::string_view> kBanned = {
      "thread",        "jthread",
      "mutex",         "timed_mutex",
      "recursive_mutex", "recursive_timed_mutex",
      "shared_mutex",  "shared_timed_mutex",
      "condition_variable", "condition_variable_any",
      "atomic",        "atomic_flag",
      "atomic_ref",    "counting_semaphore",
      "binary_semaphore", "barrier",
      "latch",         "future",
      "shared_future", "promise",
      "async",         "call_once",
      "once_flag",     "lock_guard",
      "unique_lock",   "scoped_lock",
      "shared_lock",   "stop_source",
      "stop_token",
  };
  return kBanned;
}

const std::set<std::string_view>& r2_banned_headers() {
  static const std::set<std::string_view> kBanned = {
      "thread", "mutex",     "shared_mutex", "condition_variable", "atomic",
      "semaphore", "barrier", "latch",       "future",             "stop_token",
  };
  return kBanned;
}

void rule_r2(const SourceFile& f, const Config& config,
             std::vector<Finding>& out) {
  if (!in_src(f.path)) return;
  for (const auto& allowed : config.concurrency_allowed_paths) {
    if (f.path == allowed) return;
  }
  const char* kWhy =
      "; sim code must use engine sync (sim/sync.hpp) so the "
      "happens-before auditor sees the edge";
  for (const IncludeRef& inc : f.includes) {
    if (inc.angled && r2_banned_headers().count(inc.path) != 0) {
      Token at;
      at.line = inc.line;
      at.col = 1;
      add(out, "R2", f, at,
          "raw threading header <" + inc.path + ">" + kWhy,
          "<" + inc.path + ">");
    }
  }
  const auto& toks = f.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (t.in_directive && t.directive == "include") continue;
    if (starts_with(t.text, "pthread_")) {
      add(out, "R2", f, t, "raw pthread call `" + t.text + "`" + kWhy,
          t.text);
      continue;
    }
    // `std :: <banned>` — qualification required, so locals named e.g.
    // `mutex` in allowlisted wrappers don't trip the rule.
    if (t.text == "std" && is_tok(toks, i + 1, "::") &&
        i + 2 < toks.size() && toks[i + 2].kind == TokKind::kIdent) {
      const std::string& name = toks[i + 2].text;
      if (r2_banned_types().count(name) != 0 ||
          starts_with(name, "atomic_")) {
        add(out, "R2", f, toks[i + 2],
            "raw threading primitive `std::" + name + "`" + kWhy,
            "std::" + name);
      }
    }
  }
}

// --- R3: iteration-order hazards in emit-visible files --------------------

void rule_r3(const SourceFile& f, const RepoModel& model,
             std::vector<Finding>& out) {
  if (model.emit_visible.count(f.path) == 0) return;
  static const std::set<std::string_view> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  static const std::set<std::string_view> kOrdered = {"map", "multimap",
                                                      "set", "multiset"};
  const auto& toks = f.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (t.in_directive && t.directive == "include") continue;
    if (kUnordered.count(t.text) != 0) {
      add(out, "R3", f, t,
          "`std::" + t.text +
              "` in emit-visible code: its iteration order leaks into "
              "trace/bench/post-mortem output bytes; use an ordered "
              "container with a value-based key",
          t.text);
      continue;
    }
    // Pointer-keyed ordered containers: `std::map<T*, ...>` orders by
    // allocation address, which is just as run-dependent.
    if (t.text == "std" && is_tok(toks, i + 1, "::") && i + 3 < toks.size() &&
        toks[i + 2].kind == TokKind::kIdent &&
        kOrdered.count(toks[i + 2].text) != 0 && is_tok(toks, i + 3, "<")) {
      int depth = 1;
      bool pointer_key = false;
      for (std::size_t j = i + 4; j < toks.size() && depth > 0; ++j) {
        const std::string& x = toks[j].text;
        if (x == "<") {
          ++depth;
        } else if (x == ">") {
          --depth;
        } else if (x == ">>") {
          depth -= 2;
        } else if (x == "," && depth == 1) {
          break;  // end of the key type argument
        } else if (x == "*" && depth == 1) {
          pointer_key = true;
        }
      }
      if (pointer_key) {
        add(out, "R3", f, toks[i + 2],
            "pointer-keyed `std::" + toks[i + 2].text +
                "` in emit-visible code: address order is run-dependent "
                "and leaks into output; key by a stable id instead",
            "std::" + toks[i + 2].text + "<*>");
      }
    }
  }
}

// --- R4: literal names at every trace/log site ----------------------------

struct TraceMacro {
  std::string_view name;
  int first_literal_arg;  // 0-based argument positions that must be literals
  int second_literal_arg;  // -1: the macro has a single checked argument
};

const std::vector<TraceMacro>& r4_macros() {
  static const std::vector<TraceMacro> kMacros = {
      {"DCS_TRACE_SPAN", 0, 1},
      {"DCS_TRACE_SPAN_INTO", 1, 2},
      {"DCS_TRACE_INSTANT", 0, 1},
      {"DCS_TRACE_COST_SPAN", 1, 2},
      {"DCS_LOG", 0, 1},
      // Observability names: time-series ingest/rule sites and SLO rule
      // names must be grep-able literals, or the dcs-timeseries-v1 dump's
      // byte stability rests on runtime string values.
      {"DCS_SERIES", 0, -1},
      {"DCS_SLO_NAME", 0, -1},
      // Hot-object attribution: the sketch domain must be a literal, or
      // the domain set of the dcs-timeseries-v1 document's `hotset`
      // section depends on runtime strings.
      {"DCS_HOT", 0, -1},
  };
  return kMacros;
}

void rule_r4(const SourceFile& f, std::vector<Finding>& out) {
  const auto& toks = f.lexed.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || t.in_directive) continue;
    const TraceMacro* macro = nullptr;
    for (const auto& m : r4_macros()) {
      if (t.text == m.name) {
        macro = &m;
        break;
      }
    }
    if (macro == nullptr || !is_tok(toks, i + 1, "(")) continue;
    // Split the argument list at depth-1 commas.
    std::vector<std::vector<const Token*>> args(1);
    int depth = 1;
    for (std::size_t j = i + 2; j < toks.size() && depth > 0; ++j) {
      const std::string& x = toks[j].text;
      if (x == "(" || x == "[" || x == "{") {
        ++depth;
      } else if (x == ")" || x == "]" || x == "}") {
        if (--depth == 0) break;
      } else if (x == "," && depth == 1) {
        args.emplace_back();
        continue;
      }
      args.back().push_back(&toks[j]);
    }
    for (int pos : {macro->first_literal_arg, macro->second_literal_arg}) {
      if (pos < 0 || pos >= static_cast<int>(args.size())) continue;
      const auto& arg = args[static_cast<std::size_t>(pos)];
      bool literal = !arg.empty();
      std::string text;
      for (const Token* a : arg) {
        if (a->kind != TokKind::kString) literal = false;
        if (!text.empty()) text += " ";
        text += a->text;
      }
      if (!literal) {
        if (text.size() > 48) text = text.substr(0, 48) + "...";
        add(out, "R4", f, t,
            "`" + t.text + "` argument " + std::to_string(pos + 1) +
                " must be a string literal so dumps stay byte-stable (got `" +
                text + "`)",
            t.text + ":" + text);
      }
    }
  }
}

// --- R5: [[nodiscard]] on Task/awaitable-returning header functions -------

bool awaitable_type_name(std::string_view name) {
  return name == "Task" || ends_with(name, "Awaiter") ||
         ends_with(name, "Awaitable");
}

// Skips a balanced template argument list starting at the `<` token;
// returns the index just past the matching close (treating `>>` as two).
std::size_t skip_template_args(const std::vector<Token>& toks,
                               std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    const std::string& x = toks[j].text;
    if (x == "<") {
      ++depth;
    } else if (x == ">") {
      if (--depth <= 0) return j + 1;
    } else if (x == ">>") {
      depth -= 2;
      if (depth <= 0) return j + 1;
    } else if (x == ";" || x == "{") {
      break;  // malformed / not actually a template argument list
    }
  }
  return open;  // give up: caller treats as non-match
}

void rule_r5(const SourceFile& f, const RepoModel& model,
             std::vector<Finding>& out) {
  if (!in_src(f.path) || !ends_with(f.path, ".hpp")) return;
  const auto& toks = f.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || t.in_directive) continue;
    if (!awaitable_type_name(t.text)) continue;
    // Not a return type when preceded by class/struct/typename (declaration
    // or template parameter) — or when it's the thing being declared.
    if (i > 0 && (toks[i - 1].text == "class" || toks[i - 1].text == "struct" ||
                  toks[i - 1].text == "typename" || toks[i - 1].text == "~")) {
      continue;
    }
    std::size_t j = i + 1;
    if (is_tok(toks, j, "<")) {
      std::size_t past = skip_template_args(toks, j);
      if (past == j) continue;
      j = past;
    }
    // Return type followed by a function name and its parameter list.
    if (j >= toks.size() || toks[j].kind != TokKind::kIdent ||
        toks[j].text == "operator" || !is_tok(toks, j + 1, "(")) {
      continue;
    }
    // Coroutine-protocol members are invoked by the compiler, never by
    // callers that could discard the result.
    if (toks[j].text == "initial_suspend" || toks[j].text == "final_suspend" ||
        toks[j].text == "await_transform") {
      continue;
    }
    if (model.nodiscard_types.count(t.text) != 0) continue;
    // Look back to the start of the declaration for a [[nodiscard]].
    bool covered = false;
    for (std::size_t back = i; back-- > 0;) {
      const std::string& x = toks[back].text;
      if (x == ";" || x == "{" || x == "}" || x == "#") break;
      if (x == "nodiscard") {
        covered = true;
        break;
      }
      if (i - back > 40) break;
    }
    if (!covered) {
      add(out, "R5", f, t,
          "awaitable-returning function `" + toks[j].text +
              "` must be [[nodiscard]] (or return a `class [[nodiscard]]` "
              "type): a discarded " +
              t.text + " is a coroutine that never runs",
          t.text + " " + toks[j].text);
    }
  }
}

// --- R6: no co_await inside an if/while condition -----------------------

void rule_r6(const SourceFile& f, std::vector<Finding>& out) {
  const auto& toks = f.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || t.in_directive ||
        (t.text != "if" && t.text != "while")) {
      continue;
    }
    std::size_t j = i + 1;
    if (!is_tok(toks, j, "(")) continue;
    int depth = 0;
    for (; j < toks.size(); ++j) {
      const std::string& x = toks[j].text;
      if (x == "(") {
        ++depth;
      } else if (x == ")") {
        if (--depth == 0) break;
      } else if (x == "co_await") {
        add(out, "R6", f, toks[j],
            "`co_await` in the condition of `" + t.text +
                "`: GCC 12 can resume such a frame without running the "
                "branch; bind the result to a local first",
            t.text + " (co_await)");
      }
    }
  }
}

// --- model construction ---------------------------------------------------

void collect_nodiscard_types(const SourceFile& f,
                             std::set<std::string>& types) {
  const auto& toks = f.lexed.tokens;
  for (std::size_t i = 0; i + 4 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        (toks[i].text != "class" && toks[i].text != "struct")) {
      continue;
    }
    if (!is_tok(toks, i + 1, "[") || !is_tok(toks, i + 2, "[")) continue;
    bool nodiscard = false;
    std::size_t j = i + 3;
    for (; j + 1 < toks.size() && j < i + 16; ++j) {
      if (toks[j].text == "nodiscard") nodiscard = true;
      if (toks[j].text == "]" && is_tok(toks, j + 1, "]")) break;
    }
    if (!nodiscard || j + 2 >= toks.size()) continue;
    const Token& name = toks[j + 2];
    if (name.kind == TokKind::kIdent) types.insert(name.text);
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"R1", "nondeterminism",
       "banned nondeterminism sources (rand, random_device, wall clocks, "
       "getenv, sleeps) in src/"},
      {"R2", "raw-concurrency",
       "raw std::thread/mutex/atomic outside the PDES worker allowlist; use "
       "engine sync so the auditor sees the edges"},
      {"R3", "ordered-output",
       "unordered or pointer-keyed containers in files included by "
       "trace/bench/post-mortem emitters"},
      {"R4", "trace-literal",
       "DCS_TRACE_*/DCS_LOG category and name arguments must be string "
       "literals"},
      {"R5", "nodiscard-task",
       "Task/awaitable-returning functions in src headers must be "
       "[[nodiscard]] or return a class [[nodiscard]] type"},
      {"R6", "await-in-condition",
       "no co_await inside the parenthesised condition of an if or while; "
       "bind the awaited result to a local first"},
      {"S1", "suppression",
       "dcs-lint: allow(...) comments must name a known rule and a reason"},
  };
  return kCatalog;
}

bool known_rule(std::string_view id) {
  for (const auto& r : rule_catalog()) {
    if (id == r.id) return true;
  }
  return false;
}

RepoModel build_model(std::vector<SourceFile> files, const Config& config) {
  RepoModel model;
  model.files = std::move(files);
  std::sort(model.files.begin(), model.files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });

  std::set<std::string> known;
  for (const auto& f : model.files) known.insert(f.path);

  std::map<std::string, std::vector<std::string>> edges;
  std::set<std::string> roots;
  for (const auto& f : model.files) {
    for (const IncludeRef& inc : f.includes) {
      if (inc.angled) continue;  // system headers are out of scope
      if (auto resolved = resolve_include(inc.path, f.path, known)) {
        edges[f.path].push_back(*resolved);
      }
    }
    for (const auto& prefix : config.emit_root_prefixes) {
      if (starts_with(f.path, prefix)) roots.insert(f.path);
    }
    collect_nodiscard_types(f, model.nodiscard_types);
  }
  model.emit_visible = reachable_from(edges, roots);
  return model;
}

std::vector<Finding> run_rules(const RepoModel& model, const Config& config) {
  std::vector<Finding> out;
  for (const SourceFile& f : model.files) {
    rule_r1(f, out);
    rule_r2(f, config, out);
    rule_r3(f, model, out);
    rule_r4(f, out);
    rule_r5(f, model, out);
    rule_r6(f, out);
  }
  return out;
}

}  // namespace dcs::lint
