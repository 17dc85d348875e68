#include "lint/lint.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>

#include "common/json.hpp"

namespace dcs::lint {

namespace {

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

// --- inline suppressions --------------------------------------------------

struct Allow {
  std::string rule;
  std::string reason;
  int line = 0;  // comment end line; covers this line and the next
  bool used = false;
};

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

// Parses every `allow(<rule>, <reason>)` in comments that START with the
// `dcs-lint:` marker (after the comment delimiters); malformed ones become
// S1 findings.  Start-anchoring keeps prose that merely mentions the
// marker mid-sentence from being parsed as a suppression.
std::string strip_comment_decor(std::string_view text) {
  while (!text.empty() && (text.front() == '/' || text.front() == '*' ||
                           text.front() == '!' || text.front() == ' ' ||
                           text.front() == '\t')) {
    text.remove_prefix(1);
  }
  return std::string(text);
}

// True while the last `allow(` in `text` has no closing paren yet — the
// reason wraps onto a continuation comment line.
bool allow_unclosed(const std::string& text) {
  auto open = text.rfind("allow(");
  return open != std::string::npos &&
         text.find(')', open) == std::string::npos;
}

void collect_allows(const SourceFile& f, std::vector<Allow>& allows,
                    std::vector<Finding>& findings) {
  static const std::string kMarker = "dcs-lint:";
  const auto& comments = f.lexed.comments;
  for (std::size_t ci = 0; ci < comments.size(); ++ci) {
    const Comment& c = comments[ci];
    std::string text = strip_comment_decor(c.text);
    if (text.compare(0, kMarker.size(), kMarker) != 0) continue;
    // A wrapped reason continues on immediately-following comment lines.
    int cover_line = c.end_line;
    for (std::size_t cj = ci;
         allow_unclosed(text) && cj + 1 < comments.size() &&
         comments[cj + 1].line == comments[cj].end_line + 1;
         ++cj) {
      text += " " + strip_comment_decor(comments[cj + 1].text);
      cover_line = comments[cj + 1].end_line;
    }
    std::string_view rest = std::string_view(text).substr(kMarker.size());
    bool any = false;
    for (std::size_t pos = 0;;) {
      auto open = rest.find("allow(", pos);
      if (open == std::string_view::npos) break;
      auto close = rest.find(')', open);
      if (close == std::string_view::npos) break;
      any = true;
      std::string_view body = rest.substr(open + 6, close - open - 6);
      auto comma = body.find(',');
      std::string rule(trim(comma == std::string_view::npos
                                ? body
                                : body.substr(0, comma)));
      std::string reason(trim(comma == std::string_view::npos
                                  ? std::string_view()
                                  : body.substr(comma + 1)));
      if (!known_rule(rule)) {
        findings.push_back({"S1", f.path, c.line, c.col,
                            "suppression names unknown rule `" + rule +
                                "`; see docs/LINT.md for the catalog",
                            "allow(" + rule + ")"});
      } else if (reason.empty()) {
        findings.push_back({"S1", f.path, c.line, c.col,
                            "suppression for " + rule +
                                " must give a reason: `// dcs-lint: "
                                "allow(" + rule + ", <why>)`",
                            "allow(" + rule + ")"});
      } else {
        allows.push_back({rule, reason, cover_line, false});
      }
      pos = close + 1;
    }
    if (!any) {
      findings.push_back({"S1", f.path, c.line, c.col,
                          "`dcs-lint:` comment with no parsable "
                          "`allow(<rule>, <reason>)`",
                          "dcs-lint:"});
    }
  }
}

bool finding_pos_less(const Finding& a, const Finding& b) {
  return std::tie(a.path, a.line, a.col, a.rule, a.message) <
         std::tie(b.path, b.line, b.col, b.rule, b.message);
}

}  // namespace

std::string finding_fingerprint(const Finding& finding) {
  return hex16(
      fnv1a64(finding.rule + "|" + finding.path + "|" + finding.snippet));
}

AnalysisResult analyze(const std::vector<InputFile>& inputs,
                       const Config& config,
                       const std::vector<std::string>& baseline_keys) {
  std::vector<SourceFile> files;
  files.reserve(inputs.size());
  for (const InputFile& in : inputs) {
    SourceFile f;
    f.path = in.path;
    f.lexed = lex(in.text);
    f.includes = collect_includes(f.lexed);
    files.push_back(std::move(f));
  }
  RepoModel model = build_model(std::move(files), config);

  std::vector<Finding> findings = run_rules(model, config);
  std::map<std::string, std::vector<Allow>> allows_by_file;
  for (const SourceFile& f : model.files) {
    collect_allows(f, allows_by_file[f.path], findings);
  }

  AnalysisResult result;
  result.files_scanned = static_cast<int>(model.files.size());

  std::set<std::string> baseline(baseline_keys.begin(), baseline_keys.end());
  std::set<std::string> baseline_hit;
  for (Finding& finding : findings) {
    bool suppressed = false;
    auto it = allows_by_file.find(finding.path);
    if (it != allows_by_file.end()) {
      for (Allow& a : it->second) {
        if (a.rule == finding.rule &&
            (a.line == finding.line || a.line + 1 == finding.line)) {
          a.used = true;
          suppressed = true;
          break;
        }
      }
    }
    if (suppressed) {
      result.suppressed.push_back(std::move(finding));
      continue;
    }
    std::string key = finding.rule + "\t" + finding.path + "\t" +
                      finding_fingerprint(finding);
    if (baseline.count(key) != 0) {
      baseline_hit.insert(key);
      result.baselined.push_back(std::move(finding));
      continue;
    }
    result.active.push_back(std::move(finding));
  }
  result.stale_baseline =
      static_cast<int>(baseline.size() - baseline_hit.size());

  std::sort(result.active.begin(), result.active.end(), finding_pos_less);
  std::sort(result.suppressed.begin(), result.suppressed.end(),
            finding_pos_less);
  std::sort(result.baselined.begin(), result.baselined.end(),
            finding_pos_less);
  return result;
}

std::vector<std::string> parse_baseline(std::string_view text) {
  std::vector<std::string> keys;
  std::size_t start = 0;
  while (start <= text.size()) {
    auto end = text.find('\n', start);
    std::string_view line = text.substr(
        start, end == std::string_view::npos ? text.size() - start
                                             : end - start);
    line = trim(line);
    if (!line.empty() && line.front() != '#') keys.emplace_back(line);
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return keys;
}

std::string render_baseline(const std::vector<Finding>& findings) {
  std::set<std::string> keys;
  for (const Finding& f : findings) {
    keys.insert(f.rule + "\t" + f.path + "\t" + finding_fingerprint(f));
  }
  std::string out =
      "# dcs-lint baseline — known legacy findings muted during incremental\n"
      "# adoption (docs/LINT.md).  Regenerate with `dcs-lint "
      "--write-baseline`;\n"
      "# keep this file empty: fix or `// dcs-lint: allow(...)` instead.\n";
  for (const auto& k : keys) {
    out += k;
    out += '\n';
  }
  return out;
}

std::string render_text(const AnalysisResult& result) {
  std::ostringstream out;
  for (const Finding& f : result.active) {
    out << f.path << ":" << f.line << ":" << f.col << ": [" << f.rule << "] "
        << f.message << "\n";
  }
  out << "dcs-lint: " << result.active.size() << " finding(s) ("
      << result.suppressed.size() << " suppressed, "
      << result.baselined.size() << " baselined) across "
      << result.files_scanned << " files";
  if (result.stale_baseline > 0) {
    out << "; " << result.stale_baseline
        << " stale baseline entr(y/ies) — regenerate with --write-baseline";
  }
  out << "\n";
  return out.str();
}

std::string render_json(const AnalysisResult& result) {
  std::ostringstream out;
  out << "{\n  \"format\": \"dcs-lint-v1\",\n  \"files_scanned\": "
      << result.files_scanned << ",\n  \"counts\": {\"active\": "
      << result.active.size() << ", \"suppressed\": "
      << result.suppressed.size() << ", \"baselined\": "
      << result.baselined.size() << ", \"stale_baseline\": "
      << result.stale_baseline << "},\n  \"findings\": [";
  bool first = true;
  for (const Finding& f : result.active) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"rule\": \"" << f.rule << "\", \"path\": \""
        << json_escape(f.path) << "\", \"line\": " << f.line
        << ", \"col\": " << f.col << ", \"message\": \""
        << json_escape(f.message) << "\", \"snippet\": \""
        << json_escape(f.snippet) << "\", \"fingerprint\": \""
        << finding_fingerprint(f) << "\"}";
  }
  out << (first ? "" : "\n  ") << "]\n}\n";
  return out.str();
}

std::vector<InputFile> load_repo(const std::string& root, std::string& error) {
  namespace fs = std::filesystem;
  std::vector<InputFile> files;
  static const char* kDirs[] = {"src", "bench", "tools", "tests", "examples"};
  std::error_code ec;
  for (const char* dir : kDirs) {
    fs::path base = fs::path(root) / dir;
    if (!fs::is_directory(base, ec)) continue;
    for (fs::recursive_directory_iterator it(base, ec), end;
         it != end && !ec; it.increment(ec)) {
      const fs::path& p = it->path();
      std::string name = p.filename().string();
      if (it->is_directory() &&
          (name == "build" || (!name.empty() && name.front() == '.'))) {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      std::string ext = p.extension().string();
      if (ext != ".hpp" && ext != ".cpp") continue;
      std::ifstream in(p, std::ios::binary);
      if (!in) {
        error = "cannot read " + p.string();
        return {};
      }
      std::ostringstream text;
      text << in.rdbuf();
      std::string rel = fs::relative(p, root, ec).generic_string();
      if (ec) rel = p.generic_string();
      files.push_back({std::move(rel), text.str()});
    }
    if (ec) {
      error = "cannot scan " + base.string() + ": " + ec.message();
      return {};
    }
  }
  std::sort(files.begin(), files.end(),
            [](const InputFile& a, const InputFile& b) {
              return a.path < b.path;
            });
  return files;
}

int lint_main(int argc, const char* const* argv) {
  std::string root = ".";
  std::string json_out;
  std::string baseline_path;
  bool write_baseline = false;
  std::vector<std::string> only_under;

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "dcs-lint: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--root") {
      const char* v = value("--root");
      if (v == nullptr) return 2;
      root = v;
    } else if (arg == "--json") {
      const char* v = value("--json");
      if (v == nullptr) return 2;
      json_out = v;
    } else if (arg == "--baseline") {
      const char* v = value("--baseline");
      if (v == nullptr) return 2;
      baseline_path = v;
    } else if (arg == "--write-baseline") {
      write_baseline = true;
    } else if (arg == "--list-rules") {
      for (const RuleInfo& r : rule_catalog()) {
        std::cout << r.id << "  " << r.title << "\n    " << r.summary << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: dcs-lint [--root DIR] [--json FILE] [--baseline FILE]\n"
             "                [--write-baseline] [--list-rules] [PATH...]\n"
             "Lints src/ bench/ tools/ tests/ examples/ under --root for the\n"
             "repo invariants R1-R5 (docs/LINT.md).  PATH prefixes restrict\n"
             "which findings are reported (the whole repo is still scanned\n"
             "so cross-file analysis stays correct).  Exit: 0 clean, 1\n"
             "findings, 2 usage/I-O error.\n";
      return 0;
    } else if (!arg.empty() && arg.front() == '-') {
      std::cerr << "dcs-lint: unknown flag " << arg << " (see --help)\n";
      return 2;
    } else {
      only_under.emplace_back(arg);
    }
  }

  std::string error;
  std::vector<InputFile> inputs = load_repo(root, error);
  if (!error.empty()) {
    std::cerr << "dcs-lint: " << error << "\n";
    return 2;
  }
  if (inputs.empty()) {
    std::cerr << "dcs-lint: no source files under " << root << "\n";
    return 2;
  }

  if (baseline_path.empty()) {
    namespace fs = std::filesystem;
    fs::path def = fs::path(root) / ".dcs-lint-baseline";
    std::error_code ec;
    if (fs::is_regular_file(def, ec)) baseline_path = def.string();
  }
  std::vector<std::string> baseline_keys;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path, std::ios::binary);
    if (!in) {
      std::cerr << "dcs-lint: cannot read baseline " << baseline_path << "\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    baseline_keys = parse_baseline(text.str());
  }

  Config config;
  AnalysisResult result = analyze(inputs, config, baseline_keys);

  if (!only_under.empty()) {
    auto keep = [&](const Finding& f) {
      for (const auto& p : only_under) {
        if (f.path.rfind(p, 0) == 0) return true;
      }
      return false;
    };
    std::erase_if(result.active, [&](const Finding& f) { return !keep(f); });
  }

  if (write_baseline) {
    std::string path = baseline_path.empty()
                           ? root + "/.dcs-lint-baseline"
                           : baseline_path;
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::cerr << "dcs-lint: cannot write baseline " << path << "\n";
      return 2;
    }
    out << render_baseline(result.active);
    std::cout << "dcs-lint: wrote " << result.active.size()
              << " baseline entr(y/ies) to " << path << "\n";
    return 0;
  }

  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::binary);
    if (!out) {
      std::cerr << "dcs-lint: cannot write " << json_out << "\n";
      return 2;
    }
    out << render_json(result);
  }
  std::cout << render_text(result);
  return result.active.empty() ? 0 : 1;
}

}  // namespace dcs::lint
