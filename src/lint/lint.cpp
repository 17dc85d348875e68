#include "lint/lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "common/args.hpp"
#include "common/json.hpp"

namespace dcs::lint {

namespace {

// --- inline suppressions --------------------------------------------------

struct Allow {
  std::string rule;
  std::string reason;
  int line = 0;  // comment end line; covers this line and the next
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
        allows.push_back({rule, reason, cover_line});
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

AnalysisResult analyze(const std::vector<InputFile>& inputs,
                       const Config& config) {
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
  for (Finding& finding : findings) {
    const auto it = allows_by_file.find(finding.path);
    const bool suppressed =
        it != allows_by_file.end() &&
        std::any_of(it->second.begin(), it->second.end(),
                    [&](const Allow& a) {
                      return a.rule == finding.rule &&
                             (a.line == finding.line ||
                              a.line + 1 == finding.line);
                    });
    (suppressed ? result.suppressed : result.active)
        .push_back(std::move(finding));
  }

  std::sort(result.active.begin(), result.active.end(), finding_pos_less);
  std::sort(result.suppressed.begin(), result.suppressed.end(),
            finding_pos_less);
  return result;
}

std::string render_text(const AnalysisResult& result) {
  std::ostringstream out;
  for (const Finding& f : result.active) {
    out << f.path << ":" << f.line << ":" << f.col << ": [" << f.rule << "] "
        << f.message << "\n";
  }
  out << "dcs-lint: " << result.active.size() << " finding(s) ("
      << result.suppressed.size() << " suppressed) across "
      << result.files_scanned << " files\n";
  return out.str();
}

std::string render_json(const AnalysisResult& result) {
  std::ostringstream out;
  out << "{\n  \"format\": \"dcs-lint-v1\",\n  \"files_scanned\": "
      << result.files_scanned << ",\n  \"counts\": {\"active\": "
      << result.active.size() << ", \"suppressed\": "
      << result.suppressed.size() << "},\n  \"findings\": [";
  bool first = true;
  for (const Finding& f : result.active) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"rule\": \"" << f.rule << "\", \"path\": \""
        << json_escape(f.path) << "\", \"line\": " << f.line
        << ", \"col\": " << f.col << ", \"message\": \""
        << json_escape(f.message) << "\", \"snippet\": \""
        << json_escape(f.snippet) << "\"}";
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
  const Args args(argc, argv, {"--list-rules", "--help", "-h"});
  const bool help = args.given("--help") || args.given("-h");
  const bool list_rules = args.given("--list-rules");
  const std::string root = args.text("--root", ".");
  const std::string json_out = args.text("--json");
  std::vector<std::string> only_under;
  while (auto path = args.positional()) only_under.push_back(*path);
  args.reject_unread();

  if (help) {
    std::cout
        << "usage: dcs-lint [--root DIR] [--json FILE] [--list-rules] "
           "[PATH...]\n"
           "Lints src/ bench/ tools/ tests/ examples/ under --root for the\n"
           "repo invariants R1-R6 (docs/LINT.md).  PATH prefixes restrict\n"
           "which findings are reported (the whole repo is still scanned\n"
           "so cross-file analysis stays correct).  Flags take `--flag value`\n"
           "or `--flag=value`.  Exit: 0 clean, 1 findings, 2 usage/I-O "
           "error.\n";
    return 0;
  }
  if (list_rules) {
    for (const RuleInfo& r : rule_catalog()) {
      std::cout << r.id << "  " << r.title << "\n    " << r.summary << "\n";
    }
    return 0;
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

  AnalysisResult result = analyze(inputs, Config{});

  if (!only_under.empty()) {
    auto keep = [&](const Finding& f) {
      for (const auto& p : only_under) {
        if (f.path.rfind(p, 0) == 0) return true;
      }
      return false;
    };
    std::erase_if(result.active, [&](const Finding& f) { return !keep(f); });
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
