// dcs-lint driver: file discovery, inline suppressions and reporting on
// top of the rule engine (rules.hpp).
//
// Suppressions are inline comments, one per finding site, on the same line
// or the line above:
//
//     // dcs-lint: allow(R1, wall-clock telemetry never feeds sim state)
//
// A suppression must name a known rule and a non-empty reason; malformed
// ones are themselves findings (rule S1).  Output is deterministic:
// findings are position-sorted and the JSON report (`dcs-lint-v1`) carries
// no timestamps or absolute paths.
#pragma once

#include <string>
#include <vector>

#include "lint/rules.hpp"

namespace dcs::lint {

struct InputFile {
  std::string path;  // repo-relative, '/' separators
  std::string text;
};

struct AnalysisResult {
  std::vector<Finding> active;      // gate on these (exit 1 when non-empty)
  std::vector<Finding> suppressed;  // muted by inline allow(...)
  int files_scanned = 0;
};

/// Full pipeline over in-memory files: lex, build model, run rules, parse
/// and apply suppressions.  Pure — used directly by the fixture tests.
AnalysisResult analyze(const std::vector<InputFile>& inputs,
                       const Config& config);

/// Deterministic human-readable report (findings + summary line).
std::string render_text(const AnalysisResult& result);
/// Deterministic `dcs-lint-v1` JSON report.
std::string render_json(const AnalysisResult& result);

/// Recursively loads `*.hpp` / `*.cpp` under root's src/, bench/, tools/,
/// tests/ and examples/ directories (skipping build trees and dotdirs),
/// sorted by path.  On I/O failure returns empty and sets `error`.
std::vector<InputFile> load_repo(const std::string& root, std::string& error);

/// The dcs-lint command-line tool (tools/dcs_lint.cpp is a thin main).
/// Exit code: 0 clean, 1 findings, 2 usage or I/O error.
int lint_main(int argc, const char* const* argv);

}  // namespace dcs::lint
