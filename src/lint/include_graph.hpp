// Include-graph walker for dcs-lint.
//
// Extracts `#include` operands from a lexed file, resolves quoted includes
// against the repo layout (includer directory, then `src/`, then the repo
// root — matching the include paths the CMake targets actually use), and
// computes transitive closures over the resulting first-party graph.
//
// dcs-lint uses the closure to scope rule R3: a file is "emit-visible" —
// its container iteration order can leak into trace/bench/post-mortem
// output — if a designated emitter root (src/trace/*, src/obs/*)
// includes it transitively, not just if it lives in those directories.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hpp"

namespace dcs::lint {

struct IncludeRef {
  std::string path;  // operand as written, without quotes/angle brackets
  bool angled = false;
  int line = 0;
};

/// Scans the token stream for `#include` directives and returns their
/// operands in file order.  Both `"..."` and `<...>` forms are recovered;
/// angle operands are reassembled from the punctuation tokens between
/// `<` and `>`.
std::vector<IncludeRef> collect_includes(const LexedFile& file);

/// Resolves a quoted include operand to a repo-relative path, trying the
/// includer's directory, then `src/`, then `bench/`, then the repo root.
/// Returns nullopt when no scanned file matches (system or generated
/// headers).  `known` holds repo-relative paths with '/' separators.
std::optional<std::string> resolve_include(const std::string& operand,
                                           const std::string& includer,
                                           const std::set<std::string>& known);

/// Forward reachability over an include adjacency map: every file included
/// transitively by any root, roots themselves included.
std::set<std::string> reachable_from(
    const std::map<std::string, std::vector<std::string>>& edges,
    const std::set<std::string>& roots);

}  // namespace dcs::lint
