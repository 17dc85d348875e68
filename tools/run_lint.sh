#!/usr/bin/env sh
# Static lint for the repo, two layers:
#
#   1. dcs-lint — the in-tree analyzer for the determinism / concurrency /
#      instrumentation invariants R1-R6 (docs/LINT.md).  Built with the
#      normal CMake toolchain, so it runs everywhere — including the
#      GCC-only container image — and never self-skips.
#   2. clang-tidy — the repo .clang-tidy profile over every translation
#      unit in src/, bench/, tools/ and tests/, using the compile database
#      from the default CMake preset.  Skipped with a notice when
#      clang-tidy is not installed; CI runs it on an image that has it and
#      fails on any finding (WarningsAsErrors: '*' in .clang-tidy).
#
# Usage: tools/run_lint.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
STATUS=0

if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
fi

# --- dcs-lint: always runs, gates on exit code ---------------------------
cmake --build "$BUILD_DIR" --target dcs-lint >/dev/null
"$BUILD_DIR/tools/dcs-lint" --root . || STATUS=1

# --- clang-tidy: best-effort by toolchain availability -------------------
TIDY="$(command -v clang-tidy || true)"
if [ -z "$TIDY" ]; then
  echo "run_lint.sh: clang-tidy not found on PATH; skipping tidy layer" \
       "(install clang-tidy to enable)" >&2
  exit "$STATUS"
fi

# Lint every translation unit under src/, bench/, tools/ and tests/.
# run-clang-tidy parallelizes and aggregates exit status; fall back to a
# serial loop that keeps going past failing files and reports all findings
# before exiting nonzero.
RUNNER="$(command -v run-clang-tidy || true)"
if [ -n "$RUNNER" ]; then
  "$RUNNER" -p "$BUILD_DIR" -quiet \
    "(src|bench|tools|tests)/.*\.cpp$" || STATUS=1
else
  for f in src/*/*.cpp bench/*.cpp tools/*.cpp tests/*.cpp; do
    [ -e "$f" ] || continue
    "$TIDY" -p "$BUILD_DIR" --quiet "$f" || STATUS=1
  done
fi
exit "$STATUS"
