#!/usr/bin/env sh
# Tier-1 verification: configure, build, and run the full ctest suite.
# This is the exact sequence CI and reviewers use; a fresh clone passes with
# nothing but CMake, a C++20 toolchain and GoogleTest (found by the
# top-level CMakeLists; the benches need no other package).
#
# Usage: tools/run_tier1.sh [--san asan|tsan] [--bench-json DIR] [build-dir]
#   --san asan        build + test under AddressSanitizer/UBSan (CMake preset)
#   --san tsan        build + test under ThreadSanitizer (CMake preset)
#   --bench-json DIR  after the tests pass, run every bench and write
#                     BENCH_<name>.json files into DIR (tools/run_benches.sh,
#                     the same telemetry CI's bench-smoke job archives; see
#                     docs/BENCHMARKS.md)
# With no flags, the plain RelWithDebInfo build dir (default: build) is
# used exactly as before.
set -eu

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

SAN=""
BENCH_JSON_DIR=""
while true; do
  case "${1:-}" in
    --san)
      SAN="${2:?usage: run_tier1.sh --san asan|tsan}"
      shift 2
      case "$SAN" in
        asan|tsan) ;;
        *) echo "unknown sanitizer preset: $SAN (want asan or tsan)" >&2
           exit 2 ;;
      esac ;;
    --bench-json)
      BENCH_JSON_DIR="${2:?usage: run_tier1.sh --bench-json DIR}"
      shift 2 ;;
    *) break ;;
  esac
done

if [ -n "$SAN" ]; then
  cmake --preset "$SAN"
  cmake --build --preset "$SAN" -j "$JOBS"
  ctest --preset "$SAN" -j "$JOBS"
  if [ -n "$BENCH_JSON_DIR" ]; then
    tools/run_benches.sh "build-$SAN/bench" "$BENCH_JSON_DIR"
  fi
else
  BUILD_DIR="${1:-build}"
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$JOBS"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
  if [ -n "$BENCH_JSON_DIR" ]; then
    tools/run_benches.sh "$BUILD_DIR/bench" "$BENCH_JSON_DIR"
  fi
fi
