#!/usr/bin/env sh
# Writes BENCH_<name>.json (dcs-bench-v1) for every bench binary in
# BENCH_DIR into OUT_DIR; the paper tables go to /dev/null.  This is the
# one bench list `tools/run_tier1.sh --bench-json` and CI's bench-smoke
# job share: whatever bench/CMakeLists.txt builds.
#
# Usage: tools/run_benches.sh BENCH_DIR OUT_DIR
set -eu
bench_dir="${1:?usage: run_benches.sh BENCH_DIR OUT_DIR}"
out="${2:?usage: run_benches.sh BENCH_DIR OUT_DIR}"
mkdir -p "$out"
for bin in "$bench_dir"/bench_*; do
  name="$(basename "$bin")"
  "$bin" --bench-json "$out/BENCH_${name#bench_}.json" >/dev/null
done
echo "bench telemetry written to $out"
