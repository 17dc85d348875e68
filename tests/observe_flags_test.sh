#!/usr/bin/env sh
# Every observability flag a binary accepts is honoured.  Runs each `dcs`
# run command and each harnessed bench with every file-valued flag at once
# and asserts that each file exists and is non-empty; then checks that
# two `bench_sdp --trace-out` runs are byte-identical, that `dcs flame`
# reads that trace, that an unwritable file or a lost post-mortem fails
# the run with exit 1, and that `dcs wedge` writes its post-mortem.
#
# Usage: tests/observe_flags_test.sh DCS_BINARY HARNESSED_BENCH_BINARY...
dcs="$1"
shift
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
status=0
fail() {
  echo "FAIL: $*"
  status=1
}

# A rule file every harness accepts (obs/slo.hpp syntax).
echo "rule slow p99 series=no.such.series threshold=1000000" >"$dir/rules.slo"

# observe NAME COMMAND...: runs COMMAND with every file-valued flag.
# bench_monitor_zipf traces ~700 MB, so its trace goes to /dev/full
# instead: the write must fail the run with exit 1.
observe() {
  name="$1"
  shift
  out="$dir/$name"
  mkdir -p "$out/pm"
  trace="$out/trace.json"
  want=0
  files="bench.json wall.json critical_path.txt metrics.txt trace.json"
  files="$files timeseries.json hotset.json exemplars.json"
  if [ "$name" = bench_monitor_zipf ]; then
    trace=/dev/full
    want=1
    files="$(echo "$files" | sed 's/ trace.json//')"
  fi
  "$@" --bench-json "$out/bench.json" --bench-wall-json "$out/wall.json" \
    --critical-path "$out/critical_path.txt" \
    --metrics-out "$out/metrics.txt" --trace-out "$trace" \
    --timeseries-out "$out/timeseries.json" --slo "$dir/rules.slo" \
    --hotset-out "$out/hotset.json" --exemplars-out "$out/exemplars.json" \
    --postmortem-dir "$out/pm" >/dev/null 2>"$out/stderr"
  rc=$?
  [ "$rc" -eq "$want" ] ||
    fail "$name exited $rc, want $want: $(cat "$out/stderr")"
  for f in $files; do
    [ -s "$out/$f" ] || fail "$name wrote no $f"
  done
}

for cmd in cache locks monitor storm; do
  observe "dcs_$cmd" "$dcs" "$cmd"
done
for bin in "$@"; do
  observe "$(basename "$bin")" "$bin"
done

# Same-seed traces are byte-identical, and `dcs flame` attributes them.
for bin in "$@"; do
  [ "$(basename "$bin")" = bench_sdp ] || continue
  "$bin" --trace-out "$dir/sdp.1.json" 2>/dev/null
  "$bin" --trace-out "$dir/sdp.2.json" 2>/dev/null
  cmp -s "$dir/sdp.1.json" "$dir/sdp.2.json" ||
    fail "bench_sdp --trace-out differs between two runs"
  "$dcs" flame "$dir/sdp.1.json" >/dev/null 2>&1 ||
    fail "dcs flame rejected the bench_sdp trace"
  "$bin" --trace-out /nonexistent/sdp.json >/dev/null 2>&1
  rc=$?
  [ "$rc" -eq 1 ] || fail "bench_sdp --trace-out /nonexistent exited $rc"
done

"$dcs" locks --bench-json /nonexistent/locks.json >/dev/null 2>&1
rc=$?
[ "$rc" -eq 1 ] || fail "dcs locks --bench-json /nonexistent exited $rc"

mkdir -p "$dir/wedge"
"$dcs" wedge --scenario stall --postmortem-dir "$dir/wedge" >/dev/null 2>&1 ||
  fail "dcs wedge --postmortem-dir exited $?"
ls "$dir"/wedge/*.postmortem.json >/dev/null 2>&1 ||
  fail "dcs wedge wrote no post-mortem"
"$dcs" wedge --scenario stall --postmortem-dir "$dir/missing" \
  >/dev/null 2>&1
rc=$?
[ "$rc" -eq 1 ] || fail "dcs wedge with a lost post-mortem exited $rc"

[ "$status" -eq 0 ] && echo "every observability flag honoured"
exit "$status"
