#!/usr/bin/env sh
# Every observability flag a binary accepts is honoured.  Runs each `dcs`
# run command and each bench with every file-valued flag at once and
# asserts that each file exists and is non-empty, that the health document
# passes `dcs explain --self-check` (so it carries its `hotset` and
# `exemplars` sections), and that each bench
# prints the same tables as a plain run beside it (bench_datacenter_scale:
# that its --bench-json, trace, critical path and post-mortems are
# byte-identical at --shards=1/2/4 and that a --slo burn rule fires in its
# partitions); then checks
# that two `bench_sdp --trace-out` runs are byte-identical, that `dcs
# flame` reads that trace, that an unwritable file or a lost post-mortem
# fails the run with exit 1, and that `dcs wedge` writes its post-mortem.
#
# Usage: tests/observe_flags_test.sh DCS_BINARY BENCH_BINARY...
dcs="$1"
shift
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
status=0
# Failures are also logged to a file, so that background runs count.
fail() {
  echo "FAIL: $*" | tee -a "$dir/failures"
  status=1
}

# A rule file every harness accepts (obs/slo.hpp syntax).
echo "rule slow p99 series=no.such.series threshold=1000000" >"$dir/rules.slo"

# observe NAME COMMAND...: runs COMMAND with every file-valued flag.
# These benches trace 190-780 MB, so their traces go to /dev/full instead:
# the write must fail the run with exit 1.  They are also the slowest, so
# they run in the background alongside the others.
big_traces="bench_coopcache bench_flashcrowd bench_monitor_zipf bench_reconfig"
observe() {
  name="$1"
  shift
  out="$dir/$name"
  mkdir -p "$out/pm"
  trace="$out/trace.json"
  want=0
  files="bench.json wall.json critical_path.txt metrics.txt trace.json"
  files="$files timeseries.json"
  case " $big_traces " in
    *" $name "*)
      trace=/dev/full
      want=1
      files="$(echo "$files" | sed 's/ trace.json//')" ;;
  esac
  "$@" --bench-json "$out/bench.json" --bench-wall-json "$out/wall.json" \
    --metrics-out "$out/metrics.txt" \
    --critical-path "$out/critical_path.txt" --trace-out "$trace" \
    --timeseries-out "$out/timeseries.json" --slo "$dir/rules.slo" \
    --postmortem-dir "$out/pm" >"$out/stdout" 2>"$out/stderr"
  rc=$?
  [ "$rc" -eq "$want" ] ||
    fail "$name exited $rc, want $want: $(cat "$out/stderr")"
  for f in $files; do
    [ -s "$out/$f" ] || fail "$name wrote no $f"
  done
  "$dcs" explain "$out/timeseries.json" --self-check >/dev/null \
    2>"$out/explain.err" ||
    fail "$name health document fails its self-check: $(cat "$out/explain.err")"
}

# tables NAME BIN: observes BIN beside a plain run of it.  Every bench
# prints its tables from the metrics its scenarios recorded, so observing
# it changes no stdout byte; since the observed run is traced, this also
# pins that tracing never perturbs a simulated number.
tables() {
  ("$2" >"$dir/$1.plain" 2>/dev/null || fail "$1 exited $?") &
  plain=$!
  observe "$1" "$2"
  wait "$plain"
  cmp -s "$dir/$1.plain" "$dir/$1/stdout" ||
    fail "bench_tables_observed_identical: $1 prints different tables when observed:
$(diff "$dir/$1.plain" "$dir/$1/stdout" | head -20)"
}

for cmd in cache locks monitor storm; do
  observe "dcs_$cmd" "$dcs" "$cmd"
done
for bin in "$@"; do
  name="$(basename "$bin")"
  if [ "$name" = bench_datacenter_scale ]; then
    # Observing it runs the health plane inside the simulation, so its
    # stdout is not compared with a plain run.  On a small cluster.
    observe "$name" "$bin" --nodes=64
    grep -q '"domain": "scale.serve.node"' "$dir/$name/timeseries.json" ||
      fail "$name: the health document names no serve-path hot key"
    # --slo rules run in every partition's health plane, sweep by sweep: on
    # a hot shard a burn rule fires mid-run and writes its post-mortem, and
    # a post-mortem that cannot be written fails the run.
    echo "rule hot-burn burn series=scale.serve.slow total=scale.serve.total budget=0.05 postmortem" \
      >"$dir/burn.slo"
    mkdir -p "$dir/burn_pm"
    "$bin" --nodes=64 --hot-shard=0 --slo "$dir/burn.slo" \
      --postmortem-dir "$dir/burn_pm" >/dev/null 2>"$dir/stderr" ||
      fail "$name --slo burn.slo exited $?: $(cat "$dir/stderr")"
    grep -q "^ALERT .* hot-burn node=0 firing" "$dir/stderr" ||
      fail "$name: the --slo burn rule did not fire on the hot shard"
    grep -q hot-burn "$dir"/burn_pm/*.postmortem.json ||
      fail "$name: the --slo burn rule wrote no post-mortem"
    "$bin" --nodes=64 --hot-shard=0 --postmortem-dir "$dir/missing" \
      >/dev/null 2>&1
    rc=$?
    [ "$rc" -eq 1 ] || fail "$name with a lost post-mortem exited $rc"
    # sharded_bench_json_identical: the dcs-bench-v1 snapshot (fingerprint,
    # per-partition events, collected registry) is byte-identical at every
    # worker count.  --clients=64 puts 16 strands on each node, which queue
    # on their local lock cohorts.
    for args in "--nodes=256" "--nodes=64 --clients=64"; do
      for w in 1 2 4; do
        # shellcheck disable=SC2086  # $args is deliberately word-split
        "$bin" $args --shards=$w --bench-json "$dir/sharded.$w.json" \
          >/dev/null 2>"$dir/stderr" ||
          fail "$name $args --shards=$w exited $?: $(cat "$dir/stderr")"
      done
      for w in 2 4; do
        cmp -s "$dir/sharded.1.json" "$dir/sharded.$w.json" ||
          fail "sharded_bench_json_identical: $name $args --bench-json differs between --shards=1 and --shards=$w"
      done
    done
    # sharded_observers_identical: every partition is traced and flight-
    # recorded in its own context, so the trace, the critical path and the
    # post-mortems are byte-identical at every worker count, and the hot
    # shard's dump rings hold the partition's own DDSS, verbs and N-CoSED
    # records.
    for w in 1 2 4; do
      mkdir -p "$dir/pm.$w"
      "$bin" --nodes=64 --hot-shard=0 --shards=$w \
        --trace-out "$dir/trace.$w.json" \
        --critical-path "$dir/critical_path.$w.txt" \
        --postmortem-dir "$dir/pm.$w" >/dev/null 2>"$dir/stderr" ||
        fail "$name observed at --shards=$w exited $?: $(cat "$dir/stderr")"
    done
    for w in 2 4; do
      { cmp -s "$dir/trace.1.json" "$dir/trace.$w.json" &&
        cmp -s "$dir/critical_path.1.txt" "$dir/critical_path.$w.txt" &&
        diff -r "$dir/pm.1" "$dir/pm.$w" >/dev/null; } ||
        fail "sharded_observers_identical: $name trace, critical path or post-mortems differ between --shards=1 and --shards=$w"
    done
    for layer in ddss verbs dlm; do
      grep -q "\"layer\": \"$layer\"" "$dir"/pm.1/*.postmortem.json ||
        fail "sharded_observers_identical: $name post-mortem ring holds no $layer record"
    done
    continue
  fi
  case " $big_traces " in
    *" $name "*) tables "$name" "$bin" & ;;
    *) tables "$name" "$bin" ;;
  esac
done
wait

# Same-seed traces are byte-identical, and `dcs flame` attributes them.
for bin in "$@"; do
  [ "$(basename "$bin")" = bench_sdp ] || continue
  "$bin" --trace-out "$dir/sdp.1.json" >/dev/null 2>&1
  "$bin" --trace-out "$dir/sdp.2.json" >/dev/null 2>&1
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

[ -s "$dir/failures" ] && status=1
[ "$status" -eq 0 ] && echo "every observability flag honoured"
exit "$status"
