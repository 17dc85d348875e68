#!/usr/bin/env sh
# Runs every bench binary given as an argument with each row of the table
# below: an unknown flag, a missing SLO rule file, each attribution flag
# the --timeseries-out document replaced (`--hotset-out`,
# `--exemplars-out`, `--hot-keys`), `--batch 4` (no bench takes a batch
# depth) and a valueless `--timeseries-out`.  Each must exit 2 (and never
# run a workload) with stderr matching the row's first word.  No number
# flag is common to every bench; the reader's malformed-number cases are
# ArgsDeathTest's.  bench_datacenter_scale must also exit 2 naming the
# flag on each count flag just past its range, and on `--nodes 0` (the
# `--flag value` form); a value it accepts is never run here: the caps
# exist because those are huge.
#
# Usage: tests/bench_flags_test.sh BENCH_BINARY...
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
status=0
# rejects BIN: runs BIN with each row "WANT ARGS..." of stdin; each must
# exit 2 with stderr matching WANT.
rejects() {
  while read -r want args; do
    # shellcheck disable=SC2086  # $args is deliberately word-split
    "$1" $args </dev/null >/dev/null 2>"$dir/stderr"
    rc=$?
    if [ "$rc" -ne 2 ] || ! grep -q -- "$want" "$dir/stderr"; then
      echo "FAIL: $(basename "$1") $args exited $rc, want 2 matching $want"
      status=1
    fi
  done
}
for bin in "$@"; do
  rejects "$bin" <<'EOF'
--no-such-flag --no-such-flag
rules.slo --slo /nonexistent/rules.slo
--hotset-out --hotset-out /nonexistent/hot.json
--exemplars-out --exemplars-out /nonexistent/ex.json
--hot-keys --hot-keys 3
--batch --batch 4
missing.value.for.'--timeseries-out' --timeseries-out
EOF
  [ "$(basename "$bin")" = bench_datacenter_scale ] || continue
  rejects "$bin" <<'EOF'
--nodes:.expected --nodes 0
--nodes --nodes=0
--nodes --nodes=4097
--partitions --partitions=257
--shards --shards=65
--clients --clients=257
--ops --ops=1048577
--scrape-us --scrape-us=0
--scrape-us --scrape-us=1048577
--scrapes --scrapes=65537
--nodes --nodes=18446744073709551615
--shards --shards=4294967295
EOF
done
[ "$status" -eq 0 ] && echo "all $# benches reject bad flags with exit 2"
exit "$status"
