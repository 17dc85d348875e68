#!/usr/bin/env sh
# Runs every bench binary given as an argument with an unknown flag, a
# malformed number and a missing SLO rule file; each must exit 2 (and
# never run a workload).  Every bench must also exit 2 naming the flag on
# `--batch 4` (no bench takes a batch depth) and on a `--hot-keys` with no
# value.  bench_datacenter_scale must exit 2 naming the flag on each count
# flag just past its range, and on `--nodes 0` (the `--flag value` form);
# a value it accepts is never run here: the caps exist because those are
# huge.
#
# Usage: tests/bench_flags_test.sh BENCH_BINARY...
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
status=0
for bin in "$@"; do
  for args in "--no-such-flag" "--hot-keys abc" "--slo /nonexistent/rules.slo"; do
    # shellcheck disable=SC2086  # $args is deliberately word-split
    "$bin" $args >/dev/null 2>&1
    rc=$?
    if [ "$rc" -ne 2 ]; then
      echo "FAIL: $(basename "$bin") $args exited $rc, want 2"
      status=1
    fi
  done
  "$bin" --batch 4 >/dev/null 2>"$dir/stderr"
  rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -- --batch "$dir/stderr"; then
    echo "FAIL: $(basename "$bin") --batch 4 exited $rc, want 2 naming --batch"
    status=1
  fi
  "$bin" --hot-keys >/dev/null 2>"$dir/stderr"
  rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -- "missing value for '--hot-keys'" \
    "$dir/stderr"; then
    echo "FAIL: $(basename "$bin") --hot-keys exited $rc, want 2 naming it" \
      "as valueless"
    status=1
  fi
  [ "$(basename "$bin")" = bench_datacenter_scale ] || continue
  "$bin" --nodes 0 >/dev/null 2>"$dir/stderr"
  rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -- "--nodes: expected" "$dir/stderr"; then
    echo "FAIL: bench_datacenter_scale --nodes 0 exited $rc, want 2 naming" \
      "--nodes"
    status=1
  fi
  for arg in --nodes=0 --nodes=4097 --partitions=257 --shards=65 \
    --clients=257 --ops=1048577 --scrape-us=0 --scrape-us=1048577 \
    --scrapes=65537 --nodes=18446744073709551615 --shards=4294967295; do
    "$bin" "$arg" >/dev/null 2>"$dir/stderr"
    rc=$?
    flag="${arg%%=*}"
    if [ "$rc" -ne 2 ] || ! grep -q -- "$flag" "$dir/stderr"; then
      echo "FAIL: bench_datacenter_scale $arg exited $rc, want 2 naming $flag"
      status=1
    fi
  done
done
[ "$status" -eq 0 ] && echo "all $# benches reject bad flags with exit 2"
exit "$status"
