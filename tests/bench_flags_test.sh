#!/usr/bin/env sh
# Runs every bench binary given as an argument with an unknown flag, a
# malformed number and a missing SLO rule file; each must exit 2 (and
# never run a workload).  A bench with no batch sweep (all but
# bench_ddss_latency and bench_ddss_ops) must also exit 2 naming the flag
# on `--batch 4`, and bench_datacenter_scale on each observability flag
# it has no sink for.
#
# Usage: tests/bench_flags_test.sh BENCH_BINARY...
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
status=0
for bin in "$@"; do
  for args in "--no-such-flag" "--batch abc" "--slo /nonexistent/rules.slo"; do
    # shellcheck disable=SC2086  # $args is deliberately word-split
    "$bin" $args >/dev/null 2>&1
    rc=$?
    if [ "$rc" -ne 2 ]; then
      echo "FAIL: $(basename "$bin") $args exited $rc, want 2"
      status=1
    fi
  done
  case "$(basename "$bin")" in
    bench_ddss_latency | bench_ddss_ops | bench_datacenter_scale) ;;
    *)
      "$bin" --batch 4 >/dev/null 2>"$dir/stderr"
      rc=$?
      if [ "$rc" -ne 2 ] || ! grep -q -- --batch "$dir/stderr"; then
        echo "FAIL: $(basename "$bin") --batch 4 exited $rc, want 2 naming --batch"
        status=1
      fi ;;
  esac
  [ "$(basename "$bin")" = bench_datacenter_scale ] || continue
  for args in "--bench-json $dir/b.json" "--critical-path $dir/cp.txt" \
    "--trace-out $dir/t.json" "--metrics-out $dir/m.txt" "--batch 4" \
    "--postmortem-dir $dir"; do
    # shellcheck disable=SC2086  # $args is deliberately word-split
    "$bin" --nodes=64 $args >/dev/null 2>"$dir/stderr"
    rc=$?
    flag="${args%% *}"
    if [ "$rc" -ne 2 ] || ! grep -q -- "$flag" "$dir/stderr"; then
      echo "FAIL: $(basename "$bin") $args exited $rc, want 2 naming $flag"
      status=1
    fi
  done
done
[ "$status" -eq 0 ] && echo "all $# benches reject bad flags with exit 2"
exit "$status"
