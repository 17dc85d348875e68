#!/usr/bin/env sh
# Runs every bench binary given as an argument with an unknown flag, a
# malformed number and a missing SLO rule file; each must exit 2 (and
# never run a workload).
#
# Usage: tests/bench_flags_test.sh BENCH_BINARY...
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
done
[ "$status" -eq 0 ] && echo "all $# benches reject bad flags with exit 2"
exit "$status"
