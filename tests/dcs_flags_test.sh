#!/usr/bin/env sh
# Runs the dcs binary with out-of-range values, unknown names, flags a
# command does not honour, stray or valueless arguments, a missing SLO
# rule file, no command and an unknown command; each must exit 2 and name
# the offending argument on stderr (never abort, raise SIGFPE or run with
# a silently substituted default).  Counts that size a fabric or spawn one
# coroutine each are capped so a run has at most 1024 nodes (and `monitor
# --jobs` at most 1024 jobs).  The offline tools' `--node` filters must
# accept node 0 (exit 0), and every flag reads as `--flag value` and as
# `--flag=value`.  The attribution flags the --timeseries-out document
# replaced (`--hotset-out`, `--exemplars-out`, `--hot-keys`, and `dcs
# explain`'s `--hotset`/`--exemplars`) are unknown flags.
#
# Usage: tests/dcs_flags_test.sh DCS_BINARY
bin="$1"
status=0
count=0
err="$(mktemp)"
while read -r flag args; do
  count=$((count + 1))
  # shellcheck disable=SC2086  # $args is deliberately word-split
  "$bin" $args >/dev/null 2>"$err"
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: dcs $args exited $rc, want 2"
    status=1
  elif ! grep -q -- "$flag" "$err"; then
    echo "FAIL: dcs $args did not name $flag: $(cat "$err")"
    status=1
  fi
done <<'EOF'
--proxies cache --proxies 0
--ws-mb cache --ws-mb 0
--alpha cache --alpha -1
--requests cache --requests 0
--file-kb cache --file-kb 0
--file-kb cache --file-kb 2048 --ws-mb 1
--ws-mb cache --ws-mb 2097151 --file-kb 1
--scheme cache --scheme foo
--waiters locks --waiters 0
--waiters locks --waiters abc
--waiters locks --waiters -3
--scheme locks --scheme foo
--waiters locks --waiters 1021
--waiters locks --waiters 2147483647
--waiters wedge --waiters 1023
--waiters wedge --waiters 2147483647
--proxies cache --proxies 1019
--proxies cache --proxies 2147483647
--jobs monitor --jobs 1025
--jobs monitor --jobs 2147483647
--mode locks --mode foo
--scheme monitor --scheme foo
--plane storm --plane foo
--scenario wedge --scenario foo
--waiter locks --waiter 3
--no-such-flag locks --no-such-flag 1
stray locks stray
--waiters locks --waiters
--batch locks --batch 4
--bench-json params --bench-json p.json
--bench-json wedge --bench-json w.json
/nonexistent/rules.slo locks --slo /nonexistent/rules.slo
--waiters locks --waiters=0
--out flame /nonexistent/trace.json --out
--self-check locks --self-check
--hot-keys locks --hot-keys 3
--hotset-out cache --hotset-out /nonexistent/hot.json
--exemplars-out monitor --exemplars-out /nonexistent/ex.json
--hot-keys storm --hot-keys 3
--hotset explain /nonexistent/ts.json --hotset /nonexistent/hot.json
--exemplars explain /nonexistent/ts.json --exemplars /nonexistent/ex.json
usage
nosuch nosuch
EOF
dir="$(mktemp -d)"
"$bin" locks --timeseries-out "$dir/ts.json" --trace-out "$dir/trace.json" \
  >/dev/null 2>&1
for args in "top $dir/ts.json --node 0" "inspect $dir/trace.json --node 0" \
  "top --self-check $dir/ts.json --node=0" "inspect $dir/trace.json --node=0" \
  "explain $dir/ts.json --self-check" "explain $dir/ts.json --top=3" \
  "locks --waiters=3"; do
  # shellcheck disable=SC2086  # $args is deliberately word-split
  "$bin" $args >/dev/null 2>"$err"
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: dcs $args exited $rc, want 0: $(cat "$err")"
    status=1
  fi
done
rm -rf "$dir"
rm -f "$err"
[ "$status" -eq 0 ] && echo "all $count bad dcs arguments rejected with exit 2"
exit "$status"
