#!/usr/bin/env sh
# Runs the dcs binary with out-of-range values and unknown names; each
# must exit 2 and name the offending flag on stderr (never abort, raise
# SIGFPE or run with a silently substituted default).
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
--scheme cache --scheme foo
--waiters locks --waiters 0
--waiters locks --waiters abc
--waiters locks --waiters -3
--scheme locks --scheme foo
--mode locks --mode foo
--scheme monitor --scheme foo
--plane storm --plane foo
--scenario wedge --scenario foo
EOF
rm -f "$err"
[ "$status" -eq 0 ] && echo "all $count bad dcs values rejected with exit 2"
exit "$status"
