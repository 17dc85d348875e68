#!/usr/bin/env sh
# Pins the merged dispatch fingerprint of the 1024-node datacenter-scale
# run.  Comparing --shards=N against --shards=1 cannot see a reordering
# that moves every worker count alike; the absolute value can.  A change
# that means to reorder dispatch must update the value here and say why.
#
# Usage: tests/bench_fingerprint_test.sh BENCH_DATACENTER_SCALE_BINARY
bin="$1"
want=0x4bfcf1a41df371ba
status=0
for w in 1 4; do
  got="$("$bin" --nodes=1024 --shards="$w" |
         grep -o '0x[0-9a-f]*' | head -n1)"
  if [ "$got" != "$want" ]; then
    echo "FAIL: --nodes=1024 --shards=$w fingerprint ${got:-none}, want $want"
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "fingerprint $want at --shards=1 and 4"
exit "$status"
