#!/usr/bin/env python3
"""Steadiness check: how much each perfbench metric moves between runs.

    python3 perfbench/steady.py [--runs 10]

Runs run.py --runs times per workload, workloads in alternating order (a b
c a b c ...), seeds 1, 2, ..., each run as long as BENCHMARK.json's
run_seconds and with tracing off.  For every end-to-end metric it prints
the median, the first and third quartiles (statistics.quantiles(n=4)) and
the spread (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json and the verdict: "ok" under a third of the bound, "wide"
under the bound, "OVER" above it.  It exits 1 if any run fails or any
spread is over its bound.

Every result records the build type, nproc and git commit, so results from
different builds are never compared by accident; every raw value goes to
.bench_build/perfbench/steady-<time>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return spec["run_seconds"], bounds


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    header = lines[0] if lines else ""
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, header, result


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    a = p.parse_args(argv)
    seconds, limit = load_spec()
    if not bench.build():
        return 1

    values = {w: {} for w in bench.WORKLOADS}
    headers = {}
    bad = 0
    for seed in range(1, a.runs + 1):
        for w in bench.WORKLOADS:
            code, header, result = one_run(w, seed, seconds)
            headers[w] = header
            if code != 0 or result is None or not result["correct"]:
                print("steady: %s seed %d failed (exit %d)" % (w, seed, code))
                bad += 1
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("steady: %s seed %d done" % (w, seed), flush=True)

    all_ok = True
    for w in bench.WORKLOADS:
        print("\n%s   (%s)" % (w, headers.get(w, "")))
        print("  %-34s %14s %14s %14s %8s %6s %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", ""))
        for name, vals in values[w].items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = limit[name]
            if spread < bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "wide"
            else:
                verdict = "OVER"
                all_ok = False
            print("  %-34s %14.6g %14.6g %14.6g %8.4f %6.3g %s" %
                  (name, med, q1, q3, spread, bound, verdict))

    out = os.path.join(bench.BUILD_DIR, "steady-%d.json" % int(time.time()))
    os.makedirs(bench.BUILD_DIR, exist_ok=True)
    with open(out, "w") as f:
        json.dump({"build": headers, "nproc": os.cpu_count(),
                   "commit": bench.git_commit(), "runs": a.runs,
                   "seconds": seconds, "values": values}, f, indent=1)
    print("\nsteady: raw values -> %s" % out)
    return 0 if bad == 0 and all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
