#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Builds the driver if needed, then checks, at short lengths:
  - primitives-zipf gives the same merged dispatch fingerprint (and the same
    simulated metrics) at 1 and 2 simulation workers;
  - the same seed gives byte-identical simulated-metric output, and a
    traced run gives the same simulated metrics as an untraced one;
  - every workload's outputs pass their correctness checks;
  - an unknown workload, a non-numeric or out-of-range seed, seconds or
    (driver only) length, and other bad flags exit 2 with a message, from
    the driver and from run.py, and never by a signal;
  - BENCHMARK.json names exactly the metrics run.py prints, with the same
    units.
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SHORT = {"web-coopcache": "2000", "primitives-zipf": "2048",
         "sdp-stream": "300"}

failures = []


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def driver(*args):
    proc = subprocess.run([bench.BINARY] + list(args), capture_output=True,
                          text=True, timeout=300)
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sim_text(proc):
    """The simulated part of the driver's output, as printed."""
    line = proc.stdout.strip().splitlines()[-1]
    start = line.index('"sim":')
    return line[start:line.index(',"host":')]


def test_worker_count():
    outs = {}
    for workers in ("1", "2"):
        proc = driver("--workload", "primitives-zipf", "--seed", "7",
                      "--length", SHORT["primitives-zipf"], "--workers",
                      workers)
        check(proc.returncode == 0,
              "primitives-zipf runs clean at %s worker(s)" % workers)
        outs[workers] = proc
    a, b = result_of(outs["1"]), result_of(outs["2"])
    check(a["sim"]["fingerprint"] == b["sim"]["fingerprint"],
          "primitives-zipf fingerprint at 1 and 2 workers: %s / %s" %
          (a["sim"]["fingerprint"], b["sim"]["fingerprint"]))
    check(sim_text(outs["1"]) == sim_text(outs["2"]),
          "primitives-zipf simulated metrics identical at 1 and 2 workers")


def test_determinism_and_tracing():
    for w, length in SHORT.items():
        base = ["--workload", w, "--seed", "11", "--length", length]
        first, second = driver(*base), driver(*base)
        check(first.returncode == 0 and result_of(first)["failed"] == 0,
              "%s outputs pass their checks" % w)
        check(sim_text(first) == sim_text(second),
              "%s: same seed, byte-identical simulated output" % w)
        other = driver("--workload", w, "--seed", "12", "--length", length)
        check(sim_text(first) != sim_text(other),
              "%s: another seed gives other simulated output" % w)
        traced = result_of(driver(*base, "--trace", "1"))
        plain = result_of(first)
        layer = {k: v for k, v in traced["sim"]["layer"].items()
                 if k in plain["sim"]["layer"]}
        same = dict(traced["sim"], layer=layer) == plain["sim"]
        check(same, "%s: tracing leaves the simulated metrics unchanged" % w)


BAD_DRIVER_ARGS = [
    ["--workload", "nope", "--seed", "1"],
    ["--workload", "sdp-stream", "--seed", "abc"],
    ["--workload", "sdp-stream", "--seed", "-3"],
    ["--workload", "sdp-stream", "--seed", "18446744073709551616"],
    ["--workload", "sdp-stream", "--seed", ""],
    ["--workload", "sdp-stream", "--length", "0"],
    ["--workload", "sdp-stream", "--length", "63"],
    ["--workload", "sdp-stream", "--length", "100001"],
    ["--workload", "sdp-stream", "--length", "1e3"],
    ["--workload", "sdp-stream", "--length", "99999999999999999999999"],
    ["--workload", "primitives-zipf", "--workers", "0"],
    ["--workload", "primitives-zipf", "--workers", "17"],
    ["--workload", "sdp-stream", "--trace", "2"],
    ["--workload", "sdp-stream", "--bogus", "1"],
    ["--workload"],
    [],
]

BAD_RUN_ARGS = [
    ["--workload", "nope", "--seed", "1", "--seconds", "1"],
    ["--workload", "sdp-stream", "--seed", "x", "--seconds", "1"],
    ["--workload", "sdp-stream", "--seed", "-1", "--seconds", "1"],
    ["--workload", "sdp-stream", "--seed", str(2**64), "--seconds", "1"],
    ["--workload", "sdp-stream", "--seed", "1", "--seconds", "0"],
    ["--workload", "sdp-stream", "--seed", "1", "--seconds", "abc"],
    ["--workload", "sdp-stream", "--seed", "1", "--seconds", "1",
     "--trace", "yes"],
    ["--seed", "1", "--seconds", "1"],
]


def test_bad_arguments():
    for args in BAD_DRIVER_ARGS:
        proc = driver(*args)
        check(proc.returncode == 2 and proc.stderr.strip() != ""
              and proc.stdout == "",
              "driver %s exits 2 with a message (got %d)" %
              (" ".join(args) or "(no flags)", proc.returncode))
    for args in BAD_RUN_ARGS:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                              + args, capture_output=True, text=True,
                              timeout=300)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check(proc.returncode == 2 and proc.stderr.strip() != ""
              and not last[0].startswith("{"),
              "run.py %s exits 2 with a message (got %d)" %
              (" ".join(args), proc.returncode))


def test_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == {k: v[0] for k, v in bench.END_TO_END.items()},
          "BENCHMARK.json end_to_end matches run.py")
    check(layer == {k: v[0] for k, v in bench.PER_LAYER.items()},
          "BENCHMARK.json per_layer matches run.py")
    check([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
          "BENCHMARK.json workloads match run.py")


def main():
    if not bench.build():
        print("FAIL build")
        return 1
    test_worker_count()
    test_determinism_and_tracing()
    test_bad_arguments()
    test_benchmark_json()
    print("\n%d failure(s)" % len(failures))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
