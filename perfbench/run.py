#!/usr/bin/env python3
"""perfbench: host cost and simulated latency of the simulator, layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the driver (perfbench-sim) from the enclosing source tree into
.bench_build/perfbench, then runs the workload's fixed, seeded instance
again and again, one process per run, until S seconds have passed.  Host
metrics are medians over those runs; simulated metrics repeat exactly for a
seed, and every run is checked to repeat them.  With --trace 1 traced and
untraced runs alternate and the per-layer metrics are printed instead of
the end-to-end ones; host per-layer values still come from the untraced
runs.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.

Exit codes: 0 all outputs correct, 1 a check failed or the build failed,
2 bad arguments.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench-sim")

WORKLOADS = ("web-coopcache", "primitives-zipf", "sdp-stream")
MIN_RUNS = 3
RUN_TIMEOUT_S = 120
MAX_SEED = 2**64 - 1

# End-to-end metrics: name -> (unit, kind).  Host metrics are medians over
# the untraced runs; simulated ones come from the (identical) runs.
END_TO_END = {
    "setup_s": ("s", "host"),
    "wall_s": ("s", "host"),
    "ops_per_host_s": ("ops/s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "sim_p50_us": ("us", "simulated"),
    "sim_p99_us": ("us", "simulated"),
    "sim_ops_per_sim_s": ("ops/s", "simulated"),
}


def _per_layer():
    """Per-layer metrics: name -> (unit, kind).  A workload that does not
    exercise a layer reports 0 for it."""
    m = {}
    for layer in ("fabric", "verbs", "sockets", "ddss", "dlm", "cache",
                  "datacenter"):
        m[layer + ".setup_s"] = ("s", "host")
    m["sim.events"] = ("count", "simulated")
    m["sim.host_ns_per_event"] = ("ns", "host")
    m["sim.shard.windows"] = ("count", "simulated")
    m["sim.shard.cross_messages"] = ("count", "simulated")
    m["sim.shard.busiest_worker_s"] = ("s", "host")
    m["sim.shard.sync_s"] = ("s", "host")
    for op in ("read", "write", "cas", "faa", "batch"):
        m["verbs.ops." + op] = ("count", "simulated")
    m["fabric.wire_bytes"] = ("bytes", "simulated")
    m["fabric.busy_us.proxy"] = ("us", "simulated")
    m["fabric.busy_us.backend"] = ("us", "simulated")
    m["sockets.tcp.msgs"] = ("count", "simulated")
    for mode in ("bsdp", "zsdp", "azsdp"):
        for q in ("p50", "p99"):
            m["sockets.sdp.%s.send_us.%s" % (mode, q)] = ("us", "simulated")
    m["sockets.sdp.window_stalls"] = ("count", "simulated")
    m["sockets.sdp.credit_stalls"] = ("count", "simulated")
    m["sockets.sdp.host_ns_per_byte"] = ("ns/byte", "host")
    for model in ("", "null.", "write.", "strict.", "version."):
        for op in ("get", "put", "get_many"):
            for q in ("p50", "p99"):
                m["ddss.%s%s_us.%s" % (model, op, q)] = ("us", "simulated")
    m["dlm.lock_us.p50"] = ("us", "simulated")
    m["dlm.lock_us.p99"] = ("us", "simulated")
    m["dlm.locks"] = ("count", "simulated")
    m["cache.serve_us.p50"] = ("us", "simulated")
    m["cache.serve_us.p99"] = ("us", "simulated")
    m["cache.hit_ratio"] = ("ratio", "simulated")
    m["cache.requests"] = ("count", "simulated")
    m["cache.remote_hits"] = ("count", "simulated")
    for cost in ("host-cpu", "nic", "wire", "queueing", "credit-stall",
                 "lock-wait", "residual"):
        m["trace.cp.%s_us" % cost] = ("us", "simulated")
    m["trace.cp.requests"] = ("count", "simulated")
    m["trace.overhead_ratio"] = ("ratio", "host")
    m["client.samples"] = ("count", "simulated")
    return m


PER_LAYER = _per_layer()


class UsageError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", default="0")
    try:
        a = p.parse_args(argv)
    except SystemExit as e:
        raise UsageError("bad arguments") from e
    if a.workload not in WORKLOADS:
        raise UsageError("unknown workload %r (one of %s)" %
                         (a.workload, ", ".join(WORKLOADS)))
    if not a.seed.isdigit() or int(a.seed) > MAX_SEED:
        raise UsageError("--seed must be an integer in [0, 2^64)")
    if not a.seconds.isdigit() or not 1 <= int(a.seconds) <= 3600:
        raise UsageError("--seconds must be an integer in [1, 3600]")
    if a.trace not in ("0", "1"):
        raise UsageError("--trace must be 0 or 1")
    return a


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("simulator sources not found next to %s" % HERE)
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if _have("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(3, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench-sim",
                  "-j", jobs])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                log("build failed: %s (see %s)" % (" ".join(cmd), build_log))
                return False
    return os.path.isfile(BINARY)


def _have(tool):
    return any(os.access(os.path.join(d, tool), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep) if d)


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(args, traced):
    """One driver process; returns (result dict or None, wall seconds)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", args.seed,
           "--trace", "1" if traced else "0"]
    if traced:
        spans = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%s.csv" % (args.workload, args.seed))]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out after %d s" % RUN_TIMEOUT_S)
        return None, 0.0
    wall = time.perf_counter() - t0
    if proc.returncode == 2:
        raise UsageError(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("run exited %d without a result: %s" %
            (proc.returncode, proc.stderr.strip()[-500:]))
        return None, wall
    if proc.returncode not in (0, 1):
        log("run exited %d" % proc.returncode)
        return None, wall
    return result, wall


def sim_view(result, keys=None):
    """The simulated part of a result, for exact comparison."""
    sim = dict(result["sim"])
    layer = sim.pop("layer")
    if keys is not None:
        layer = {k: v for k, v in layer.items() if k in keys}
    sim["layer"] = layer
    return sim


def main(argv):
    try:
        args = parse_args(argv)
    except UsageError as e:
        log(str(e))
        return 2
    if not build():
        return 1
    traced_mode = args.trace == "1"
    plain, traced = [], []  # (result, wall_s)
    attempted = failed = 0
    problems = []
    start = time.monotonic()
    while True:
        n = len(plain) + len(traced)
        enough = len(plain) >= MIN_RUNS and (not traced_mode
                                             or len(traced) >= MIN_RUNS)
        if enough and time.monotonic() - start >= int(args.seconds):
            break
        want_trace = traced_mode and n % 2 == 1
        try:
            result, wall = run_once(args, want_trace)
        except UsageError as e:
            log(str(e))
            return 2
        if result is None:
            problems.append("a run produced no result")
            failed += 1
            break
        attempted += result["attempted"]
        failed += result["failed"]
        problems += result["failures"]
        (traced if want_trace else plain).append((result, wall))
        if result["failed"]:
            break

    # Simulated outputs must repeat exactly, traced or not.
    if plain:
        ref = sim_view(plain[0][0])
        for r, _ in plain[1:]:
            if sim_view(r) != ref:
                problems.append("simulated metrics differ between runs of "
                                "one seed")
                failed += 1
                break
        for r, _ in traced:
            if sim_view(r, ref["layer"]) != ref:
                problems.append("tracing changed the simulated metrics")
                failed += 1
                break

    metrics = {}
    if plain and (traced or not traced_mode):
        metrics = (layer_metrics(plain, traced) if traced_mode
                   else end_to_end_metrics(plain))
    report(args, plain, traced, metrics, attempted, failed, problems)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def end_to_end_metrics(plain):
    first = plain[0][0]
    values = {
        "setup_s": median(r["host"]["setup_s"] for r, _ in plain),
        "wall_s": median(w for _, w in plain),
        "ops_per_host_s": median(r["host"]["ops_per_host_s"]
                                 for r, _ in plain),
        "peak_rss_mb": median(r["host"]["peak_rss_mb"] for r, _ in plain),
        "sim_p50_us": first["sim"]["sim_p50_us"],
        "sim_p99_us": first["sim"]["sim_p99_us"],
        "sim_ops_per_sim_s": first["sim"]["sim_ops_per_sim_s"],
    }
    return {k: {"value": values[k], "unit": END_TO_END[k][0]}
            for k in END_TO_END}


def layer_metrics(plain, traced):
    sim = traced[0][0]["sim"]["layer"]
    metrics = {}
    for name, (unit, kind) in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            value = (median(w for _, w in traced) /
                     median(w for _, w in plain))
        elif name == "client.samples":
            value = traced[0][0]["sim"]["samples"]
        elif kind == "host":
            # From the untraced runs: the tracer's own cost stays out.
            value = median(r["host"]["layer"].get(name, {"value": 0})["value"]
                           for r, _ in plain)
        else:
            value = sim.get(name, {"value": 0})["value"]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def report(args, plain, traced, metrics, attempted, failed, problems):
    """Human-readable lines before the JSON result."""
    build_type = plain[0][0]["build_type"] if plain else "?"
    print("perfbench %s seed=%s seconds=%s trace=%s build=%s nproc=%d "
          "commit=%s" % (args.workload, args.seed, args.seconds, args.trace,
                         build_type, os.cpu_count() or 0, git_commit()))
    print("  runs: %d untraced, %d traced" % (len(plain), len(traced)))
    table = PER_LAYER if args.trace == "1" else END_TO_END
    for name, (unit, kind) in table.items():
        if name not in metrics:
            continue
        extra = ""
        if name == "sim_p99_us" and plain:
            extra = "  (%d samples)" % plain[0][0]["sim"]["samples"]
        print("  %-34s %16.6g %-8s %s%s" % (name, metrics[name]["value"],
                                            unit, kind, extra))
    frac = failed / attempted if attempted else 0.0
    print("  %-34s %16.6g %-8s %s" % ("failed_frac", frac, "ratio",
                                      "%d of %d ops" % (failed, attempted)))
    if plain:
        check_s = median(r["host"]["check_s"] for r, _ in plain)
        if check_s > 0:
            print("  %-34s %16.6g %-8s %s" % (
                "check_s", check_s, "s",
                "host, payload checks left out of the run phase"))
        print("  fingerprint %s" % plain[0][0]["sim"]["fingerprint"])
    for p in problems[:16]:
        print("  FAILED: " + p)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
