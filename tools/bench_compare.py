#!/usr/bin/env python3
"""Compare two sets of dcs-bench-v1 JSON files and flag regressions.

Usage:
    tools/bench_compare.py BASELINE_DIR CANDIDATE_DIR [--threshold PCT]
    tools/bench_compare.py --wall BASELINE_DIR CANDIDATE_DIR [--threshold PCT]
                           [--max-ns-per-event NS]

Both directories hold BENCH_<name>.json files as written by the bench
harness (src/obs/harness.cpp, `--bench-json`) or by tools/run_tier1.sh
--bench-json.  For every scenario present in both sets the script compares
the latency p50 and p99 (when the scenario recorded latency samples) and
the virtual completion time, and exits nonzero if any candidate value is
more than --threshold percent (default 10) worse than the baseline.

The simulator is deterministic, so on identical code the comparison is
exact: any drift at all means the change altered simulated behaviour, and
drift beyond the threshold fails the build.  Scenarios present on only one
side are reported but never fatal (benches gain and lose scenarios as the
code grows).  So are registry keys present on only one side of a compared
scenario: each is named, a key only in the baseline is marked zero or
non-zero, and a summary line counts them (a snapshot lists only the
metrics its scenario touched, so a change that stops touching a metric
drops its key).

With --wall the directories hold BENCH_<name>.wall.json files
(dcs-bench-wall-v1, `--bench-wall-json`) and the script compares wall-clock
ns/event instead.  Wall time is machine- and load-dependent, so --wall only
REPORTS deltas beyond the threshold (default 15%) and exits zero; it
exists to make throughput changes visible in CI logs, not to gate them.
Every wall scenario carries scalar `events` and `wall_ns`; anything else
is an input error (exit 2).  Each bench's top-level `peak_rss_mb`, each
scenario's frames/event (coroutine frames allocated in the run phase,
`frames` over `events`) and each scenario's `setup_ns` (host time outside
its engine runs, printed in ms), when both sides have them, are reported
the same way.

--max-ns-per-event NS is the one wall-clock gate: an absolute ceiling, not
a delta.  Any candidate scenario above NS ns/event is named and the script
exits 1.  It exists to catch a host cost that dwarfs simulation (a
per-node memset, say), which is orders of magnitude beyond machine noise.
"""

import argparse
import json
import pathlib
import sys


class CompareError(Exception):
    """A user-facing input problem: print the message, exit 2, no traceback."""


# Every top-level schema this repo's tools emit.  The bench schemas diff
# here; the rest are other tools' inputs (dcs inspect / dcs top) and pass
# through untouched.  Anything NOT listed is an unknown producer version —
# a hard error, because silently skipping it would turn a schema bump into
# a vacuous comparison.
BENCH_SCHEMAS = {"dcs-bench-v1", "dcs-bench-wall-v1"}
PASSTHROUGH_SCHEMAS = {"dcs-timeseries-v1", "dcs-postmortem-v1", "dcs-lint-v1"}


def load_benches(directory: pathlib.Path, wall: bool = False):
    """Returns {bench_name: document}; scenarios under "scenarios"."""
    if not directory.exists():
        raise CompareError(f"error: directory {directory} does not exist")
    if not directory.is_dir():
        raise CompareError(f"error: {directory} is not a directory")
    benches = {}
    pattern = "BENCH_*.wall.json" if wall else "BENCH_*.json"
    schema = "dcs-bench-wall-v1" if wall else "dcs-bench-v1"
    for path in sorted(directory.glob(pattern)):
        if not wall and path.name.endswith(".wall.json"):
            continue
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as exc:
            raise CompareError(f"error: {path} is not valid JSON: {exc}")
        except OSError as exc:
            raise CompareError(f"error: cannot read {path}: {exc}")
        if not isinstance(doc, dict):
            print(f"warning: {path} is not a JSON object, skipped")
            continue
        got = doc.get("schema")
        if got != schema:
            if got in PASSTHROUGH_SCHEMAS:
                print(f"note: {path} has schema {got}, passed through "
                      "(not a bench comparison input)")
                continue
            if got in BENCH_SCHEMAS:
                # The sibling bench schema: picked up by the other mode.
                print(f"warning: {path} has schema {got!r}, skipped")
                continue
            raise CompareError(
                f"error: {path} has unknown schema {got!r} "
                f"(expected {schema!r}; known: "
                f"{', '.join(sorted(BENCH_SCHEMAS | PASSTHROUGH_SCHEMAS))})")
        if "bench" not in doc:
            print(f"warning: {path} has no \"bench\" field, skipped")
            continue
        benches[doc["bench"]] = doc
    return benches


def pct_change(base: float, cand: float) -> float:
    """Signed percent change; positive means the candidate is larger."""
    if base == 0.0:
        return 0.0 if cand == 0.0 else float("inf")
    return (cand - base) / base * 100.0


def compare_scenario(label, base, cand, threshold, failures):
    """Appends to `failures`; prints one line per compared quantity."""
    for side, doc in (("baseline", base), ("candidate", cand)):
        if "virtual_ns" not in doc:
            raise CompareError(
                f"error: {side} scenario {label} has no \"virtual_ns\" — "
                f"not a dcs-bench-v1 scenario (mismatched BENCH pair?)")
    checks = []
    base_lat = base.get("latency_ns", {})
    cand_lat = cand.get("latency_ns", {})
    if base_lat.get("count", 0) > 0 and cand_lat.get("count", 0) > 0:
        for q in ("p50", "p99"):
            if q in base_lat and q in cand_lat:
                checks.append((q, float(base_lat[q]), float(cand_lat[q])))
    checks.append(
        ("virtual_ns", float(base["virtual_ns"]), float(cand["virtual_ns"]))
    )

    for quantity, b, c in checks:
        delta = pct_change(b, c)
        status = "ok"
        if delta > threshold:
            status = "REGRESSION"
            failures.append(f"{label} {quantity}: {b:.1f} -> {c:.1f} "
                            f"({delta:+.2f}%)")
        elif delta != 0.0:
            status = "drift"
        print(f"  {label:50s} {quantity:10s} {b:>16.1f} {c:>16.1f} "
              f"{delta:+8.2f}%  {status}")


def is_zero(value):
    """True for a registry value in its reset state: 0 or {"count": 0}."""
    if isinstance(value, dict):
        return value.get("count", 0) == 0
    return value == 0


def compare_registry_keys(label, base, cand, tally):
    """Names the registry keys one side of a scenario lacks; adds them to
    `tally` ("zero", "non-zero": only in baseline; "added": only in
    candidate).  Never fatal."""
    b = base.get("registry", {})
    c = cand.get("registry", {})
    for key in sorted(set(b) - set(c)):
        kind = "zero" if is_zero(b[key]) else "non-zero"
        tally[kind] += 1
        print(f"  note: registry key {label} {key} only in baseline ({kind})")
    for key in sorted(set(c) - set(b)):
        tally["added"] += 1
        print(f"  note: registry key {label} {key} only in candidate")


def wall_ns_per_event(label, side, doc):
    """ns/event for one wall scenario: its `ns_per_event`, else `wall_ns`
    over `events`.  Both of those must be plain numbers."""
    events = doc.get("events")
    wall = doc.get("wall_ns")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (events, wall)):
        raise CompareError(
            f"error: {side} scenario {label} has no numeric \"events\" and "
            f"\"wall_ns\" — not a dcs-bench-wall-v1 scenario "
            f"(mismatched BENCH pair?)")
    if isinstance(doc.get("ns_per_event"), (int, float)):
        return float(doc["ns_per_event"])
    return float(wall) / float(events) if events else 0.0


def compare_wall_scenario(label, base, cand, threshold, notable):
    """Wall-clock ns/event comparison; appends to `notable`, never fatal."""
    b = wall_ns_per_event(label, "baseline", base)
    c = wall_ns_per_event(label, "candidate", cand)
    delta = pct_change(b, c)
    status = "ok"
    if abs(delta) > threshold:
        status = "SLOWER" if delta > 0 else "FASTER"
        notable.append(f"{label} ns/event: {b:.1f} -> {c:.1f} "
                       f"({delta:+.2f}%)")
    print(f"  {label:50s} {'ns/event':10s} {b:>16.1f} {c:>16.1f} "
          f"{delta:+8.2f}%  {status}")


def wall_frames_per_event(label, side, doc):
    """frames/event for one wall scenario, or None when it has no `frames`
    field (files written before the field existed)."""
    if "frames" not in doc:
        return None
    frames = doc["frames"]
    if not isinstance(frames, (int, float)) or isinstance(frames, bool):
        raise CompareError(
            f"error: {side} scenario {label} has a non-numeric \"frames\"")
    events = doc.get("events")
    return float(frames) / float(events) if events else 0.0


def compare_wall_frames(label, base, cand, threshold, notable):
    """frames/event delta, report-only like ns/event; skipped when either
    side lacks the field."""
    b = wall_frames_per_event(label, "baseline", base)
    c = wall_frames_per_event(label, "candidate", cand)
    if b is None or c is None:
        return
    delta = pct_change(b, c)
    status = "ok"
    if abs(delta) > threshold:
        status = "MORE" if delta > 0 else "FEWER"
        notable.append(f"{label} frames/event: {b:.3f} -> {c:.3f} "
                       f"({delta:+.2f}%)")
    print(f"  {label:50s} {'frames/ev':10s} {b:>16.3f} {c:>16.3f} "
          f"{delta:+8.2f}%  {status}")


def wall_setup_ms(label, side, doc):
    """A wall scenario's `setup_ns` in milliseconds, or None when it has no
    such field (files written before the field existed)."""
    if "setup_ns" not in doc:
        return None
    setup = doc["setup_ns"]
    if not isinstance(setup, (int, float)) or isinstance(setup, bool):
        raise CompareError(
            f"error: {side} scenario {label} has a non-numeric \"setup_ns\"")
    return float(setup) / 1e6


def compare_wall_setup(label, base, cand, threshold, notable):
    """setup_ns delta (host time of the scenario outside its engine runs),
    report-only like ns/event; skipped when either side lacks the field."""
    b = wall_setup_ms(label, "baseline", base)
    c = wall_setup_ms(label, "candidate", cand)
    if b is None or c is None:
        return
    delta = pct_change(b, c)
    status = "ok"
    if abs(delta) > threshold:
        status = "SLOWER" if delta > 0 else "FASTER"
        notable.append(f"{label} setup_ms: {b:.3f} -> {c:.3f} "
                       f"({delta:+.2f}%)")
    print(f"  {label:50s} {'setup_ms':10s} {b:>16.3f} {c:>16.3f} "
          f"{delta:+8.2f}%  {status}")


def compare_peak_rss(bench, base_doc, cand_doc, threshold, notable):
    """Top-level peak_rss_mb delta, report-only; skipped when either side
    predates the field."""
    if "peak_rss_mb" not in base_doc or "peak_rss_mb" not in cand_doc:
        return
    b = float(base_doc["peak_rss_mb"])
    c = float(cand_doc["peak_rss_mb"])
    delta = pct_change(b, c)
    status = "ok"
    if abs(delta) > threshold:
        status = "LARGER" if delta > 0 else "SMALLER"
        notable.append(f"{bench} peak_rss_mb: {b:.1f} -> {c:.1f} "
                       f"({delta:+.2f}%)")
    print(f"  {bench:50s} {'rss_mb':10s} {b:>16.1f} {c:>16.1f} "
          f"{delta:+8.2f}%  {status}")


def over_ceiling(cand_set, max_ns):
    """Every candidate scenario whose ns/event exceeds `max_ns`."""
    over = []
    for bench in sorted(cand_set):
        scenarios = cand_set[bench].get("scenarios", {})
        for scenario in sorted(scenarios):
            label = f"{bench}/{scenario}"
            npe = wall_ns_per_event(label, "candidate", scenarios[scenario])
            if npe > max_ns:
                over.append(f"{label}: {npe:.1f} ns/event")
    return over


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("candidate", type=pathlib.Path)
    parser.add_argument("--threshold", type=float, default=None,
                        help="max tolerated worsening in percent "
                             "(default: 10, or 15 with --wall)")
    parser.add_argument("--wall", action="store_true",
                        help="compare BENCH_*.wall.json wall-clock ns/event "
                             "(report-only unless --max-ns-per-event)")
    parser.add_argument("--max-ns-per-event", type=float, default=None,
                        metavar="NS",
                        help="with --wall: exit 1 naming every candidate "
                             "scenario above NS ns/event")
    args = parser.parse_args()
    if args.max_ns_per_event is not None and not args.wall:
        parser.error("--max-ns-per-event requires --wall")
    if args.threshold is None:
        args.threshold = 15.0 if args.wall else 10.0

    suffix = ".wall.json" if args.wall else ".json"
    base_set = load_benches(args.baseline, wall=args.wall)
    cand_set = load_benches(args.candidate, wall=args.wall)
    if not base_set:
        print(f"error: no BENCH_*{suffix} files in {args.baseline}")
        return 2
    if not cand_set:
        print(f"error: no BENCH_*{suffix} files in {args.candidate}")
        return 2

    failures = []
    compared = 0
    keys = {"zero": 0, "non-zero": 0, "added": 0}
    print(f"  {'bench/scenario':50s} {'quantity':10s} {'baseline':>16s} "
          f"{'candidate':>16s} {'delta':>9s}")
    for bench in sorted(base_set):
        if bench not in cand_set:
            print(f"  note: bench {bench!r} only in baseline")
            continue
        base = base_set[bench].get("scenarios", {})
        cand = cand_set[bench].get("scenarios", {})
        if args.wall:
            compare_peak_rss(bench, base_set[bench], cand_set[bench],
                             args.threshold, failures)
        for scenario in sorted(base):
            if scenario not in cand:
                print(f"  note: scenario {bench}/{scenario} only in baseline")
                continue
            if args.wall:
                compare_wall_scenario(f"{bench}/{scenario}", base[scenario],
                                      cand[scenario], args.threshold,
                                      failures)
                compare_wall_frames(f"{bench}/{scenario}", base[scenario],
                                    cand[scenario], args.threshold, failures)
                compare_wall_setup(f"{bench}/{scenario}", base[scenario],
                                   cand[scenario], args.threshold, failures)
            else:
                compare_scenario(f"{bench}/{scenario}", base[scenario],
                                 cand[scenario], args.threshold, failures)
                compare_registry_keys(f"{bench}/{scenario}", base[scenario],
                                      cand[scenario], keys)
            compared += 1
        for scenario in sorted(set(cand) - set(base)):
            print(f"  note: scenario {bench}/{scenario} only in candidate")
    for bench in sorted(set(cand_set) - set(base_set)):
        print(f"  note: bench {bench!r} only in candidate")

    if compared == 0:
        print("error: no overlapping scenarios to compare")
        return 2
    if args.wall:
        # Wall-time deltas are machine-dependent: report, never gate.
        if failures:
            print(f"\n{len(failures)} wall-clock delta(s) beyond "
                  f"{args.threshold:.1f}% (report-only):")
            for f in failures:
                print(f"  {f}")
        else:
            print(f"\n{compared} scenario(s) compared, no wall-clock delta "
                  f"beyond {args.threshold:.1f}%")
        if args.max_ns_per_event is None:
            return 0
        over = over_ceiling(cand_set, args.max_ns_per_event)
        if over:
            print(f"\n{len(over)} candidate scenario(s) above "
                  f"--max-ns-per-event {args.max_ns_per_event:g}:")
            for line in over:
                print(f"  {line}")
            return 1
        print(f"every candidate scenario is at or under "
              f"{args.max_ns_per_event:g} ns/event")
        return 0
    print(f"\nregistry keys only in baseline: "
          f"{keys['zero'] + keys['non-zero']} ({keys['zero']} zero, "
          f"{keys['non-zero']} non-zero); only in candidate: {keys['added']}")
    if failures:
        print(f"\n{len(failures)} regression(s) beyond "
              f"{args.threshold:.1f}%:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\n{compared} scenario(s) compared, no regression beyond "
          f"{args.threshold:.1f}%")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CompareError as exc:
        print(exc)
        sys.exit(2)
