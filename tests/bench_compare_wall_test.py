#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py --wall: ns/event of a scenario,
the --max-ns-per-event ceiling, and the peak_rss_mb and frames/event
reports; plus the
report-only registry key-set diff of dcs-bench-v1 scenarios.

Run directly (`python3 tests/bench_compare_wall_test.py`) or via ctest
(registered in tests/CMakeLists.txt as bench_compare_wall_test).
"""

import contextlib
import importlib.util
import io
import json
import pathlib
import sys
import tempfile
import unittest

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _TOOL)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


class WallNsPerEventTest(unittest.TestCase):
    def test_scalar_fields_use_ns_per_event_verbatim(self):
        doc = {"events": 100, "wall_ns": 5000.0, "ns_per_event": 42.5}
        self.assertEqual(
            bench_compare.wall_ns_per_event("b/s", "baseline", doc), 42.5)

    def test_list_valued_fields_raise_compare_error(self):
        for doc in ({"events": [10, 20], "wall_ns": 600.0},
                    {"events": 100, "wall_ns": [100.0, 900.0],
                     "ns_per_event": 9.0}):
            with self.assertRaises(bench_compare.CompareError):
                bench_compare.wall_ns_per_event("b/s", "baseline", doc)

    def test_zero_events_yields_zero(self):
        doc = {"events": 0, "wall_ns": 100.0}
        self.assertEqual(
            bench_compare.wall_ns_per_event("b/s", "baseline", doc), 0.0)

    def test_missing_fields_raise_compare_error(self):
        with self.assertRaises(bench_compare.CompareError):
            bench_compare.wall_ns_per_event("b/s", "candidate", {"events": 5})

    def test_non_numeric_fields_raise_compare_error(self):
        with self.assertRaises(bench_compare.CompareError):
            bench_compare.wall_ns_per_event(
                "b/s", "candidate", {"events": "5", "wall_ns": "9"})


class CompareWallScenarioTest(unittest.TestCase):
    def _compare(self, base, cand, threshold=15.0):
        notable = []
        bench_compare.compare_wall_scenario("b/s", base, cand, threshold,
                                            notable)
        return notable

    def test_regression_beyond_threshold_is_notable(self):
        base = {"events": 100, "wall_ns": 1000.0}
        cand = {"events": 100, "wall_ns": 2000.0}
        notable = self._compare(base, cand)
        self.assertEqual(len(notable), 1)
        self.assertIn("ns/event", notable[0])


def _run_main(argv):
    saved = sys.argv
    sys.argv = ["bench_compare.py"] + argv
    try:
        return bench_compare.main()
    finally:
        sys.argv = saved


class MaxNsPerEventTest(unittest.TestCase):
    """--max-ns-per-event: exit 1 above the ceiling, 0 at or under it."""

    @staticmethod
    def _write(directory, scenarios, peak_rss_mb=None):
        doc = {"schema": "dcs-bench-wall-v1", "bench": "b",
               "scenarios": scenarios}
        if peak_rss_mb is not None:
            doc["peak_rss_mb"] = peak_rss_mb
        (directory / "BENCH_b.wall.json").write_text(json.dumps(doc),
                                                     encoding="utf-8")

    def _compare(self, scenarios, ceiling):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            self._write(tmp, scenarios)
            return _run_main(["--wall", str(tmp), str(tmp),
                              "--max-ns-per-event", str(ceiling)])

    def test_scenario_above_the_ceiling_exits_one(self):
        scenarios = {
            "fast": {"events": 100, "wall_ns": 1000.0, "ns_per_event": 10.0},
            # No ns_per_event: wall_ns / events = 4000000 / 100.
            "slow": {"events": 100, "wall_ns": 4000000.0},
        }
        self.assertEqual(bench_compare.over_ceiling(
            {"b": {"scenarios": scenarios}}, 10000.0),
            ["b/slow: 40000.0 ns/event"])
        self.assertEqual(self._compare(scenarios, 10000), 1)

    def test_scenario_at_the_ceiling_passes(self):
        scenarios = {
            "edge": {"events": 10, "wall_ns": 100000.0,
                     "ns_per_event": 10000.0},
        }
        self.assertEqual(self._compare(scenarios, 10000), 0)

    def test_ceiling_requires_wall_mode(self):
        with tempfile.TemporaryDirectory() as tmp:
            with self.assertRaises(SystemExit) as ctx:
                _run_main([tmp, tmp, "--max-ns-per-event", "10"])
            self.assertEqual(ctx.exception.code, 2)


class PeakRssTest(unittest.TestCase):
    """peak_rss_mb is report-only and optional on either side."""

    def test_delta_is_reported_never_fatal(self):
        notable = []
        bench_compare.compare_peak_rss("b", {"peak_rss_mb": 700.0},
                                       {"peak_rss_mb": 60.0}, 15.0, notable)
        self.assertEqual(len(notable), 1)
        self.assertIn("peak_rss_mb", notable[0])

    def test_files_without_the_field_compare(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            (tmp / "base").mkdir()
            (tmp / "cand").mkdir()
            scenarios = {"s": {"events": 10, "wall_ns": 100.0}}
            MaxNsPerEventTest._write(tmp / "base", scenarios)
            MaxNsPerEventTest._write(tmp / "cand", scenarios,
                                     peak_rss_mb=59.5)
            self.assertEqual(
                _run_main(["--wall", str(tmp / "base"), str(tmp / "cand")]),
                0)


class FramesPerEventTest(unittest.TestCase):
    """frames/event is report-only and optional on either side."""

    def test_frames_over_events(self):
        doc = {"events": 200, "wall_ns": 1.0, "frames": 50}
        self.assertEqual(
            bench_compare.wall_frames_per_event("b/s", "baseline", doc), 0.25)
        doc = {"events": 0, "wall_ns": 1.0, "frames": 0}
        self.assertEqual(
            bench_compare.wall_frames_per_event("b/s", "baseline", doc), 0.0)

    def test_missing_field_yields_none(self):
        self.assertIsNone(bench_compare.wall_frames_per_event(
            "b/s", "baseline", {"events": 10, "wall_ns": 1.0}))

    def test_non_numeric_field_raises_compare_error(self):
        for frames in ("9", [1, 2], True):
            with self.assertRaises(bench_compare.CompareError):
                bench_compare.wall_frames_per_event(
                    "b/s", "candidate",
                    {"events": 10, "wall_ns": 1.0, "frames": frames})

    def test_delta_is_reported_never_fatal(self):
        notable = []
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            bench_compare.compare_wall_frames(
                "b/s", {"events": 100, "wall_ns": 1.0, "frames": 150},
                {"events": 100, "wall_ns": 1.0, "frames": 60}, 15.0, notable)
        self.assertEqual(notable,
                         ["b/s frames/event: 1.500 -> 0.600 (-60.00%)"])
        self.assertIn("FEWER", out.getvalue())

    def test_main_reports_frames_and_exits_zero(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            (tmp / "base").mkdir()
            (tmp / "cand").mkdir()
            MaxNsPerEventTest._write(
                tmp / "base", {"s": {"events": 10, "wall_ns": 100.0,
                                     "frames": 30}})
            MaxNsPerEventTest._write(
                tmp / "cand", {"s": {"events": 10, "wall_ns": 100.0,
                                     "frames": 10}})
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = _run_main(["--wall", str(tmp / "base"),
                                  str(tmp / "cand")])
            self.assertEqual(code, 0)
            self.assertIn("frames/ev", out.getvalue())
            self.assertIn("b/s frames/event: 3.000 -> 1.000", out.getvalue())

    def test_files_without_the_field_compare(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            (tmp / "base").mkdir()
            (tmp / "cand").mkdir()
            MaxNsPerEventTest._write(
                tmp / "base", {"s": {"events": 10, "wall_ns": 100.0}})
            MaxNsPerEventTest._write(
                tmp / "cand", {"s": {"events": 10, "wall_ns": 100.0,
                                     "frames": 10}})
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = _run_main(["--wall", str(tmp / "base"),
                                  str(tmp / "cand")])
            self.assertEqual(code, 0)
            self.assertNotIn("frames/ev", out.getvalue())


class RegistryKeysTest(unittest.TestCase):
    """Registry keys on one side only are named, never fatal."""

    def test_one_sided_keys_are_reported_and_marked(self):
        def scenario(registry):
            return {"virtual_ns": 100, "latency_ns": {"count": 0},
                    "registry": registry}

        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            for side, registry in (
                    ("base", {"a.zero": 0, "b.hot": 3,
                              "d.dist": {"count": 0, "mean": 0.0},
                              "k.kept": 1}),
                    ("cand", {"k.kept": 1, "n.new": 2})):
                (tmp / side).mkdir()
                doc = {"schema": "dcs-bench-v1", "bench": "b",
                       "scenarios": {"s": scenario(registry)}}
                (tmp / side / "BENCH_b.json").write_text(json.dumps(doc),
                                                         encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = _run_main([str(tmp / "base"), str(tmp / "cand")])
            self.assertEqual(code, 0)
            text = out.getvalue()
            self.assertIn("b/s a.zero only in baseline (zero)", text)
            self.assertIn("b/s b.hot only in baseline (non-zero)", text)
            self.assertIn("b/s d.dist only in baseline (zero)", text)
            self.assertIn("b/s n.new only in candidate", text)
            self.assertNotIn("k.kept", text)
            self.assertIn("registry keys only in baseline: 3 (2 zero, "
                          "1 non-zero); only in candidate: 1", text)


class SchemaGateTest(unittest.TestCase):
    """load_benches: known sibling schemas skip, passthrough schemas note,
    unknown schemas are a hard CompareError (exit 2 in main)."""

    @staticmethod
    def _write(directory, name, doc):
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")

    def test_passthrough_schema_is_noted_and_skipped(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            self._write(tmp, "BENCH_health.json",
                        {"schema": "dcs-timeseries-v1", "series": []})
            self._write(tmp, "BENCH_ok.json",
                        {"schema": "dcs-bench-v1", "bench": "ok",
                         "scenarios": {}})
            benches = bench_compare.load_benches(tmp)
            self.assertEqual(set(benches), {"ok"})

    def test_sibling_bench_schema_is_skipped_not_fatal(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            self._write(tmp, "BENCH_w.json",
                        {"schema": "dcs-bench-wall-v1", "bench": "w",
                         "scenarios": {}})
            self.assertEqual(bench_compare.load_benches(tmp), {})

    def test_unknown_schema_is_a_hard_error(self):
        # A future version, and the two attribution schemas the health
        # document (dcs-timeseries-v1) replaced.
        for schema in ("dcs-bench-v9", "dcs-exemplar-v1", "dcs-hotset-v1"):
            with self.subTest(schema=schema), \
                    tempfile.TemporaryDirectory() as tmp:
                tmp = pathlib.Path(tmp)
                self._write(tmp, "BENCH_future.json",
                            {"schema": schema, "bench": "f",
                             "scenarios": {}})
                with self.assertRaises(bench_compare.CompareError) as ctx:
                    bench_compare.load_benches(tmp)
                self.assertIn("unknown schema", str(ctx.exception))
                self.assertIn(schema, str(ctx.exception))


if __name__ == "__main__":
    unittest.main()
