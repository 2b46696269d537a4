"""The benchmark's own tests, at a tiny input scale.

    python3 -m unittest discover -s perfbench/tests

They build the benchmark the way `run.py` does, then check that every
workload runs and matches its reference output, that the printed metrics
are exactly those of BENCHMARK.json, that the ladder's self costs add up
to its top rung, and that a corrupted output is counted as a failure.
"""

import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import run  # noqa: E402  (perfbench/run.py)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# How far the summed per-round self costs may sit from the top rung's
# median, as a share of it (medians of differences do not telescope).
LADDER_TOLERANCE = 0.15


class Bench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def result(self, workload, trace, *extra, seconds="0.5"):
        done = subprocess.run(
            [str(self.binary), "--workload", workload, "--seed", "5", "--seconds", seconds,
             "--trace", str(trace), "--scale", "tiny", *extra],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    def test_every_workload_matches_its_oracle(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = self.result(workload, trace)
                    self.assertIsNone(run.check(result, trace == 1))
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)

    def test_printed_metrics_are_those_of_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = self.result("bib_q3", trace)
            printed = [(n, m["unit"]) for n, m in result["metrics"].items()]
            listed = [(m["name"], m["unit"]) for m in BENCHMARK[key]]
            self.assertEqual(printed, listed)
            for name, metric in result["metrics"].items():
                self.assertIsInstance(metric["value"], (int, float), name)

    def test_ladder_self_costs_add_up_to_the_top_rung(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                m = self.result(workload, 1, seconds="1")["metrics"]
                parts = ["xml.prescan.ns_per_byte"] + [
                    f"{rung}.self_ns_per_byte"
                    for rung in ("xml.reader", "xsax.validate", "xsax.past",
                                 "runtime.exec", "core.engine")]
                total = sum(m[p]["value"] for p in parts)
                top = m["core.engine.ns_per_byte"]["value"]
                self.assertLessEqual(abs(total - top) / top, LADDER_TOLERANCE)
                self.assertAlmostEqual(m["ladder.residual_frac"]["value"], (total - top) / top)

    def test_corrupted_output_counts_as_failed(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                result = self.result("msg_stream", trace, "--corrupt-output")
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIsNotNone(run.check(dict(result, attempted=0), trace == 1))

    def test_trace_spans_are_written(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.json"
            self.result("msg_stream", 1, "--trace-out", str(path))
            trace = json.loads(path.read_text())
        spans = trace["spans"]
        self.assertEqual(trace["spans_written"], len(spans))
        names = trace["names"]
        ids = {s[0] for s in spans}
        self.assertTrue(all(s[1] == 0 or s[1] in ids for s in spans))
        self.assertTrue(all(s[4] <= s[5] for s in spans))
        engine_docs = {s[3] for s in spans if names[s[2]] == "FluxEngine::run_input"}
        self.assertGreater(len(engine_docs - {-1}), 1, "one span per document run")
        self.assertIn("round", names)

    def test_unknown_workload_is_refused(self):
        done = subprocess.run([str(self.binary), "--workload", "nope", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


class Contract(unittest.TestCase):
    """BENCHMARK.json against the limits its readers rely on."""

    def test_shape(self):
        self.assertEqual(sorted(BENCHMARK), ["command", "end_to_end", "paths", "per_layer",
                                             "run_seconds", "workloads"])
        self.assertTrue(2 <= len(WORKLOADS) <= 8)
        for w in BENCHMARK["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)
        names = [m["name"] for k in ("end_to_end", "per_layer") for m in BENCHMARK[k]]
        names += WORKLOADS
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for m in BENCHMARK["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertLessEqual(m["bound"], 0.25)
        for m in BENCHMARK["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"])

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
