#!/usr/bin/env python3
"""The perf gates on canned inputs.

tools/bench_ab.py's verdict check must fail exactly when a row of the
suite's A/B table is `regressed`, and tools/check_bench_regression.py
must fail a 40% throughput drop and pass identical input. Run directly
or through `ctest -L benchmark`.
"""

import importlib.util
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[2] / "tools"


def load_bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", TOOLS / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_ab = load_bench_ab()


def ab_row(verdict, workload="bulk_ideal", metric="goodput_MBps"):
    side = {"median": 60.0, "q1": 58.0, "q3": 62.0, "min": 55.0, "max": 64.0, "n": 10}
    return {"workload": workload, "metric": metric, "unit": "MB/s", "bound": 0.25,
            "a": side, "b": dict(side, median=40.0), "win_share_b": 0.0,
            "worse_share": 0.33, "spread_share": 0.07, "verdict": verdict}


def google_benchmark(bytes_per_second, setup_ns):
    return {"context": {"num_cpus": 4},
            "benchmarks": [
                {"name": "BM_ChaCha20Poly1305Seal/1400", "run_type": "iteration",
                 "real_time": 1000.0, "bytes_per_second": bytes_per_second},
                {"name": "BM_HkdfSessionKey", "run_type": "iteration",
                 "real_time": setup_ns},
                {"name": "BM_ChaCha20Poly1305Seal/1400_mean", "run_type": "aggregate",
                 "real_time": 1.0, "bytes_per_second": 1.0}]}


class Scratch(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.dir = Path(self._dir.name)

    def tearDown(self):
        self._dir.cleanup()

    def write(self, name, doc):
        path = self.dir / name
        path.write_text(json.dumps(doc))
        return path


class BenchAbVerdictCheck(Scratch):
    def check(self, rows):
        return bench_ab.check(self.write("ab.json", {"pairs": 10, "rows": rows}))

    def test_regressed_row_fails(self):
        rows = [ab_row("unchanged"), ab_row("regressed", "fleet_mixed", "cpu_s"),
                ab_row("improved")]
        self.assertEqual(self.check(rows), 1)

    def test_rows_without_regression_pass(self):
        for verdict in ("unchanged", "unresolved", "improved"):
            with self.subTest(verdict=verdict):
                self.assertEqual(self.check([ab_row(verdict)]), 0)
        self.assertEqual(self.check([ab_row("unchanged"), ab_row("unresolved"),
                                     ab_row("improved")]), 0)

    def test_malformed_result_is_an_error(self):
        with self.assertRaises(bench_ab.GateError):
            self.check([ab_row("slower")])
        with self.assertRaises(bench_ab.GateError):
            self.check([])
        with self.assertRaises(bench_ab.GateError):
            bench_ab.check(self.write("bad.json", {"metrics": []}))


class CheckBenchRegression(Scratch):
    def run_gate(self, baseline, current):
        return subprocess.run(
            [sys.executable, str(TOOLS / "check_bench_regression.py"),
             str(self.write("baseline.json", baseline)),
             str(self.write("current.json", current)), "--threshold", "0.30"],
            capture_output=True, text=True).returncode

    def test_identical_input_passes(self):
        doc = google_benchmark(1e9, 500.0)
        self.assertEqual(self.run_gate(doc, doc), 0)

    def test_throughput_drop_of_40_percent_fails(self):
        self.assertEqual(self.run_gate(google_benchmark(1e9, 500.0),
                                       google_benchmark(0.6e9, 500.0)), 1)

    def test_real_time_rise_of_40_percent_fails(self):
        # No throughput counter: real_time, lower is better (500 / 700 = -29%
        # passes, 500 / 850 = -41% fails).
        self.assertEqual(self.run_gate(google_benchmark(1e9, 500.0),
                                       google_benchmark(1e9, 700.0)), 0)
        self.assertEqual(self.run_gate(google_benchmark(1e9, 500.0),
                                       google_benchmark(1e9, 850.0)), 1)

    def test_non_google_benchmark_input_is_a_usage_error(self):
        reporter = {"bench": "x", "metrics": [{"metric": "goodput", "value": 1.0}]}
        self.assertEqual(self.run_gate(reporter, reporter), 2)


if __name__ == "__main__":
    unittest.main()
