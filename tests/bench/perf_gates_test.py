#!/usr/bin/env python3
"""The perf gates on canned inputs.

tools/bench_ab.py must fail exactly when a row of the suite's A/B table
is `regressed`, and must give each bench_crypto_micro row, read from the
median of its repetitions, the suite's verdict: a 40% throughput drop
over 10 pairs regresses, identical pairs do not. Run directly or through `ctest -L benchmark`.
"""

import importlib.util
import json
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


def google_benchmark(bytes_per_second, setup_ns, extra=()):
    """One --benchmark_repetitions=3 result: per-repetition rows around the
    given values, then the mean and median aggregates, which are the only
    rows that carry the values exactly."""
    rows = []
    for name, rate, time in (("BM_ChaCha20Poly1305Seal/1400", bytes_per_second, 1000.0),
                             ("BM_HkdfSessionKey", None, setup_ns)):
        def row(suffix, run_type, scale, aggregate=None):
            out = {"name": name + suffix, "run_name": name, "run_type": run_type,
                   "real_time": time * scale, "time_unit": "ns"}
            if aggregate:
                out["aggregate_name"] = aggregate
            if rate is not None:
                out["bytes_per_second"] = rate / scale
            return out
        rows += [row("", "iteration", scale) for scale in (0.5, 1.5, 3.0)]
        rows += [row("_mean", "aggregate", 2.0, "mean"),
                 row("_median", "aggregate", 1.0, "median"),
                 row("_stddev", "aggregate", 0.01, "stddev")]
    return {"context": {"num_cpus": 4, "build_type": "RelWithDebInfo"},
            "benchmarks": [*rows, *extra]}


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


class KernelAb(Scratch):
    BENCH = {"end_to_end": [{"name": "goodput_MBps", "bound": 0.25},
                            {"name": "cpu_s", "bound": 0.25}]}

    def runs(self, side, bytes_per_second, setup_ns, extra=()):
        """One result file per pair of a 10-pair A/B, every run alike."""
        return [self.write(f"{side}{pair}.json",
                           google_benchmark(bytes_per_second, setup_ns, extra))
                for pair in range(10)]

    def compare(self, a, b):
        contexts, rows = bench_ab.compare_micro(a, b, self.BENCH)
        return {row["workload"]: row for row in rows}

    def test_throughput_row_is_gated_higher_better(self):
        rows = self.compare(self.runs("a", 1e9, 500.0), self.runs("b", 1.4e9, 500.0))
        seal = rows["BM_ChaCha20Poly1305Seal/1400"]
        self.assertEqual((seal["metric"], seal["unit"]), ("bytes_per_second", "MB/s"))
        self.assertEqual(seal["a"]["median"], 1000.0)
        self.assertEqual(seal["verdict"], "improved")

    def test_time_only_row_is_gated_lower_better(self):
        rows = self.compare(self.runs("a", 1e9, 500.0), self.runs("b", 1e9, 850.0))
        setup = rows["BM_HkdfSessionKey"]
        self.assertEqual((setup["metric"], setup["unit"]), ("real_time", "ns"))
        self.assertEqual(setup["verdict"], "regressed")
        rows = self.compare(self.runs("a", 1e9, 500.0), self.runs("b", 1e9, 350.0))
        self.assertEqual(rows["BM_HkdfSessionKey"]["verdict"], "improved")

    def test_only_median_aggregate_rows_are_read(self):
        a = self.runs("a", 1e9, 500.0)
        rows = self.compare(a, self.runs("b", 1e9, 500.0))
        self.assertEqual(sorted(rows), ["BM_ChaCha20Poly1305Seal/1400", "BM_HkdfSessionKey"])
        self.assertEqual(rows["BM_HkdfSessionKey"]["a"]["median"], 500.0)
        self.assertEqual(rows["BM_ChaCha20Poly1305Seal/1400"]["a"]["median"], 1000.0)
        # A run without repetitions has no median row to read.
        single = {"context": {}, "benchmarks": [
            {"name": "BM_HkdfSessionKey", "run_name": "BM_HkdfSessionKey",
             "run_type": "iteration", "real_time": 500.0, "time_unit": "ns"}]}
        with self.assertRaises(bench_ab.GateError):
            bench_ab.compare_micro(a, [self.write("single.json", single)], self.BENCH)

    def test_row_on_one_side_is_reported_not_gated(self):
        new_row = {"name": "BM_ChaCha20Pass/avx512_16_median",
                   "run_name": "BM_ChaCha20Pass/avx512_16", "run_type": "aggregate",
                   "aggregate_name": "median", "real_time": 10.0, "time_unit": "ns",
                   "bytes_per_second": 1.0}
        rows = self.compare(self.runs("a", 1e9, 500.0),
                            self.runs("b", 1e9, 500.0, extra=[new_row]))
        self.assertEqual(rows["BM_ChaCha20Pass/avx512_16"]["verdict"], "only B")
        self.assertEqual(bench_ab.gate(list(rows.values()), "kernel"), 0)

    def test_throughput_drop_of_40_percent_over_10_pairs_fails(self):
        a = self.runs("a", 1e9, 500.0)
        contexts, rows = bench_ab.compare_micro(a, self.runs("b", 0.6e9, 500.0), self.BENCH)
        verdicts = {row["workload"]: row["verdict"] for row in rows}
        self.assertEqual(verdicts["BM_ChaCha20Poly1305Seal/1400"], "regressed")
        self.assertEqual(bench_ab.gate(rows, "kernel"), 1)
        contexts, rows = bench_ab.compare_micro(a, self.runs("b", 1e9, 500.0), self.BENCH)
        self.assertEqual({row["verdict"] for row in rows}, {"unchanged"})
        self.assertEqual(bench_ab.gate(rows, "kernel"), 0)
        self.assertEqual(contexts["b"]["build_type"], "RelWithDebInfo")

    def test_malformed_result_is_an_error(self):
        good = self.runs("a", 1e9, 500.0)
        no_rate = google_benchmark(1e9, 500.0)
        for row in no_rate["benchmarks"]:
            row["bytes_per_second"] = "fast"
        for doc in ([], {"context": {}}, {"context": {}, "benchmarks": [7]}, no_rate):
            with self.subTest(doc=doc), self.assertRaises(bench_ab.GateError):
                bench_ab.compare_micro(good, [self.write("bad.json", doc)], self.BENCH)
        with self.assertRaises(bench_ab.GateError):
            bench_ab.compare_micro(good, [self.dir / "missing.json"], self.BENCH)


if __name__ == "__main__":
    unittest.main()
