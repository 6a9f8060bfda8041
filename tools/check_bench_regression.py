#!/usr/bin/env python3
"""Compare a fresh bench JSON run against the committed baseline.

Usage: check_bench_regression.py BASELINE.json CURRENT.json
           [--threshold 0.30] [--write-baseline]

Both files are google-benchmark ``--benchmark_out`` JSON (a top-level
``benchmarks`` list), as written by bench_crypto_micro. For every
benchmark present in both files that reports ``bytes_per_second``, the
current throughput must not fall more than ``threshold`` below the
baseline. Benchmarks without a throughput counter (e.g. the fixed-size
setup benches) are compared on real_time instead.

This is the kernel-level gate only: a campaign median blurs a kernel
regression. Campaign-level performance is gated by tools/bench_ab.py.

``--write-baseline`` validates CURRENT and copies it over BASELINE
instead of comparing — the supported way to refresh a baseline after an
intentional perf change (no hand-editing JSON).

Every input problem — missing file, non-JSON bytes, a JSON document with
the wrong shape, non-numeric values — exits 2 with a one-line
explanation, never a traceback.

CI machines are noisy, so the default 30% only catches real
regressions (the kernels in this repo moved ~10x, so even a partial
revert trips it).

Exit code 0 = within bounds (or baseline written), 1 = regression,
2 = usage/parse error.
"""

import argparse
import json
import shutil
import sys


def fail(msg):
    print(f"check_bench_regression: {msg}", file=sys.stderr)
    sys.exit(2)


def load_entries(path):
    """Returns {name: (value, higher_is_better, metric_label)}.

    Exits 2 with a structured message on any malformed input: this
    script gates CI, and a traceback reads as "the checker broke", not
    "your baseline file is bad".
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e.strerror or e}")
    except ValueError as e:
        fail(f"{path} is not valid JSON: {e}")

    if not isinstance(doc, dict):
        fail(f"{path}: expected a JSON object at top level, got "
             f"{type(doc).__name__} (not a bench JSON file?)")

    out = {}
    benches = doc.get("benchmarks")
    if benches is None:
        fail(f"{path}: no \"benchmarks\" list — not a google-benchmark "
             "output file")
    if not isinstance(benches, list):
        fail(f"{path}: \"benchmarks\" should be a list, got "
             f"{type(benches).__name__}")
    for i, bench in enumerate(benches):
        if not isinstance(bench, dict):
            fail(f"{path}: benchmarks[{i}] should be an object, got "
                 f"{type(bench).__name__}")
        # Skip aggregate rows (mean/median/stddev of --benchmark_repetitions).
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        if not isinstance(name, str):
            fail(f"{path}: benchmarks[{i}] has no \"name\" string")
        for field, higher in (("bytes_per_second", True), ("real_time", False)):
            if field not in bench:
                continue
            try:
                value = float(bench[field])
            except (TypeError, ValueError):
                fail(f"{path}: benchmarks[{i}] (\"{name}\") has a "
                     f"non-numeric {field}: {bench[field]!r}")
            out[name] = (value, higher, field)
            break
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional drop vs baseline (default 0.30)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="validate CURRENT and copy it over BASELINE "
                             "instead of comparing")
    args = parser.parse_args()

    if args.write_baseline:
        entries = load_entries(args.current)
        if not entries:
            fail(f"refusing to write baseline: no comparable entries in "
                 f"{args.current}")
        try:
            shutil.copyfile(args.current, args.baseline)
        except OSError as e:
            fail(f"cannot write baseline {args.baseline}: {e.strerror or e}")
        print(f"baseline {args.baseline} updated from {args.current} "
              f"({len(entries)} comparable entries)")
        return

    baseline = load_entries(args.baseline)
    current = load_entries(args.current)
    if not baseline:
        fail(f"no comparable entries in {args.baseline}")

    failures = []
    compared = 0
    for name, (b, higher_is_better, metric) in sorted(baseline.items()):
        if name not in current:
            print(f"  [skip] {name}: missing from current run")
            continue
        c, cur_higher, cur_metric = current[name]
        if cur_higher != higher_is_better or cur_metric != metric:
            print(f"  [skip] {name}: metric changed ({metric} -> {cur_metric})")
            continue
        if b <= 0 or c <= 0:
            print(f"  [skip] {name}: non-positive value "
                  f"(baseline={b:.4g} current={c:.4g})")
            continue
        compared += 1
        ratio = c / b if higher_is_better else b / c
        status = "ok"
        if ratio < 1.0 - args.threshold:
            status = "REGRESSION"
            failures.append(name)
        print(f"  [{status}] {name}: {metric} baseline={b:.4g} current={c:.4g} "
              f"({100.0 * (ratio - 1.0):+.1f}%)")

    if compared == 0:
        fail("nothing to compare")
    if failures:
        print(f"{len(failures)} benchmark(s) regressed more than "
              f"{100 * args.threshold:.0f}%: {', '.join(failures)}")
        sys.exit(1)
    print(f"all {compared} compared benchmarks within {100 * args.threshold:.0f}% "
          "of baseline")


if __name__ == "__main__":
    main()
