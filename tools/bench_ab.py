#!/usr/bin/env python3
"""Same-machine perf gate: A/B of BASE against the working tree.

Usage, from anywhere inside the repository:

  python3 tools/bench_ab.py BASE

BASE is any git revision (a SHA, a branch, HEAD~1). The script checks
BASE out into a temporary git worktree and builds two things on each
side: gfw_bench with that tree's own bench/suite/run.py (checked by the
suite's smoke test), and bench_crypto_micro with `cmake -S TREE` at the
tree's default build type, the one the suite's campaigns use. Then:

  campaigns  bench/suite/run.py --a BASE_BIN --b HEAD_BIN --pairs 10
             at the run length BENCHMARK.json declares (about 30 minutes
             on a 4-vCPU VM); table in ab.json
  kernels    10 pairs of bench_crypto_micro runs of 3 repetitions each,
             alternating which side runs first (about 7 minutes); table
             in ab_crypto_micro.json

Building bench_crypto_micro from clean adds about 5 minutes a side on 4
cores; the working tree's build is kept in $CARGO_TARGET_DIR/micro.

Both tables go to $CARGO_TARGET_DIR (default .bench_build). A kernel
row's value in one run is the median of that run's repetitions (the
`median` aggregate row); single repetitions swing too widely on a shared
VM to resolve a 25 % change. Each kernel row gets the suite's own
verdict rule: bytes_per_second rows with the goodput_MBps bound (higher
is better), time-only rows on real_time with the cpu_s bound (lower is
better). A row that only one side has is printed but not gated. A
campaign median blurs a kernel regression, which is why the kernels are
compared one level down as well.

Exit status: 0 = no row regressed, 1 = at least one campaign or kernel
row is `regressed`, 2 = BASE could not be checked out, built or run.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 10  # run.py leaves every row `unresolved` below 10 pairs
VERDICTS = {"improved", "unchanged", "unresolved", "regressed"}
# Plain seconds: google-benchmark 1.7 rejects the "0.05s" form.
MICRO_MIN_TIME = "0.05"
MICRO_REPETITIONS = 3


def load_suite():
    path = Path(__file__).resolve().parents[1] / "bench" / "suite" / "run.py"
    spec = importlib.util.spec_from_file_location("suite_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


suite = load_suite()


class GateError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def gate(rows, what):
    """Exit status for a verdict table: 1 if any row regressed."""
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    for row in regressed:
        print(f"REGRESSED {row['workload']} {row['metric']}: "
              f"A median {row['a']['median']:.6g}, B median {row['b']['median']:.6g} "
              f"{row['unit']} (bound {row['bound']:.0%})")
    print(f"bench_ab: {len(regressed)} of {len(rows)} {what} rows regressed")
    return 1 if regressed else 0


def check(ab_path):
    """Exit status for one run.py A/B result file: 1 if any row regressed."""
    try:
        rows = json.loads(Path(ab_path).read_text())["rows"]
        verdicts = [row["verdict"] for row in rows]
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise GateError(f"{ab_path}: not a run.py A/B result ({error})")
    unknown = set(verdicts) - VERDICTS
    if unknown or not rows:
        raise GateError(f"{ab_path}: unexpected verdicts {sorted(unknown)}"
                        if unknown else f"{ab_path}: no rows")
    return gate(rows, "campaign")


def load_micro(path):
    """Context and {(row name, unit): value} of one google-benchmark JSON file.

    Only the `median` aggregate rows of --benchmark_repetitions are read,
    each under its benchmark's run_name; the per-repetition rows and the
    other aggregates are skipped. A bytes_per_second row is read in MB/s,
    any other row as its real_time."""
    try:
        doc = json.loads(Path(path).read_text())
        values = {}
        for row in doc["benchmarks"]:
            if row.get("aggregate_name") != "median":
                continue
            if "bytes_per_second" in row:
                values[row["run_name"], "MB/s"] = float(row["bytes_per_second"]) / 1e6
            else:
                values[row["run_name"], row["time_unit"]] = float(row["real_time"])
        if not values:
            raise ValueError("no median aggregate rows")
        return doc["context"], values
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as error:
        raise GateError(f"{path}: not a google-benchmark result ({error})")


def compare_micro(runs_a, runs_b, bench):
    """Side contexts and one verdict row per microbench row, from each side's
    result files. A row missing from any run of a side is not gated."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sides = {"a": [load_micro(path) for path in runs_a],
             "b": [load_micro(path) for path in runs_b]}
    contexts = {side: loaded[0][0] for side, loaded in sides.items()}
    keys = sorted(set().union(*(values for loaded in sides.values()
                                for _, values in loaded)))
    rows = []
    for name, unit in keys:
        present = tuple(side for side, loaded in sides.items()
                        if all((name, unit) in values for _, values in loaded))
        if present != ("a", "b"):
            verdict = {("a",): "only A", ("b",): "only B"}.get(present, "not in every run")
            rows.append({"workload": name, "unit": unit, "verdict": verdict})
            continue
        a = [values[name, unit] for _, values in sides["a"]]
        b = [values[name, unit] for _, values in sides["b"]]
        throughput = unit == "MB/s"
        row = suite.verdict(a, b, "higher" if throughput else "lower",
                            bounds["goodput_MBps" if throughput else "cpu_s"])
        row.update(workload=name, unit=unit,
                   metric="bytes_per_second" if throughput else "real_time")
        rows.append(row)
    return contexts, rows


def print_micro(contexts, rows):
    for side, context in contexts.items():
        print(f"kernels {side.upper()}: " + ", ".join(
            f"{key} {context.get(key, '?')}"
            for key in ("cpu_features", "kernel_tiers", "build_type")))
    fmt = suite.fmt
    for row in rows:
        if "a" not in row:
            print(f"{row['workload']:<40} {row['unit']:<5} {row['verdict']} (not gated)")
            continue
        print(f"{row['workload']:<40} A {fmt(row['a']['median']):>10} "
              f"[{fmt(row['a']['q1'])}, {fmt(row['a']['q3'])}]  "
              f"B {fmt(row['b']['median']):>10} [{fmt(row['b']['q1'])}, "
              f"{fmt(row['b']['q3'])}] {row['unit']:<5} B wins {row['win_share_b']:.0%}  "
              f"spread {row['spread_share']:.1%} bound {row['bound']:.0%}  {row['verdict']}")


def run_micro(binaries, scratch):
    """PAIRS alternating runs of each side's bench_crypto_micro; returns each
    side's result files."""
    runs = {"a": [], "b": []}
    for pair in range(PAIRS):
        for side in ("a", "b") if pair % 2 == 0 else ("b", "a"):
            path = Path(scratch) / f"micro-{side}-{pair}.json"
            subprocess.run([str(binaries[side]), f"--benchmark_min_time={MICRO_MIN_TIME}",
                            f"--benchmark_repetitions={MICRO_REPETITIONS}",
                            f"--benchmark_out={path}", "--benchmark_out_format=json"],
                           check=True, stdout=subprocess.DEVNULL)
            runs[side].append(path)
            log(f"kernel pair {pair + 1}/{PAIRS} {side}")
    return runs["a"], runs["b"]


def git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def build(tree, out):
    """Builds `tree`'s gfw_bench into `out` with the tree's own run.py."""
    run_py = Path(tree) / "bench" / "suite" / "run.py"
    if not run_py.is_file():
        raise GateError(f"{tree} has no bench/suite/run.py")
    env = dict(os.environ, CARGO_TARGET_DIR=str(out))
    subprocess.run([sys.executable, str(run_py), "--smoke"], check=True, env=env,
                   stdout=sys.stderr)
    return Path(out) / "gfw_bench"


def build_micro(tree, out):
    """Builds `tree`'s bench_crypto_micro into `out` at the tree's default
    build type."""
    subprocess.run(["cmake", "-S", str(tree), "-B", str(out)], check=True,
                   stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "bench_crypto_micro",
                    "-j", str(min(4, os.cpu_count() or 1))], check=True, stdout=sys.stderr)
    return Path(out) / "bench" / "bench_crypto_micro"


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        log(__doc__)
        return 2
    base = sys.argv[1]
    root = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    out = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out.mkdir(parents=True, exist_ok=True)
    try:
        sha = git(root, "rev-parse", "--verify", f"{base}^{{commit}}")
        with tempfile.TemporaryDirectory(dir=out, prefix="ab-base-") as scratch:
            tree = Path(scratch) / "src"
            git(root, "worktree", "add", "--detach", str(tree), sha)
            try:
                log(f"bench_ab: building base {sha[:12]} and HEAD")
                base_bin = build(tree, Path(scratch) / "build")
                head_bin = build(root, out)
                micro = {"a": build_micro(tree, Path(scratch) / "micro"),
                         "b": build_micro(root, out / "micro")}
                ab_path = out / "ab.json"
                subprocess.run([sys.executable, str(root / "bench" / "suite" / "run.py"),
                                "--a", str(base_bin), "--b", str(head_bin),
                                "--pairs", str(PAIRS), "--out", str(ab_path)], check=True)
                runs_a, runs_b = run_micro(micro, scratch)
            finally:
                git(root, "worktree", "remove", "--force", str(tree))
            contexts, rows = compare_micro(runs_a, runs_b, suite.load_benchmark())
        print_micro(contexts, rows)
        (out / "ab_crypto_micro.json").write_text(
            json.dumps({"pairs": PAIRS, "contexts": contexts, "rows": rows}, indent=2) + "\n")
        return max(check(ab_path), gate(rows, "kernel"))
    except (GateError, suite.BenchError, subprocess.CalledProcessError, OSError) as error:
        detail = getattr(error, "stderr", None)
        log(f"bench_ab: {error}" + (f"\n{detail}" if detail else ""))
        return 2


if __name__ == "__main__":
    sys.exit(main())
