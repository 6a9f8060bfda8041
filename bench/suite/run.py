#!/usr/bin/env python3
"""Front end of the campaign benchmark (gfw_bench); README.md defines it.

Run from the repository root:

  python3 bench/suite/run.py
      every workload at its default seed, traced, golden digests checked;
      prints every metric with its unit and writes one results JSON
  python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1
      one workload; the last line of stdout is one JSON object with the
      end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
  python3 bench/suite/run.py --a BIN_A --b BIN_B --pairs 10
      A/B comparison of two gfw_bench binaries, with a verdict per
      (end-to-end metric, workload)
  python3 bench/suite/run.py --smoke --bin BIN
      the quick self-check that `ctest -L benchmark` runs
  python3 bench/suite/run.py --repin
      rewrite goldens.json after a deliberate change of simulation output

Without --bin this script builds gfw_bench from source into
$CARGO_TARGET_DIR (default .bench_build) under the repository root.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
GOLDENS = HERE / "goldens.json"
WORKLOADS = ["bulk_ideal", "bulk_faulted", "fleet_mixed", "dist_journaled"]
SETUP_PROBES = 11  # cold processes per measurement; setup_s is their median
BINARY_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds gfw_bench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = [cmake, "-S", str(HERE), "-B", str(out)]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run([cmake, "--build", str(out), "--target", "gfw_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "gfw_bench"


def run_binary(args, timeout=BINARY_TIMEOUT_S):
    """Runs gfw_bench in its own process group and waits for all of it."""
    proc = subprocess.Popen(args, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{args[0]} timed out after {timeout} s")
    finally:
        # DistRunner workers are this process's children; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def goldens():
    return json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}


def measure(binary, workload, tmpdir, seed=None, seconds=0, reps=5, trace=False,
            setup=True, scale="full", parallel=None, expect_digest=None):
    """One gfw_bench process (plus SETUP_PROBES cold set-up probes).

    Returns the binary's JSON report with "setup_s" (list of samples) and
    "exit" added. Raises BenchError when no report was produced."""
    tmpdir = Path(tmpdir)
    tmpdir.mkdir(parents=True, exist_ok=True)
    report_path = tmpdir / f"{workload}.json"
    common = [str(binary), "--workload", workload, "--scale", scale,
              "--tmpdir", str(tmpdir), "--json", str(report_path)]
    if seed is not None:
        common += ["--seed", str(seed)]
    if parallel is not None:
        common += ["--parallel", str(parallel)]

    # setup_s: from launching a cold process until its first shard's World
    # is built (both instants on CLOCK_MONOTONIC), so static initialisation
    # and process start count as set-up too.
    setup_samples = []
    for _ in range(SETUP_PROBES if setup else 0):
        launched = time.monotonic_ns()
        if run_binary(common + ["--setup-only"]) != 0:
            raise BenchError(f"{workload}: set-up probe failed")
        first_world = json.loads(report_path.read_text())["first_world_ns"]
        setup_samples.append((first_world - launched) / 1e9)

    args = common + ["--reps", str(reps), "--seconds", str(seconds)]
    if trace:
        args.append("--trace")
    if expect_digest:
        args += ["--expect-digest", expect_digest]
    if report_path.exists():
        report_path.unlink()
    code = run_binary(args)
    if not report_path.is_file():
        raise BenchError(f"{workload}: gfw_bench exited {code} without a report")
    report = json.loads(report_path.read_text())
    report_path.unlink()
    report["exit"] = code
    report["setup_s"] = setup_samples
    return report


def summary(values):
    """Median, quartiles, min-max and n of a list of samples."""
    values = sorted(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "min": values[0], "max": values[-1],
            "n": len(values)}


def end_to_end_samples(report):
    """Every sample behind each end-to-end metric of one report."""
    return {"goodput_MBps": report["reps"]["goodput_MBps"],
            "cpu_s": report["reps"]["cpu_s"],
            "peak_rss_mb": [report["end_to_end"]["peak_rss_mb"]],
            "setup_s": report["setup_s"]}


def end_to_end_values(report):
    values = dict(report["end_to_end"])
    if report["setup_s"]:
        values["setup_s"] = statistics.median(report["setup_s"])
    return values


def report_ok(report):
    return report["exit"] == 0 and report["correct"]


def fmt(value):
    return f"{value:.6g}"


# ---- contract mode: one workload ------------------------------------------------

def run_one(args, bench):
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    binary = Path(args.bin) if args.bin else build()
    golden = goldens().get(args.workload)
    expect = golden["digest"] if golden and golden["seed"] == args.seed else None
    report = measure(binary, args.workload, build_dir() / "tmp", seed=args.seed,
                     seconds=args.seconds, reps=3, trace=args.trace == 1,
                     setup=args.trace == 0, expect_digest=expect)
    wanted = bench["per_layer"] if args.trace == 1 else bench["end_to_end"]
    values = report["per_layer"] if args.trace == 1 else end_to_end_values(report)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{args.workload}: no value for {', '.join(missing)}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": units[m["name"]]}
        print(f"{args.workload} {m['name']} = {fmt(values[m['name']])} {m['unit']}")
    correct = report_ok(report)
    print(json.dumps({"correct": correct,
                      "attempted": report["shards_attempted"],
                      "failed": report["shards_failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


# ---- all workloads --------------------------------------------------------------

def run_all(args, bench):
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    binary = Path(args.bin) if args.bin else build()
    pinned = goldens()
    results = {}
    ok = True
    for workload in WORKLOADS:
        golden = pinned.get(workload)
        if golden is None:
            raise BenchError(f"no golden digest for {workload} in {GOLDENS}")
        seed = args.seed if args.seed is not None else golden["seed"]
        expect = golden["digest"] if seed == golden["seed"] else None
        report = measure(binary, workload, build_dir() / "tmp", seed=seed,
                         seconds=args.seconds, reps=5, trace=True, expect_digest=expect)
        ok &= report_ok(report)
        stats = {name: summary(samples)
                 for name, samples in end_to_end_samples(report).items()}
        results[workload] = {
            "seed": seed, "digest": report["digest"],
            "golden": "none" if expect is None else
                      "match" if report["digest"] == expect else "mismatch",
            "correct": report_ok(report), "env": report["env"],
            "end_to_end": {name: dict(stats[name], unit=units[name]) for name in stats},
            "per_layer": {name: {"value": v, "unit": units.get(name, "")}
                          for name, v in report["per_layer"].items()},
        }
        print(f"== {workload} (seed {seed}, digest {report['digest']}, "
              f"golden {results[workload]['golden']}, "
              f"{'correct' if report_ok(report) else 'FAILED'})")
        for m in bench["end_to_end"]:
            s = stats[m["name"]]
            print(f"  {m['name']:<28} {fmt(s['median']):>12} {m['unit']:<6} "
                  f"[q1 {fmt(s['q1'])}, q3 {fmt(s['q3'])}, "
                  f"min {fmt(s['min'])}, max {fmt(s['max'])}, n {s['n']}]")
        for m in bench["per_layer"]:
            print(f"  {m['name']:<28} {fmt(report['per_layer'][m['name']]):>12} {m['unit']}")
    out = Path(args.out) if args.out else build_dir() / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"results: {out}")
    return 0 if ok else 1


# ---- A/B ------------------------------------------------------------------------

def verdict(a, b, better, bound):
    """choosing-metrics section 8 on two lists of per-run medians."""
    sa, sb = summary(a), summary(b)
    higher = better == "higher"

    def beats(x, y):
        return x > y if higher else x < y

    wins = sum(beats(y, x) for x, y in zip(a, b)) / len(a)
    worse = (sa["median"] - sb["median"] if higher else sb["median"] - sa["median"])
    worse /= sa["median"]
    spread = max(sa["q3"] - sa["q1"], sb["q3"] - sb["q1"]) / sa["median"]
    every_run_better = all(beats(y, x) for x in a for y in b)
    if len(a) < 10:
        result = "unresolved"  # too few pairs to claim anything either way
    elif (wins >= 0.9 and beats(sb["median"], sa["median"])
            and abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"]):
        result = "improved"
    elif spread > bound and not every_run_better:
        result = "unresolved"
    elif worse > bound:
        result = "regressed"
    else:
        result = "unchanged"
    return {"a": sa, "b": sb, "win_share_b": wins, "worse_share": worse,
            "spread_share": spread, "bound": bound, "verdict": result}


def run_ab(args, bench):
    sides = {"a": Path(args.a).resolve(), "b": Path(args.b).resolve()}
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    values = {side: {w: [] for w in WORKLOADS} for side in sides}
    digests = {w: set() for w in WORKLOADS}
    for pair in range(args.pairs):
        order = ["a", "b"] if pair % 2 == 0 else ["b", "a"]
        for workload in WORKLOADS:
            for side in order:
                report = measure(sides[side], workload, build_dir() / "tmp" / side,
                                 seed=args.seed, seconds=seconds, reps=3)
                if not report_ok(report):
                    raise BenchError(f"{side} {workload}: run failed its checks")
                values[side][workload].append(end_to_end_values(report))
                digests[workload].add(report["digest"])
                log(f"pair {pair + 1}/{args.pairs} {side} {workload}: "
                    + ", ".join(f"{k} {fmt(v)}" for k, v in values[side][workload][-1].items()))
    rows = []
    for workload in WORKLOADS:
        # A change that only speeds up the simulator must not move its output.
        print(f"{workload:<15} simulation output "
              f"{'identical on A and B' if len(digests[workload]) == 1 else 'DIFFERS'}")
        for m in bench["end_to_end"]:
            a = [v[m["name"]] for v in values["a"][workload]]
            b = [v[m["name"]] for v in values["b"][workload]]
            row = verdict(a, b, m["better"], m["bound"])
            row.update(metric=m["name"], unit=m["unit"], workload=workload)
            rows.append(row)
            print(f"{workload:<15} {m['name']:<13} A {fmt(row['a']['median']):>10} "
                  f"[{fmt(row['a']['q1'])}, {fmt(row['a']['q3'])}]  "
                  f"B {fmt(row['b']['median']):>10} [{fmt(row['b']['q1'])}, "
                  f"{fmt(row['b']['q3'])}] {m['unit']:<5} B wins {row['win_share_b']:.0%}  "
                  f"spread {row['spread_share']:.1%} bound {m['bound']:.0%}  {row['verdict']}")
    out = Path(args.out) if args.out else build_dir() / "ab.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"a": str(sides["a"]), "b": str(sides["b"]),
                               "pairs": args.pairs, "seconds": seconds,
                               "same_output": {w: len(d) == 1 for w, d in digests.items()},
                               "rows": rows},
                              indent=2) + "\n")
    print(f"results: {out}")
    return 0


# ---- smoke test and re-pinning --------------------------------------------------

def run_smoke(args, bench):
    binary = Path(args.bin) if args.bin else build()
    tmpdir = Path(args.tmpdir) if args.tmpdir else build_dir() / "smoke"
    failures = []
    for workload in WORKLOADS:
        one = measure(binary, workload, tmpdir, reps=1, trace=True, setup=False,
                      scale="smoke", parallel=1)
        four = measure(binary, workload, tmpdir, reps=1, scale="smoke", parallel=4)
        for report in (one, four):
            if not report_ok(report):
                failures.append(f"{workload}: run failed its checks (a traced digest "
                                "that differs from the untraced one fails here)")
        if one["digest"] != four["digest"]:
            failures.append(f"{workload}: digest differs at 1 vs 4 "
                            f"{'workers' if 'workers' in one['env'] else 'threads'}")
        have = set(end_to_end_values(four)) | set(one["per_layer"])
        missing = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]
                   if m["name"] not in have]
        if missing:
            failures.append(f"{workload}: missing metrics {', '.join(missing)}")
        print(f"{workload}: digest {one['digest']} at 1 and 4 "
              f"{'workers' if 'workers' in one['env'] else 'threads'}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def run_repin(args, bench):
    binary = Path(args.bin) if args.bin else build()
    pinned = goldens()
    for workload in WORKLOADS:
        seed = pinned.get(workload, {}).get("seed")
        report = measure(binary, workload, build_dir() / "tmp", seed=seed, reps=1,
                         setup=False)
        if not report_ok(report):
            raise BenchError(f"{workload}: run failed its checks; not pinning")
        pinned[workload] = {"seed": report["seed"], "digest": report["digest"]}
        print(f"{workload}: seed {report['seed']} digest {report['digest']}")
    GOLDENS.write_text(json.dumps(pinned, indent=2) + "\n")
    print(f"wrote {GOLDENS}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--bin", help="use this gfw_bench instead of building one")
    parser.add_argument("--out", help="results JSON path")
    parser.add_argument("--a", help="A/B: the baseline gfw_bench binary")
    parser.add_argument("--b", help="A/B: the candidate gfw_bench binary")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--tmpdir", help="smoke: scratch directory")
    parser.add_argument("--repin", action="store_true")
    args = parser.parse_args()
    if (args.a is None) != (args.b is None):
        parser.error("--a and --b go together")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        bench = load_benchmark()
        if args.smoke:
            return run_smoke(args, bench)
        if args.repin:
            return run_repin(args, bench)
        if args.a is not None:
            return run_ab(args, bench)
        if args.workload is not None:
            if args.seed is None or args.seconds is None:
                parser.error("--workload needs --seed and --seconds")
            return run_one(args, bench)
        if args.seconds is None:
            args.seconds = 0
        return run_all(args, bench)
    except (BenchError, subprocess.CalledProcessError, OSError, KeyError,
            ValueError) as error:
        log(f"run.py: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
