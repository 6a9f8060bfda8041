#!/usr/bin/env python3
"""Same-machine perf gate: the benchmark suite's A/B of BASE against HEAD.

Usage, from anywhere inside the repository:

  python3 tools/bench_ab.py BASE

BASE is any git revision (a SHA, a branch, HEAD~1). The script checks
BASE out into a temporary git worktree and builds its gfw_bench with
that tree's own bench/suite/run.py; it builds the working tree's
gfw_bench the same way. Each build is checked by the suite's smoke test.
It then runs, with the working tree's run.py,

  bench/suite/run.py --a BASE_BIN --b HEAD_BIN --pairs 10

at the run length BENCHMARK.json declares (about 30 minutes on a 4-vCPU
VM), and prints the verdict table. run.py reports verdicts but always
exits 0, and with fewer than 10 pairs every row is `unresolved`; this
wrapper turns the table into an exit status.

Exit status: 0 = no row regressed, 1 = at least one (metric, workload)
row is `regressed`, 2 = BASE could not be checked out, built or run.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 10  # run.py leaves every row `unresolved` below 10 pairs
VERDICTS = {"improved", "unchanged", "unresolved", "regressed"}


class GateError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


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
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    for row in regressed:
        print(f"REGRESSED {row['workload']} {row['metric']}: "
              f"A median {row['a']['median']:.6g}, B median {row['b']['median']:.6g} "
              f"{row['unit']} (bound {row['bound']:.0%})")
    print(f"bench_ab: {len(regressed)} of {len(rows)} rows regressed")
    return 1 if regressed else 0


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
                ab_path = out / "ab.json"
                subprocess.run([sys.executable, str(root / "bench" / "suite" / "run.py"),
                                "--a", str(base_bin), "--b", str(head_bin),
                                "--pairs", str(PAIRS), "--out", str(ab_path)], check=True)
            finally:
                git(root, "worktree", "remove", "--force", str(tree))
        return check(ab_path)
    except (GateError, subprocess.CalledProcessError, OSError) as error:
        detail = getattr(error, "stderr", None)
        log(f"bench_ab: {error}" + (f"\n{detail}" if detail else ""))
        return 2


if __name__ == "__main__":
    sys.exit(main())
