"""Time split conjugacy depth on the lamplighter family, and depth sweeps.

Depth rows: for each (p, i) the script builds `family_lamplighter(p, i)`
and times `family_depth` on it at the family's default budget, its upper
bound q * p^(q - 1), in this process (the pair's construction is not
timed). It counts the quotient tests each query runs by wrapping
`conjugate_in_split_quotient` as `wreathconj.depth` binds it. Each row
holds p, i, q, the depth, the separating subgroup, the median seconds
over the runs and the candidates tested.

Sweep rows (marked "section": "sweep"): for each (ring, n, budget) the
script times `depth_sweep` in this process and counts the class keys it
computes by wrapping `quotient_class_key` as `wreathconj.depth` binds
it. Each row holds ring (0 for Z), n, budget, the rows' max depths, the
median seconds over the runs and the class keys of one run. The first
four are the sweeps of the benchmark's `sweep` workload.

Z-enumeration rows (marked "section": "enum_z"): for each budget the
script times `enumerate_split_subgroups_z` in this process. Each row
holds the budget, the number of subgroups listed and the median seconds
over the runs. Budgets 8, 16 and 18 are the doubling stages of a Z depth
query at the benchmark's budget 18.

Every row also holds the Python version, and the commit and source
digest of the checkout the script sits in. The rows are added to the
JSON list in --out, so one file can hold rows from two checkouts. Run
from the repository root:

    python3 benchmarks/bench_depth.py --out BENCH_depth.json
"""

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from wreathconj import depth  # noqa: E402

PAIRS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)]
SWEEPS = [(2, 8, 256), (3, 5, 243), (5, 4, 125), (0, 3, 16), (2, 10, 2048), (3, 7, 2187), (0, 5, 32)]
ENUM_BUDGETS = [8, 16, 18, 24, 32, 48, 96]


def checkout() -> dict:
    def git(*args):
        run = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return run.stdout.strip() if run.returncode == 0 else None

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wreathconj").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain", "--", "src")
    return {
        "commit": git("rev-parse", "HEAD"),
        "src_modified": bool(status) if status is not None else None,
        "src_sha256": src.hexdigest(),
    }


def measure(p: int, i: int, runs: int) -> dict:
    tests = 0
    test = depth.conjugate_in_split_quotient

    def counted(*args):
        nonlocal tests
        tests += 1
        return test(*args)

    pair = depth.family_lamplighter(p, i)
    seconds = []
    depth.conjugate_in_split_quotient = counted
    try:
        for _ in range(runs):
            tests = 0
            start = time.perf_counter()
            res = depth.family_depth(pair)
            seconds.append(time.perf_counter() - start)
    finally:
        depth.conjugate_in_split_quotient = test
    return {
        "p": p,
        "i": i,
        "q": pair.q,
        "split_depth": res.split_depth,
        "subgroup": depth.describe_subgroup(res.subgroup) if res.found() else None,
        "seconds": round(statistics.median(seconds), 6),
        "runs": runs,
        "candidates_tested": tests,
    }


def measure_sweep(ring: int, n: int, budget: int, runs: int) -> dict:
    keys = 0
    key = depth.quotient_class_key

    def counted(*args):
        nonlocal keys
        keys += 1
        return key(*args)

    seconds = []
    depth.quotient_class_key = counted
    try:
        for _ in range(runs):
            keys = 0
            start = time.perf_counter()
            rows = depth.depth_sweep(ring, n, budget)
            seconds.append(time.perf_counter() - start)
    finally:
        depth.quotient_class_key = key
    return {
        "section": "sweep",
        "ring": ring,
        "n": n,
        "budget": budget,
        "max_depths": [r.max_split_depth for r in rows],
        "seconds": round(statistics.median(seconds), 6),
        "runs": runs,
        "class_keys": keys,
    }


def measure_enum_z(budget: int, runs: int) -> dict:
    seconds = []
    for _ in range(runs):
        start = time.perf_counter()
        subs = depth.enumerate_split_subgroups_z(budget)
        seconds.append(time.perf_counter() - start)
    return {
        "section": "enum_z",
        "budget": budget,
        "subgroups": len(subs),
        "seconds": round(statistics.median(seconds), 6),
        "runs": runs,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="JSON list the rows are added to")
    ap.add_argument("--runs", type=int, default=3, help="timed runs per pair, sweep or budget")
    args = ap.parse_args()
    env = {"python": platform.python_version(), **checkout()}

    rows = []
    results = [measure(p, i, args.runs) for p, i in PAIRS]
    results += [measure_sweep(*sweep, args.runs) for sweep in SWEEPS]
    results += [measure_enum_z(budget, args.runs) for budget in ENUM_BUDGETS]
    for result in results:
        row = {**result, **env}
        print(json.dumps(row), flush=True)
        rows.append(row)
    if args.out:
        old = json.loads(args.out.read_text()) if args.out.exists() else []
        args.out.write_text(json.dumps(old + rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
