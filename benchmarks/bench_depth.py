"""Time lamplighter depths, depth sweeps, Z enumeration and the witness path.

Depth rows: for each (p, i) the script builds `family_lamplighter(p, i)`
and times `family_depth` on it at the family's default budget, its upper
bound q * p^(q - 1), in this process (the pair's construction is not
timed). It counts the quotient tests each query runs by wrapping
`conjugate_in_split_quotient` as `wreathconj.depth` binds it. Each row
holds p, i, q, the depth, the separating subgroup, the median seconds
over the runs and the candidates tested.

Sweep rows (marked "section": "sweep"): for each (ring, n, budget) the
script times `depth_sweep` in this process, wrapping three functions as
`wreathconj.depth` binds them: `conjugacy_classes` for the classes and
the seconds spent listing them, `_split_events` for the seconds of the
refinement (reading the subgroup stream and keying the classes) and the
subgroups it reads, and `quotient_class_key` for the class keys
computed. The seconds from the refinement's end to the sweep's return
are those of reading the rows. Each row holds ring (0 for Z), n,
budget, the rows' max depths, the median seconds over the runs of the
whole sweep, of its classes, of its refinement and of reading its rows
(`rows_seconds`; rows recorded before that column came in lack it),
and the counts of one run. The first four are the sweeps of the
benchmark's `sweep` workload; the last, F2 n = 20 at 2^26, reads the
F_p stream far enough to list orders of degree 26.

Z-enumeration rows (marked "section": "enum_z"): for each budget the
script times `enumerate_split_subgroups_z` in this process. Each row
holds the budget, the number of subgroups listed and the median seconds
over the runs. Budget 18 is the budget of the benchmark's `z_depth`
queries. F_p-enumeration rows (marked "section": "enum_fp") time
`enumerate_split_subgroups_fp` the same way, F2 at 4096 and F3 at 2187,
and also hold p.

Z-depth rows (marked "section": "depth_z"): the script times
`split_conjugacy_depth` in this process on Z pairs. The "s8" row runs
every op of the `z_depth` pool (`perfbench/pool/z_depth.json`) whose
answer lies at index 8 or below, at the pool's budget, as one loop over
the list; it holds the best of the runs of that loop, each after a
`gc.collect()`, divided by the number of queries. s8 rows recorded
before the "seconds" column came in hold instead the median and total
over the ops of each op's median single query (`seconds_median`,
`seconds_total`), which moved by up to a quarter between runs of the
same code. The "pair" rows run the pair (1 - x^-1, 0), (-1 + x^-1,
0), whose depth is 21, at budgets 18 (the query reads every subgroup
and exceeds the budget) and 24, and the pair of `family_zwrz(3)`
(shifts 16), whose depth is 272, at budgets 300 and 1000; they hold
the ring, the depth and the seconds per query. Those are the best over
the runs of a loop of `loops` queries, the least power of 2 of them
that takes at least 20 ms, divided by `loops`; pair rows recorded
before the `loops` column came in hold the median of single queries,
which moved by tens of per cent between runs of the same code.

F_p-depth rows (marked "section": "depth_fp"): the same over F_p. The
"s8" row runs every op of the `fp_depth` pool
(`perfbench/pool/fp_depth.json`) whose answer lies at index 8 or below.
The "pair" rows run (1 + x, m), (x, m) over F2, whose depth is 2, for
large shifts m: the primes 10000019 at budget 10^9 and 999983 at 2^24,
and 9699690 (the product of the primes up to 19) at 2^30. Three more run
pairs whose shifts are both 0, so every divisor of every x^t - 1 is a
candidate: (x^60 - 1, 0), (0, 0) over F2 at 4096 and at 10^12, depth
56 at both, and (x^24 - 1, 0), (0, 0) over F3 at 2187, depth 351.

Witness rows (marked "section": "witness"): for each of the five groups
of the benchmark's `witness` workload the script draws, from a seed fixed
in the script, elements g with 1-4 lamps and an acting part of infinite
order, and pairs each with a conjugate z g z^-1 and with a near-conjugate
z g z^-1 delta (one extra lamp). It then times, in this process, `reduce`
on every element, `conjugate_test` on every pair, and `full_witness` on
every nonconjugate pair. One more run, untimed, counts calls per phase
by wrapping functions as `wreathconj.wreath` and `wreathconj.witness`
bind them: `solve_multiple`, `_verify_modulus` (one per acting modulus
verified), and `reduce`, with the calls whose input was already reduced
(the reduced form equals the input). Each row holds the group, the
number of elements and pairs, the median seconds of each of the three
phases over the runs, those counts per phase, and the witnesses that
end in a contract error. Witness rows recorded before the counts of
`_verify_modulus` and of already-reduced inputs came in were timed with
the `solve_multiple` counting wrapper installed, so their seconds read
higher than later rows' and are not comparable with them.

Every timed run starts right after a `gc.collect()`, so a run does not
pay for the garbage of the one before it. Every row also holds the
Python version, and the commit and source digest of the checkout the
script sits in. The rows are added to the JSON list in --out, so one
file can hold rows from two checkouts. Run from the repository root:

    python3 benchmarks/bench_depth.py --out BENCH_depth.json
"""

import argparse
import gc
import hashlib
import json
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from wreathconj import depth, laurent, witness, wreath  # noqa: E402
from wreathconj.abelian import parse_group  # noqa: E402

PAIRS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)]
SWEEPS = [
    (2, 8, 256), (3, 5, 243), (5, 4, 125), (0, 3, 16), (2, 10, 2048), (3, 7, 2187), (0, 5, 32),
    (2, 12, 4096), (2, 20, 2**26),
]
ENUM_BUDGETS = [8, 16, 18, 24, 32, 48, 96, 256]
ENUM_FP = [(2, 4096), (3, 2187)]
DEEP_PAIR = ("(1 - x^-1, 0)", "(-1 + x^-1, 0)")
DEEP_BUDGETS = [18, 24]
ZWRZ_BUDGETS = [300, 1000]  # for the pair of family_zwrz(3)
# (ring, pair, budget) of the F_p depth rows: large shifts, then both shifts 0
SHIFT_FP = [
    (2, ("(1 + x, 10000019)", "(x, 10000019)"), 10**9),
    (2, ("(1 + x, 999983)", "(x, 999983)"), 2**24),
    (2, ("(1 + x, 9699690)", "(x, 9699690)"), 2**30),
    (2, ("(x^60 - 1, 0)", "(0, 0)"), 4096),
    (2, ("(x^60 - 1, 0)", "(0, 0)"), 10**12),
    (3, ("(x^24 - 1, 0)", "(0, 0)"), 2187),
]
WITNESS_GROUPS = ["F2 wr Z", "Z wr Z", "Z/4 wr Z x Z/2", "Z wr Z^2", "Z/3 wr Z^2"]
WITNESS_PAIRS = 40  # per group and kind (conjugate, near-conjugate)
# a depth pair query takes 0.1-2 ms, too short to time one at a time
LOOP_SECONDS = 0.02


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


def _timed(fn, runs: int) -> tuple:
    """(the last result of fn(), median seconds of its runs), each run
    after a gc.collect()."""
    seconds = []
    for _ in range(runs):
        gc.collect()
        start = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - start)
    return result, statistics.median(seconds)


def measure(p: int, i: int, runs: int) -> dict:
    tests = 0
    test = depth.conjugate_in_split_quotient

    def counted(*args):
        nonlocal tests
        tests += 1
        return test(*args)

    def run():
        nonlocal tests
        tests = 0
        return depth.family_depth(pair)

    pair = depth.family_lamplighter(p, i)
    depth.conjugate_in_split_quotient = counted
    try:
        res, seconds = _timed(run, runs)
    finally:
        depth.conjugate_in_split_quotient = test
    return {
        "p": p,
        "i": i,
        "q": pair.q,
        "split_depth": res.split_depth,
        "subgroup": depth.describe_subgroup(res.subgroup) if res.found() else None,
        "seconds": round(seconds, 6),
        "runs": runs,
        "candidates_tested": tests,
    }


def measure_sweep(ring: int, n: int, budget: int, runs: int) -> dict:
    bound = {
        name: getattr(depth, name)
        for name in ("quotient_class_key", "conjugacy_classes", "_split_events")
    }
    seen = {}

    def keyed(*args):
        seen["class_keys"] += 1
        return bound["quotient_class_key"](*args)

    def classes(*args):
        start = time.perf_counter()
        out = bound["conjugacy_classes"](*args)
        seen["classes_s"] = time.perf_counter() - start
        seen["classes"] = len(out)
        return out

    def split_events(reps, subgroups):
        def read():
            for N in subgroups:
                seen["subgroups_read"] += 1
                yield N

        start = time.perf_counter()
        out = bound["_split_events"](reps, read())
        seen["refined_at"] = time.perf_counter()
        seen["refine_s"] = seen["refined_at"] - start
        return out

    seconds, classes_s, refine_s, rows_s = [], [], [], []
    for name, fn in [
        ("quotient_class_key", keyed),
        ("conjugacy_classes", classes),
        ("_split_events", split_events),
    ]:
        setattr(depth, name, fn)
    try:
        for _ in range(runs):
            seen.update(class_keys=0, subgroups_read=0)
            gc.collect()
            start = time.perf_counter()
            rows = depth.depth_sweep(ring, n, budget)
            end = time.perf_counter()
            seconds.append(end - start)
            classes_s.append(seen["classes_s"])
            refine_s.append(seen["refine_s"])
            rows_s.append(end - seen["refined_at"])
    finally:
        for name, fn in bound.items():
            setattr(depth, name, fn)
    return {
        "section": "sweep",
        "ring": ring,
        "n": n,
        "budget": budget,
        "max_depths": [r.max_split_depth for r in rows],
        "seconds": round(statistics.median(seconds), 6),
        "classes_seconds": round(statistics.median(classes_s), 6),
        "refine_seconds": round(statistics.median(refine_s), 6),
        "rows_seconds": round(statistics.median(rows_s), 6),
        "runs": runs,
        "classes": seen["classes"],
        "subgroups_read": seen["subgroups_read"],
        "class_keys": seen["class_keys"],
    }


def measure_enum_z(budget: int, runs: int) -> dict:
    subs, seconds = _timed(lambda: depth.enumerate_split_subgroups_z(budget), runs)
    return {
        "section": "enum_z",
        "budget": budget,
        "subgroups": len(subs),
        "seconds": round(seconds, 6),
        "runs": runs,
    }


def measure_enum_fp(p: int, budget: int, runs: int) -> dict:
    subs, seconds = _timed(lambda: depth.enumerate_split_subgroups_fp(p, budget), runs)
    return {
        "section": "enum_fp",
        "p": p,
        "budget": budget,
        "subgroups": len(subs),
        "seconds": round(seconds, 6),
        "runs": runs,
    }


def measure_depth_pool(workload: str, runs: int) -> dict:
    """The "s8" row of a depth workload's pool (`z_depth` or `fp_depth`):
    seconds per query of the best loop over all its s8 queries."""
    pool = json.loads((ROOT / "perfbench" / "pool" / f"{workload}.json").read_text())
    ops = [op["spec"] for op in pool["ops"] if op["stratum"].endswith("/s8")]
    queries = [
        (*(laurent.parse_semidirect(spec[v], spec["ring"]) for v in ("x", "y")), spec["budget"])
        for spec in ops
    ]

    def run_all():
        for s1, s2, budget in queries:
            depth.split_conjugacy_depth(s1, s2, budget)

    _, seconds, _ = _looped(run_all, runs)
    return {
        "section": "depth_fp" if ops[0]["ring"] else "depth_z",
        "ops": "s8",
        "budget": ops[0]["budget"],
        "queries": len(ops),
        "seconds": round(seconds / len(ops), 9),
        "runs": runs,
    }


def _looped(fn, runs: int) -> tuple:
    """(the result of fn(), best seconds per call, calls per loop): the
    calls per loop double from 1 until a loop takes LOOP_SECONDS, then
    the best of `runs` such loops, each after a gc.collect(), is taken."""

    def loop(calls):
        gc.collect()
        start = time.perf_counter()
        for _ in range(calls):
            result = fn()
        return result, time.perf_counter() - start

    calls = 1
    result, seconds = loop(calls)
    while seconds < LOOP_SECONDS:
        calls *= 2
        result, seconds = loop(calls)
    best = min(loop(calls)[1] for _ in range(runs))
    return result, best / calls, calls


def measure_depth_pair(ring: int, pair: tuple, budget: int, runs: int) -> dict:
    s1, s2 = (laurent.parse_semidirect(text, ring) for text in pair)
    res, seconds, loops = _looped(lambda: depth.split_conjugacy_depth(s1, s2, budget), runs)
    return {
        "section": "depth_fp" if ring else "depth_z",
        "ops": "pair",
        "ring": ring,
        "pair": " | ".join(pair),
        "budget": budget,
        "split_depth": res.split_depth,
        "seconds": round(seconds, 9),
        "loops": loops,
        "runs": runs,
    }


def _witness_inputs(text: str):
    """Elements and (g, conjugate) plus (g, near-conjugate) pairs over
    one group, drawn as the benchmark's witness pool draws them."""
    rng = random.Random(f"bench-witness:{text}")
    A, B = (parse_group(part) for part in text.split(" wr "))
    W = wreath.WreathGroup(A, B)

    def base(radius):
        return tuple(rng.randint(-radius, radius) for _ in range(B.free_rank)) + tuple(
            rng.randrange(n) for n in B.torsion
        )

    def lamp():
        while True:
            c = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(A.free_rank))
            c += tuple(rng.randrange(n) for n in A.torsion)
            if any(c):
                return c

    def element(points, radius):
        f = {base(radius): lamp() for _ in range(points)}
        while True:
            b = base(3)
            if any(b[: B.free_rank]):
                return W.element(f, b)

    elements, pairs = [], []
    for near in (False, True):
        for _ in range(WITNESS_PAIRS):
            g = element(rng.randint(1, 4), 3)
            h = wreath.conjugate(element(rng.randint(1, 3), 2), g)
            if near:
                h = wreath.multiply(h, W.delta(base(3), lamp()))
            elements += [g, h]
            pairs.append((g, h))
    return elements, pairs


# (module, attribute, counter) of the calls a witness row counts
WITNESS_COUNTED = [
    (wreath, "solve_multiple", "solve_multiple"),
    (witness, "solve_multiple", "solve_multiple"),
    (witness, "_verify_modulus", "verify_modulus"),
    (wreath, "reduce", "reduce_calls"),
    (witness, "reduce", "reduce_calls"),
]


def _counted_witness_run(phases: dict) -> dict:
    """Run each phase once with the calls of WITNESS_COUNTED counted, and
    the `reduce` calls whose input was already reduced."""
    counts = dict.fromkeys([name for _, _, name in WITNESS_COUNTED] + ["reduce_already_reduced"], 0)

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            result = fn(*args)
            if name == "reduce_calls" and result[0] == args[0]:
                counts["reduce_already_reduced"] += 1
            return result

        return call

    saved = [(mod, attr, name, getattr(mod, attr)) for mod, attr, name in WITNESS_COUNTED]
    out = {}
    try:
        for mod, attr, name, fn in saved:
            setattr(mod, attr, counted(name, fn))
        for phase, run in phases.items():
            counts.update(dict.fromkeys(counts, 0))
            run()
            out.update({f"{phase}_{name}": n for name, n in counts.items()})
    finally:
        for mod, attr, _, fn in saved:
            setattr(mod, attr, fn)
    return out


def measure_witness(text: str, runs: int) -> dict:
    elements, pairs = _witness_inputs(text)
    apart = []
    failures = 0

    def reduce_all():
        for g in elements:
            wreath.reduce(g)

    def test_all():
        apart[:] = [(g, h) for g, h in pairs if wreath.conjugate_test(g, h) is None]

    def witness_all():
        nonlocal failures
        failures = 0
        for g, h in apart:
            try:
                witness.full_witness(g, h)
            except (witness.WitnessContractError, AssertionError):
                # checkouts before the contracts became raises assert
                failures += 1

    phases = {"reduce": reduce_all, "conjugate_test": test_all, "full_witness": witness_all}
    counts = _counted_witness_run(phases)
    seconds = {phase: [] for phase in phases}
    for _ in range(runs):
        for phase, run in phases.items():
            gc.collect()
            start = time.perf_counter()
            run()
            seconds[phase].append(time.perf_counter() - start)
    return {
        "section": "witness",
        "group": text,
        "elements": len(elements),
        "pairs": len(pairs),
        "nonconjugate": len(apart),
        **{f"{phase}_s": round(statistics.median(s), 6) for phase, s in seconds.items()},
        "runs": runs,
        **counts,
        "contract_failures": failures,
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
    results += [measure_enum_fp(p, budget, args.runs) for p, budget in ENUM_FP]
    results += [measure_enum_z(budget, args.runs) for budget in ENUM_BUDGETS]
    results.append(measure_depth_pool("z_depth", args.runs))
    results += [measure_depth_pair(0, DEEP_PAIR, budget, args.runs) for budget in DEEP_BUDGETS]
    zwrz = tuple(laurent.format_semidirect(s) for s in depth.family_zwrz(3).semidirect())
    results += [measure_depth_pair(0, zwrz, budget, args.runs) for budget in ZWRZ_BUDGETS]
    results.append(measure_depth_pool("fp_depth", args.runs))
    results += [measure_depth_pair(ring, pair, budget, args.runs) for ring, pair, budget in SHIFT_FP]
    results += [measure_witness(text, args.runs) for text in WITNESS_GROUPS]
    for result in results:
        row = {**result, **env}
        print(json.dumps(row), flush=True)
        rows.append(row)
    if args.out:
        old = json.loads(args.out.read_text()) if args.out.exists() else []
        args.out.write_text(json.dumps(old + rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
