"""The wreathconj benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Runs one workload (see BENCHMARK.json and perfbench/README.md) as a closed
loop: one child process at a time, one op at a time. A pass runs every op
of the seeded op list once, in a fresh child (or, for workloads marked
child-per-op, a fresh child per op), so process-lifetime caches start
cold as they do for a command-line call. Passes repeat until S seconds
have gone and the workload's minimum pass count is met.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics, its times scaled to a reference speed of the machine
(see Speed); with --trace 1 passes alternate untraced and traced, and it
holds the per-layer metrics. The line before it records the
environment, the input digest and the failure breakdown. Every answer
is checked against the answer recorded in the pool and, where the op
has one, an independent check. --smoke runs the benchmark's own tests
on tiny inputs.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from spans import ROOT as ROOT_SPAN  # noqa: E402
from workloads import WORKLOADS, ops_digest, select_ops  # noqa: E402

HARD_LIMIT_S = 150  # no run goes on past this, whatever the program does
NOT_RUN = ("timeout", "crash", "not run")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


REFERENCE_S = 0.0002  # the reference probe's time at the reference speed
PROBES_NEAR = 9  # probes whose median gives the speed at one moment


class Speed:
    """The machine's speed over a run, from the reference probes.

    The host this was tuned on changes speed by up to half for spells of
    seconds to minutes, which moves every timing of a run together.
    `scale(t, seconds, own)` turns a time measured around moment t into
    the time it would have taken at the reference speed: it multiplies
    by REFERENCE_S over the median of the probes taken inside the op
    (`own`) when there are PROBES_NEAR of them, else of the PROBES_NEAR
    probes nearest to t. With no probes (a run killed before its first)
    times stay raw."""

    def __init__(self, passes: list):
        probes = sorted(pr for p in passes for pr in p.probes)
        self.times = [t for t, _ in probes]
        self.seconds = [s for _, s in probes]

    def scale(self, t: float, seconds: float, own=()) -> float:
        if len(own) >= PROBES_NEAR:
            return seconds * REFERENCE_S / statistics.median(s for _, s in own)
        if not self.times:
            return seconds
        k = bisect.bisect_left(self.times, t)
        lo, hi = max(0, k - PROBES_NEAR), min(len(self.times), k + PROBES_NEAR)
        near = sorted(range(lo, hi), key=lambda j: abs(self.times[j] - t))[:PROBES_NEAR]
        return seconds * REFERENCE_S / statistics.median(self.seconds[j] for j in near)

    def median_probe_s(self):
        return statistics.median(self.seconds) if self.seconds else None


@dataclass
class Pass:
    traced: bool
    records: list = field(default_factory=list)  # (op index, record)
    setups: list = field(default_factory=list)  # (midpoint, seconds)
    probes: list = field(default_factory=list)  # (midpoint, seconds)
    rss_kb: list = field(default_factory=list)
    backends: set = field(default_factory=set)
    stderr: list = field(default_factory=list)


def run_child(pass_, workload, seed, indices, timeout, smoke, deadline) -> None:
    """Run `indices` in one fresh child and add what it reports to the pass.
    An op the child did not report on is recorded as a timeout when the
    child had to be killed, and as a crash otherwise."""
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload.name,
        "--seed", str(seed),
        "--indices", ",".join(map(str, indices)),
        "--trace", str(int(pass_.traced)),
        "--timeout", repr(timeout),
    ] + (["--smoke"] if smoke else [])
    limit = min(len(indices) * timeout + 30, deadline - monotonic())
    if limit <= 0:
        pass_.records.extend((i, {"outcome": "not run"}) for i in indices)
        return
    spawned = monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    killed = False
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    seen = {}
    for line in out.splitlines():
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:  # a line cut short by the kill
            continue
        if "ready" in msg:
            pass_.setups.append(((spawned + msg["ready"]) / 2, msg["ready"] - spawned))
        elif "probe" in msg:
            pass_.probes.append(tuple(msg["probe"]))
        elif "i" in msg:
            seen[msg["i"]] = msg
            pass_.probes.extend(tuple(pr) for pr in msg["probes"])
        elif "peak_rss_kb" in msg:
            pass_.rss_kb.append(msg["peak_rss_kb"])
            pass_.backends.add(msg["backend"])
    if err.strip():
        pass_.stderr.append(err.strip().splitlines()[-1])
    for i in indices:
        pass_.records.append((i, seen.get(i, {"outcome": "timeout" if killed else "crash"})))


def judge(op, rec, corrupted) -> tuple:
    """(failed, wrong): an op fails if it raised, timed out, did not run,
    or gave a wrong answer; only the last makes the run incorrect."""
    if rec["outcome"] != "ok":
        return True, False
    expect = "corrupted" if op["id"] in corrupted else op["expect"]
    wrong = rec["check"] is False or (expect is not None and rec["answer"] != expect)
    return wrong, wrong


TAIL_BEYOND = 10  # samples the latency tail must have beyond it


def completed(passes: list, speed) -> dict:
    """Op index -> the latencies of its runs that returned or raised,
    at the reference speed (raw if `speed` is None); a run that timed
    out or never ran is only a failure."""
    times: dict = {}
    for p in passes:
        for i, rec in p.records:
            runs = times.setdefault(i, [])
            if rec["outcome"] not in NOT_RUN:
                s = rec["latency_s"]
                runs.append(speed.scale(rec["t"], s, rec["probes"]) if speed else s)
    return times


def ops_per_s(passes: list, speed) -> float:
    """Ops completed per second inside ops, from each op's median time
    over the passes, so that a slow spell of the machine during one
    pass does not set the figure."""
    done = busy = 0.0
    runs = len(passes)
    for times in completed(passes, speed).values():
        if times:
            done += len(times) / runs
            busy += statistics.median(times)
    return done / busy if busy > 0 else 0.0


def op_medians(passes: list, speed) -> list:
    """Each op's median latency over the passes it completed in."""
    return [statistics.median(t) for t in completed(passes, speed).values() if t]


def tail(values: list) -> tuple:
    """(value, percentile): the highest nearest-rank percentile with at
    least TAIL_BEYOND values beyond it; the largest value when there are
    too few values for that."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[k], 100 * (k + 1) / n


def layer_metrics(p: Pass) -> dict:
    rows: dict = {}
    for _, rec in p.records:
        for layer, (calls, busy, self_s, items) in rec.get("layers", {}).items():
            row = rows.setdefault(layer, [0, 0.0, 0.0, 0])
            row[0] += calls
            row[1] += busy
            row[2] += self_s
            row[3] += items

    def get(layer, col):
        return rows.get(layer, [0, 0.0, 0.0, 0])[col]

    calls, busy, self_s, items = 0, 1, 2, 3
    m = {}
    for layer in ("laurent.enum_fp", "laurent.enum_z"):
        m[f"{layer}.calls"] = get(layer, calls)
        m[f"{layer}.busy_s"] = get(layer, busy)
        m[f"{layer}.subgroups"] = get(layer, items)
    for layer in (
        "laurent.quotient_test",
        "laurent.same_class",
        "depth.quotient_key",
        "wreath.conjugate_test",
        "wreath.reduce",
        "witness.separating_modulus",
        "abelian.quotient_mod",
        "abelian.solve_multiple",
    ):
        m[f"{layer}.calls"] = get(layer, calls)
        m[f"{layer}.busy_s"] = get(layer, busy)
    m["depth.split_depth.self_s"] = get("depth.split_depth", self_s)
    enumerated = get("laurent.enum_fp", items) + get("laurent.enum_z", items)
    tested = get("laurent.quotient_test", calls)
    m["depth.tested_per_enumerated"] = tested / enumerated if enumerated else 0.0
    m["depth.exhausted"] = sum(1 for _, r in p.records if r.get("exhausted"))
    m["depth.classes.busy_s"] = get("depth.classes", busy)
    m["depth.classes.count"] = get("depth.classes", items)
    m["depth.sweep.self_s"] = get("depth.sweep", self_s)
    m["witness.full_witness.calls"] = get("witness.full_witness", calls)
    m["witness.full_witness.self_s"] = get("witness.full_witness", self_s)
    witnesses = get("witness.full_witness", calls)
    moduli = get("abelian.quotient_mod", calls)
    m["witness.moduli_per_witness"] = moduli / witnesses if witnesses else 0.0
    m["witness.contract_failures"] = sum(
        1 for _, r in p.records if r["outcome"] == "contract"
    )
    # time inside ops that no named layer covers: the root span's self
    # time, and the time between the op's clock and the root span
    op_s = sum(r["latency_s"] for _, r in p.records)
    named_s = sum(row[2] for layer, row in rows.items() if layer != ROOT_SPAN)
    m["trace.unattributed_frac"] = 1 - named_s / op_s if op_s else 0.0
    return m


def environment(backends) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted((SRC / "wreathconj").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "backend": sorted(backends),
    }


def run_workload(name, seed, seconds, trace, smoke=False, corrupt=0, op_timeout=None) -> dict:
    workload = WORKLOADS[name]
    ops = select_ops(workload, seed, smoke)
    corrupted = {op["id"] for op in ops[:corrupt]}
    timeout = op_timeout if op_timeout is not None else workload.op_timeout_s
    indices = list(range(len(ops)))
    start = monotonic()
    deadline = start + HARD_LIMIT_S
    min_passes = max(workload.min_passes, 2) if trace else workload.min_passes
    passes: list = []
    while True:
        p = Pass(traced=bool(trace) and len(passes) % 2 == 1)
        groups = [[i] for i in indices] if workload.child_per_op else [indices]
        for group in groups:
            run_child(p, workload, seed, group, timeout, smoke, deadline)
        passes.append(p)
        now = monotonic()
        if now >= deadline or (now - start >= seconds and len(passes) >= min_passes):
            break

    # Each op of the op list is one attempt, however many passes ran it,
    # and it fails if any of its runs failed: the counts then depend on
    # the op list and the program, not on how many passes the time held.
    runs: dict = {}
    for p in passes:
        for i, rec in p.records:
            runs.setdefault(i, []).append(rec)
    attempted = failed = wrong = failed_runs = 0
    causes: dict = {}
    examples: dict = {}
    for i in indices:
        attempted += 1
        bad = []
        for rec in runs.get(i, [{"outcome": "not run"}]):
            f, w = judge(ops[i], rec, corrupted)
            if f:
                bad.append(("wrong answer" if w else rec["outcome"], rec))
        failed_runs += len(bad)
        if bad:
            failed += 1
            cause, rec = min(bad, key=lambda b: b[0] != "wrong answer")
            wrong += cause == "wrong answer"
            causes[cause] = causes.get(cause, 0) + 1
            examples.setdefault(cause, f"{ops[i]['id']}: {rec.get('detail', '')}")

    plain = [p for p in passes if not p.traced]
    speed = Speed(passes)
    rss = [kb for p in passes for kb in p.rss_kb]

    def timings(speed):
        latencies = op_medians(plain, speed)
        tail_s, tail_pct = tail(latencies) if latencies else (None, None)
        setups = [speed.scale(t, s) if speed else s for p in plain for t, s in p.setups]
        return {
            "ops_per_s": ops_per_s(plain, speed),
            "latency_p50_ms": 1000 * statistics.median(latencies) if latencies else None,
            "latency_tail_ms": 1000 * tail_s if latencies else None,
            "setup_s": statistics.median(setups) if setups else None,
        }, tail_pct, len(latencies)

    metrics, tail_pct, samples = timings(speed)
    metrics["failed_frac"] = failed / attempted
    metrics["peak_rss_mb"] = max(rss) / 1024 if rss else None
    info = {
        "workload": name,
        "seed": seed,
        "ops_digest": ops_digest(ops),
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "op_runs": sum(len(p.records) for p in passes),
        "failed_runs": failed_runs,
        "traced_passes": sum(p.traced for p in passes),
        "tail_percentile": tail_pct,
        "latency_samples": samples,
        "raw_timings": timings(None)[0],
        "median_probe_s": speed.median_probe_s(),
        "failures": causes,
        "failure_examples": examples,
        "child_errors": sorted({e for p in passes for e in p.stderr})[:5],
        "wall_s": monotonic() - start,
        "env": environment({b for p in passes for b in p.backends}),
    }
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }
    if trace:
        traced = [layer_metrics(p) for p in passes if p.traced]
        layers = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        traced_rate = ops_per_s([p for p in passes if p.traced], speed)
        layers["trace.overhead_frac"] = metrics["ops_per_s"] / traced_rate - 1
        result["layers"] = layers
    return result


def bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def report(result, trace) -> str:
    """Print the summary and the info line; return the result line."""
    spec = bench_spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    workload = result["info"]["workload"]
    for name, unit in {**e2e, "failed_frac": "ratio"}.items():
        print(f"{workload:>9} {name:<16} {result['metrics'][name]!r:>24} {unit}")
    print(json.dumps({"bench": result["info"]}, sort_keys=True))
    if trace:
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result["layers"]
    else:
        names, values = e2e, result["metrics"]
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names.items()},
    }
    return json.dumps(line)


# ---------------------------------------------------------------------------
# the benchmark's own tests


UNATTRIBUTED_MAX = 0.05  # share of traced op time outside every named layer


def smoke() -> int:
    """Tiny inputs, four checks: every metric prints with its name and
    unit, the named layers' self times cover the op time, a corrupted
    expected answer counts in failed_frac, and a timed-out op counts as
    failed."""
    spec = bench_spec()
    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run_workload(name, seed=1, seconds=0, trace=trace, smoke=True)
            line = json.loads(report(res, trace))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in line["metrics"].items()}
            expect(got == want, f"{name} --trace {trace}: every {key} metric with its unit")
            expect(
                all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()),
                f"{name} --trace {trace}: every value is a number",
            )
            expect(
                line["correct"] and line["failed"] == 0,
                f"{name} --trace {trace}: all {line['attempted']} ops answered correctly",
            )
            if trace:
                share = res["layers"]["trace.unattributed_frac"]
                expect(
                    0 <= share <= UNATTRIBUTED_MAX,
                    f"{name}: named layers' self times cover the op time"
                    f" ({share:.1%} unattributed)",
                )

    res = run_workload("fp_depth", seed=1, seconds=0, trace=0, smoke=True, corrupt=1)
    expect(
        not res["correct"] and res["metrics"]["failed_frac"] > 0
        and res["info"]["failures"].get("wrong answer", 0) == res["failed"] == 1,
        "a corrupted expected answer is counted in failed_frac",
    )
    res = run_workload("z_depth", seed=1, seconds=0, trace=0, smoke=True, op_timeout=1e-4)
    expect(
        res["failed"] == res["attempted"] > 0
        and res["info"]["failures"].get("timeout") == res["attempted"],
        "a timed-out op is counted as failed",
    )
    print("smoke: " + ("passed" if not problems else f"{len(problems)} failed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (SRC / "wreathconj" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(report(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
