"""One child process of the benchmark.

Usage (started by run.py, not by hand):

    python3 perfbench/child.py --workload NAME --seed N --indices 0,1,2
        --timeout SECONDS [--trace 0|1] [--smoke]

It imports the library from the checkout's `src`, rebuilds the seeded op
list, parses the inputs of the ops it was given, and then runs them one
at a time through the library's public entry points. It writes one JSON
line when set-up is done, one per op (with the reference probes taken
inside it), one per reference probe before every op and after the last,
and one at exit. Answers are checked outside the timed region.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

from spans import Tracer, fold  # noqa: E402
from workloads import WORKLOADS, answer_digest, select_ops  # noqa: E402


class OpTimeout(BaseException):
    """Raised by the alarm inside an op that ran past its timeout."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def peak_rss_kb() -> int:
    """Peak resident memory of this process's own address space.

    ru_maxrss alone would also report the parent's: Linux carries the
    parent's high-water mark into a child across fork and exec, and the
    parent's memory grows with the records of a run."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def monotonic() -> float:
    """System-wide clock, comparable between run.py and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_probe() -> list:
    """[midpoint, seconds] of one run of a fixed pure-Python loop.

    run.py scales every end-to-end time by the speed these probes show
    (see perfbench/README.md, "Reference speed"). The loop does integer
    arithmetic only and touches no memory beyond its own: garbage
    collection, whose cost depends on the program's heap, never runs
    inside it, and what the program left in the caches does not slow it."""
    start = monotonic()
    acc = 0
    for i in range(2000):
        acc = (acc * 31 + i) % 1000003
    seconds = monotonic() - start
    return [start + seconds / 2, seconds]


IN_OP_PROBE_S = 0.01  # CPU seconds between reference probes inside an op
_in_op: list = []


def _on_probe_tick(signum, frame):
    _in_op.append(reference_probe())


# ---------------------------------------------------------------------------
# op kinds: parse inputs (set-up), run (timed), answer and check (untimed)


class DepthOps:
    def __init__(self):
        from wreathconj import depth, laurent

        self.depth, self.laurent = depth, laurent

    def parse(self, spec):
        ring = spec["ring"]
        return (
            self.laurent.parse_semidirect(spec["x"], ring),
            self.laurent.parse_semidirect(spec["y"], ring),
            spec["budget"],
        )

    def call(self, parsed):
        s1, s2, budget = parsed
        return lambda: self.depth.split_conjugacy_depth(s1, s2, budget=budget)

    def answer(self, parsed, res):
        found = res.found()
        doc = {
            "split_depth": res.split_depth,
            "subgroup": self.depth.describe_subgroup(res.subgroup) if found else None,
        }
        return doc, None, not found


class SweepOps:
    def __init__(self):
        from wreathconj import depth

        self.depth = depth

    def parse(self, spec):
        return spec["ring"], spec["n"], spec["budget"]

    def call(self, parsed):
        ring, n, budget = parsed
        return lambda: self.depth.depth_sweep(ring, n, budget=budget, jobs=1)

    def answer(self, parsed, rows):
        doc = []
        for row in rows:
            fields = dataclasses.asdict(row)
            del fields["elapsed_ms"]
            doc.append(fields)
        return doc, None, False


class WitnessOps:
    """The conj-test and witness commands: decide, and for a nonconjugate
    pair build the separating quotient and check its images the way the
    command line does."""

    def __init__(self):
        from wreathconj import abelian, witness, wreath

        self.abelian, self.witness, self.wreath = abelian, witness, wreath

    def parse(self, spec):
        lamp, base = (part.strip() for part in spec["group"].split(" wr "))
        return tuple(
            self.wreath.element_from_json({"A": lamp, "B": base, "f": f, "b": b})
            for f, b in (spec["x"], spec["y"])
        )

    def call(self, parsed):
        g1, g2 = parsed
        wreath, witness, abelian = self.wreath, self.witness, self.abelian

        def op():
            z = wreath.conjugate_test(g1, g2)
            if z is not None:
                return z, None, None
            w = witness.full_witness(g1, g2)
            if isinstance(w.target, abelian.AbelianGroup):
                separated = w.image1 != w.image2
            else:
                separated = wreath.conjugate_test(w.image1, w.image2) is None
            return None, w, separated

        return op

    def answer(self, parsed, res):
        g1, g2 = parsed
        z, w, separated = res
        if z is not None:
            return {"result": "conjugate"}, self.wreath.conjugate(z, g1) == g2, False
        target = w.target
        if isinstance(target, self.abelian.AbelianGroup):
            fmt, finite = self.abelian.format_element, target.is_finite()
            target_text = self.abelian.format_group(target)
        else:
            fmt, finite = self.wreath.element_to_json, target.lamp.is_finite() and target.base.is_finite()
            target_text = str(target)
        within = w.image1.group == target == w.image2.group
        if w.certificate == "acting-element":
            within = within and w.acting_map(g1.b) == w.image1
        # the witness command's report, less target_order: the target
        # determines it, and writing it out costs more than the op
        doc = {
            "result": "nonconjugate",
            "input": [self.wreath.element_to_json(g1), self.wreath.element_to_json(g2)],
            "acting_modulus": w.acting_map.modulus if w.acting_map else None,
            "base_modulus": w.base_map.modulus if w.base_map else None,
            "target": target_text,
            "certificate": w.certificate,
            "transcript": list(w.transcript),
            "images": [fmt(w.image1), fmt(w.image2)],
            "separated": separated,
        }
        return doc, bool(separated) and within and finite, False


KINDS = {"depth": DepthOps, "sweep": SweepOps, "witness": WitnessOps}


def classify(exc: Exception) -> str:
    from wreathconj.witness import WitnessContractError

    if isinstance(exc, (WitnessContractError, AssertionError)):
        return "contract"  # the command line's exit code 3
    if isinstance(exc, ValueError):
        return "input"  # exit code 1
    return "error"


def run_one(kind, parsed, timeout: float, tracer) -> dict:
    """Run one op under its timeout. Untraced, a reference probe also
    runs every IN_OP_PROBE_S of CPU time inside the op, so that a long
    op has the machine's speed measured while it ran; the probes' time
    is taken out of the op's latency."""
    fn = kind.call(parsed)
    rec = {"outcome": "ok", "answer": None, "check": None, "exhausted": False}
    _in_op.clear()
    rec["t"] = monotonic()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        if not tracer:
            signal.setitimer(signal.ITIMER_VIRTUAL, IN_OP_PROBE_S, IN_OP_PROBE_S)
        res = tracer.run_op(fn) if tracer else fn()
    except OpTimeout:
        rec["outcome"] = "timeout"
    except Exception as exc:  # every failure class is recorded, none stops the run
        rec["outcome"] = classify(exc)
        rec["detail"] = f"{type(exc).__name__}: {exc}"[:200]
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)  # no probe after the clock stops
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    rec["probes"] = list(_in_op)
    rec["latency_s"] = elapsed - sum(s for _, s in rec["probes"])
    rec["t"] += elapsed / 2
    if rec["outcome"] == "ok":
        doc, rec["check"], rec["exhausted"] = kind.answer(parsed, res)
        rec["answer"] = answer_digest(doc)
    if tracer:
        rec["layers"] = fold(tracer.spans)
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--indices", required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--timeout", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import wreathconj

    if Path(wreathconj.__file__).resolve().parent != SRC / "wreathconj":
        print(f"error: imported {wreathconj.__file__}, not the checkout's", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ops = select_ops(workload, args.seed, args.smoke)
    indices = [int(i) for i in args.indices.split(",")]
    kind = KINDS[workload.kind]()
    parsed = [kind.parse(ops[i]["spec"]) for i in indices]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGVTALRM, _on_probe_tick)
    print(json.dumps({"ready": monotonic()}), flush=True)

    for i, p in zip(indices, parsed):
        print(json.dumps({"probe": reference_probe()}), flush=True)
        rec = run_one(kind, p, args.timeout, tracer)
        rec["i"] = i
        print(json.dumps(rec), flush=True)
    print(json.dumps({"probe": reference_probe()}), flush=True)

    from wreathconj import kernel

    end = {
        "peak_rss_kb": peak_rss_kb(),
        "backend": kernel.BACKEND,
    }
    print(json.dumps(end), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
