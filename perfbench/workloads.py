"""Workload definitions, seeded op selection and the input digest.

Each workload draws its ops from a committed pool (`pool/<name>.json`).
A pool entry holds the op's inputs, its stratum and the digest of the
answer the library gave when the pool was recorded. A stratum groups ops
of like cost (for depth queries: the doubling stage that finds the
answer, or "exceeds").

A pass runs `per_pass` pool ops, split among the strata in proportion to
the stratum's share of the pool (largest remainder), plus every op of
the `whole` strata. Ops of the cheap strata are a seeded sample, so two
seeds exercise different inputs with the same mix. Ops of the `panel`
strata, the expensive ones, are taken in pool order and are the same for
every seed: their cost depends on the input by up to a factor of two,
and a seeded draw of one or two of them would make the figures depend
more on the seed than on the program.

This module does not import the library: run.py uses it to know
what the child processes run and what they must answer.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

POOL_DIR = Path(__file__).resolve().parent / "pool"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "depth", "sweep" or "witness": how the child runs an op
    per_pass: int  # pool ops per pass, split in proportion to the strata
    whole: tuple  # strata run whole in every pass, outside the split
    panel: tuple  # strata taken in pool order, the same for every seed
    child_per_op: bool  # a fresh process for every op instead of every pass
    min_passes: int
    op_timeout_s: float


WORKLOADS = {
    w.name: w
    for w in [
        # 65 is the smallest count whose split gives every stratum with
        # at least 6 pool entries an op; only F3/s256 (1 entry) gets none.
        # Only the first-stage queries are drawn by the seed: the panel
        # holds every op slower than them, the latency tail among them
        Workload(
            "fp_depth",
            "depth",
            per_pass=65,
            whole=("lamplighter",),
            panel=tuple(
                f"F{p}/{stage}"
                for p in (2, 3, 5)
                for stage in ("s16", "s32", "s64", "s128", "s256", "s512", "s1024", "exceeds")
            ),
            child_per_op=False,
            min_passes=3,
            op_timeout_s=30,
        ),
        Workload(
            "z_depth",
            "depth",
            per_pass=40,
            whole=(),
            panel=("neg/exceeds",),
            child_per_op=True,
            min_passes=2,
            op_timeout_s=40,
        ),
        Workload(
            "sweep",
            "sweep",
            per_pass=0,
            whole=("full",),
            panel=(),
            child_per_op=True,
            min_passes=2,
            op_timeout_s=60,
        ),
        Workload(
            "witness",
            "witness",
            per_pass=800,
            whole=(),
            panel=(),
            child_per_op=False,
            min_passes=3,
            op_timeout_s=10,
        ),
    ]
}

# Tiny recipes (stratum -> ops) for the benchmark's own smoke test.
SMOKE_RECIPES = {
    "fp_depth": {"F2/s8": 2, "F3/s8": 1},
    "z_depth": {"shift/s8": 1, "neg/s8": 1},
    "sweep": {"smoke": 2},
    "witness": {"F2 wr Z/near": 2, "Z wr Z^2/conj": 2},
}


def load_pool(name: str) -> list:
    with open(POOL_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def recipe(workload: Workload, by_stratum: dict) -> dict:
    """Ops per pass of every stratum: `per_pass` split in proportion to
    the pool's strata (largest remainder, ties by name), and the whole
    of every `whole` stratum. Strata outside both get none."""
    counts = {s: len(by_stratum[s]) for s in workload.whole}
    split = {s: len(m) for s, m in by_stratum.items() if s not in workload.whole}
    total = sum(split.values())
    if workload.per_pass and total:
        quota = {s: n * workload.per_pass / total for s, n in split.items()}
        share = {s: int(q) for s, q in quota.items()}
        left = workload.per_pass - sum(share.values())
        for s in sorted(quota, key=lambda s: (share[s] - quota[s], s))[:left]:
            share[s] += 1
        counts.update((s, n) for s, n in share.items() if n)
    return counts


def select_ops(workload: Workload, seed: int, smoke: bool = False) -> list:
    """The seeded op list: for every stratum, its panel ops in pool order
    or a seeded sample of its members, in seeded order."""
    by_stratum: dict = {}
    for entry in load_pool(workload.name):
        by_stratum.setdefault(entry["stratum"], []).append(entry)
    counts = SMOKE_RECIPES[workload.name] if smoke else recipe(workload, by_stratum)
    rng = random.Random(f"{workload.name}:{seed}")
    ops = []
    for stratum in sorted(counts):
        members = by_stratum.get(stratum, [])
        need = counts[stratum]
        if len(members) < need:
            raise ValueError(
                f"{workload.name}: stratum {stratum!r} has {len(members)} pool"
                f" entries, {need} needed"
            )
        if stratum in workload.panel or stratum in workload.whole:
            ops.extend(members[:need])
        else:
            ops.extend(rng.sample(members, need))
    rng.shuffle(ops)
    return ops


def ops_digest(ops: list) -> str:
    """SHA-256 of the op inputs in run order; equal digests mean two runs
    fed the library identical inputs."""
    text = json.dumps([op["spec"] for op in ops], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def answer_digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
