"""Build the op pools under `pool/` and record each op's answer.

    python3 perfbench/record.py [WORKLOAD ...]

Candidates come from a fixed generator seed, so re-running this on the
same library code rewrites the same files. Every candidate is answered
by the library in-process; the answer's digest becomes the expected
answer of every later run, and the answer also decides the op's
stratum (for depth queries: the doubling stage in which the depth is
found, or "exceeds"). An op whose recorded run raised keeps no expected
answer and goes to a stratum named after its failure class; later runs
check it only independently, and count it failed while it still raises.
"""

from __future__ import annotations

import json
import random
import sys
import time

from child import KINDS, SRC, classify
from workloads import POOL_DIR, WORKLOADS, answer_digest

sys.path.insert(0, str(SRC))

from wreathconj import depth, laurent, wreath  # noqa: E402
from wreathconj.abelian import parse_group  # noqa: E402

POOL_SEED = 20220116


def _stage(split_depth, budget: int) -> str:
    """The doubling stage of split_conjugacy_depth that finds the answer."""
    if not isinstance(split_depth, int):
        return "exceeds"
    stage = min(budget, 8)
    while split_depth > stage:
        stage = min(budget, 2 * stage)
    return f"s{stage}"


def _random_poly(rng, ring: int, width: int, coeffs):
    return laurent._from_dense(ring, -width, [rng.choice(coeffs) for _ in range(width + 1)])


def _pair_spec(ring, s1, s2, budget):
    return {
        "ring": ring,
        "x": laurent.format_semidirect(s1),
        "y": laurent.format_semidirect(s2),
        "budget": budget,
    }


def fp_depth_candidates(rng, count: int):
    """Nonconjugate same-shift pairs over F2, F3, F5 with 1 <= |m| <= 7
    and P supported on [-|m|, 0], at budget 1024; then the paper's
    lamplighter pairs at their upper bounds."""
    out = []
    while len(out) < count:
        p = rng.choice([2, 3, 5])
        m = rng.choice([i for i in range(-7, 8) if i])
        s1 = laurent.SemidirectElement(_random_poly(rng, p, abs(m), range(p)), m)
        s2 = laurent.SemidirectElement(_random_poly(rng, p, abs(m), range(p)), m)
        if laurent.same_conjugacy_class(s1, s2) is None:
            out.append((f"F{p}", _pair_spec(p, s1, s2, 1024)))
    for p, i in [(2, 1), (2, 2), (3, 1)]:
        pair = depth.family_lamplighter(p, i)
        s1, s2 = pair.semidirect()
        out.append(("lamplighter", _pair_spec(p, s1, s2, pair.paper_upper)))
    return out


def z_depth_candidates(rng, count: int):
    """Same-shift pairs over Z with 1 <= |m| <= 4, and pairs (P, 0)
    against (-P, 0), all at budget 18."""
    out = []
    coeffs = range(-3, 4)
    while len(out) < count:
        if rng.random() < 0.5:
            m = rng.choice([i for i in range(-4, 5) if i])
            s1 = laurent.SemidirectElement(_random_poly(rng, 0, abs(m), coeffs), m)
            s2 = laurent.SemidirectElement(_random_poly(rng, 0, abs(m), coeffs), m)
            kind = "shift"
        else:
            P = _random_poly(rng, 0, rng.randint(1, 3), coeffs)
            s1 = laurent.SemidirectElement(P, 0)
            s2 = laurent.SemidirectElement(laurent.poly_neg(P), 0)
            kind = "neg"
        if laurent.same_conjugacy_class(s1, s2) is None:
            out.append((kind, _pair_spec(0, s1, s2, 18)))
    return out


def sweep_candidates(rng, count: int):
    full = [(2, 8, 256), (3, 5, 243), (5, 4, 125), (0, 3, 16)]
    smoke = [(2, 3, 16), (0, 2, 8)]
    return [
        (stratum, {"ring": r, "n": n, "budget": b})
        for stratum, rows in (("full", full), ("smoke", smoke))
        for r, n, b in rows
    ]


WITNESS_GROUPS = ["F2 wr Z", "Z wr Z", "Z/4 wr Z x Z/2", "Z wr Z^2", "Z/3 wr Z^2"]


def _base_coords(rng, B, radius: int) -> list:
    return [rng.randint(-radius, radius) for _ in range(B.free_rank)] + [
        rng.randrange(t) for t in B.torsion
    ]


def _lamp_value(rng, A) -> tuple:
    while True:
        c = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(A.free_rank)]
        c += [rng.randrange(t) for t in A.torsion]
        if any(c):
            return tuple(c)


def _random_element(rng, W, points: int, radius: int):
    """Up to `points` lamps within `radius`, and an acting part of infinite
    order within radius 3."""
    f = {tuple(_base_coords(rng, W.base, radius)): _lamp_value(rng, W.lamp) for _ in range(points)}
    while True:
        b = _base_coords(rng, W.base, 3)
        if any(b[: W.base.free_rank]):
            return W.element(f, tuple(b))


def _compact(g):
    doc = json.loads(wreath.element_to_json(g))
    return [doc["f"], doc["b"]]


def witness_candidates(rng, count: int):
    """Per group: g against z g z^-1 (conjugate), and against z g z^-1
    times one lamp delta (near-conjugate: same acting part, so the full
    reduction and the modulus search both run)."""
    out = []
    per = count // (2 * len(WITNESS_GROUPS))
    for text in WITNESS_GROUPS:
        A, B = (parse_group(s.strip()) for s in text.split(" wr "))
        W = wreath.WreathGroup(A, B)
        for kind in ("near", "conj"):
            for _ in range(per):
                g = _random_element(rng, W, rng.randint(1, 4), 3)
                z = _random_element(rng, W, rng.randint(1, 3), 2)
                h = wreath.conjugate(z, g)
                if kind == "near":
                    delta = W.delta(tuple(_base_coords(rng, B, 3)), _lamp_value(rng, A))
                    h = wreath.multiply(h, delta)
                spec = {"group": text, "x": _compact(g), "y": _compact(h)}
                out.append((f"{text}/{kind}", spec))
    return out


GENERATORS = {
    "fp_depth": (fp_depth_candidates, 900),
    "z_depth": (z_depth_candidates, 400),
    "sweep": (sweep_candidates, 0),
    "witness": (witness_candidates, 1200),
}


def record(name: str) -> None:
    workload = WORKLOADS[name]
    gen, count = GENERATORS[name]
    rng = random.Random(f"{POOL_SEED}:{name}")
    kind = KINDS[workload.kind]()
    seen = set()
    ops = []
    started = time.perf_counter()
    for group, spec in gen(rng, count):
        key = json.dumps(spec, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        parsed = kind.parse(spec)
        entry = {"id": f"{name}/{len(ops):04d}", "stratum": group, "spec": spec}
        try:
            res = kind.call(parsed)()
        except Exception as exc:  # recorded, see the module docstring
            entry.update(expect=None, outcome=classify(exc))
            # a stratum of its own, so that every op list holds the
            # pool's share of the ops that raised, whatever the seed
            entry["stratum"] = f"{group}/{entry['outcome']}"
        else:
            doc, check, exhausted = kind.answer(parsed, res)
            if check is False:
                raise SystemExit(f"{entry['id']}: answer fails its own check")
            entry.update(expect=answer_digest(doc), outcome="ok")
            if workload.kind == "depth" and group != "lamplighter":
                entry["stratum"] = f"{group}/{_stage(doc['split_depth'], spec['budget'])}"
        ops.append(entry)
    POOL_DIR.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(e, sort_keys=True) for e in ops)
    with open(POOL_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        fh.write(f'{{"workload": "{name}", "pool_seed": {POOL_SEED}, "ops": [\n{lines}\n]}}\n')
    strata: dict = {}
    for e in ops:
        strata[e["stratum"]] = strata.get(e["stratum"], 0) + 1
    print(f"{name}: {len(ops)} ops in {time.perf_counter() - started:.1f} s", strata)


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(GENERATORS):
        record(name)
