"""Conjugacy depth over split quotients of R wr Z.

The depth of a nonconjugate pair is the least index of a split subgroup
(ideal part crossed with a shift subgroup) whose quotient separates the
pair. Split subgroups are a strict subfamily of all finite-index normal
subgroups, so every value computed here dominates the depth over all
finite quotients. The module also builds the two witness families whose
growth the depth function is measured against, and runs empirical
sweeps over word-length balls.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from typing import Optional, Union

from .laurent import (
    FpSplitSubgroup,
    SemidirectElement,
    ZSplitSubgroup,
    conjugate_in_split_quotient,
    enumerate_split_subgroups_fp,
    enumerate_split_subgroups_z,
    format_semidirect,
    from_wreath,
    is_prime,
    pair_split_subgroups_fp,
    poly_add,
    poly_sub,
    primitive_root_primes,
    quotient_class_key,
    same_conjugacy_class,
    to_wreath,
    wreath_group_for_ring,
    x_power,
    xt_minus_1,
)
from .wreath import WreathElement, conjugate_test, reduce, word_length_info

SplitSubgroup = Union[FpSplitSubgroup, ZSplitSubgroup]

EXCEEDS_BUDGET = "exceeds budget"


def nth_prime(i: int) -> int:
    if i < 1:
        raise ValueError("index must be positive")
    found = 0
    n = 1
    while found < i:
        n += 1
        if is_prime(n):
            found += 1
    return n


@dataclass(frozen=True)
class FamilyPair:
    """A nonconjugate witness pair from one of the two families.

    Nonconjugacy is checked at construction, both by the wreath
    criterion and by the Laurent one.
    """

    family: str
    p: Optional[int]
    q: int
    alpha: Optional[int]
    k: Optional[int]
    f: WreathElement
    g: WreathElement
    word_lengths: tuple

    def semidirect(self) -> tuple:
        return from_wreath(self.f), from_wreath(self.g)

    @property
    def paper_lower(self) -> int:
        if self.family == "lamplighter":
            return self.p**self.q
        return self.q ** (2**self.k)

    @property
    def paper_upper(self) -> int:
        if self.family == "lamplighter":
            return self.q * self.p ** (self.q - 1)
        return 2**self.k * self.q ** (2**self.k)


@dataclass(frozen=True)
class DepthResult:
    pair: tuple
    split_depth: Union[int, str]
    subgroup: Optional[SplitSubgroup]
    paper_lower: Optional[int] = None
    paper_upper: Optional[int] = None

    def found(self) -> bool:
        return isinstance(self.split_depth, int)


def family_lamplighter(p: int, i: int) -> FamilyPair:
    """The i-th pair (x^q - 1, q) vs (x - 1 + x^q - 1, q) over F_p wr Z,
    where q runs over the primes above p with p a primitive root."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if i < 1:
        raise ValueError("index must be positive")
    q = primitive_root_primes(p, i)[-1]
    fpoly = xt_minus_1(p, q)
    gpoly = poly_add(fpoly, poly_add(x_power(p, 1), x_power(p, 0, -1)))
    s1, s2 = SemidirectElement(fpoly, q), SemidirectElement(gpoly, q)
    f, g = to_wreath(s1), to_wreath(s2)
    assert conjugate_test(f, g) is None
    assert same_conjugacy_class(s1, s2) is None
    pair = FamilyPair(
        "lamplighter",
        p,
        q,
        None,
        None,
        f,
        g,
        (word_length_info(f)[0], word_length_info(g)[0]),
    )
    return pair


def family_zwrz(i: int) -> FamilyPair:
    """The i-th pair (a(x^{2^k} - 1), 2^k) vs the same plus
    a(x^{2^{k-1}} - 1) over Z wr Z, with a = lcm(1..q-1) and
    k the least exponent with a <= 2^k."""
    if i < 2:
        raise ValueError("index must be at least 2: q = 2 degenerates to k = 0")
    q = nth_prime(i)
    alpha = math.lcm(*range(1, q))
    k = (alpha - 1).bit_length()
    if k == 0:
        raise ValueError("degenerate family index")
    t = 2**k
    fpoly = poly_sub(x_power(0, t, alpha), x_power(0, 0, alpha))
    gpoly = poly_add(fpoly, poly_sub(x_power(0, t // 2, alpha), x_power(0, 0, alpha)))
    s1, s2 = SemidirectElement(fpoly, t), SemidirectElement(gpoly, t)
    f, g = to_wreath(s1), to_wreath(s2)
    assert conjugate_test(f, g) is None
    assert same_conjugacy_class(s1, s2) is None
    return FamilyPair(
        "z-wr-z",
        None,
        q,
        alpha,
        k,
        f,
        g,
        (word_length_info(f)[0], word_length_info(g)[0]),
    )


def _as_semidirect(g) -> SemidirectElement:
    if isinstance(g, SemidirectElement):
        return g
    return from_wreath(g)


def _subgroup_stream(ring: int, budget: int) -> list:
    if ring == 0:
        return enumerate_split_subgroups_z(budget)
    return enumerate_split_subgroups_fp(ring, budget)


def _staged_subgroups(ring: int, budget: int):
    """Subgroups in nondecreasing index order, enumerated in doubling
    stages so a caller that stops early never pays for the full budget.
    Each stage enumerates afresh; the earlier stages together cost less
    than the last one."""
    lo = 0
    stage = min(budget, 8)
    while True:
        for N in _subgroup_stream(ring, stage):
            if N.index > lo:
                yield N
        if stage >= budget:
            return
        lo, stage = stage, min(budget, stage * 2)


def describe_subgroup(N: SplitSubgroup) -> str:
    if isinstance(N, FpSplitSubgroup):
        return f"F{N.p}: t={N.t}, gen={N.gen}"
    vs = sorted(N.vectors)
    return f"Z: d={N.d}, t0={N.t0}, |V|={len(vs)}, t={N.t}"


def split_conjugacy_depth(g1, g2, budget: int) -> DepthResult:
    """Least index of a split subgroup separating the pair, testing
    candidates in nondecreasing index order; the index (not the
    subgroup) is what the answer means, so same-index ties are
    harmless.

    Over F_p with shifts a1, a2 not both 0, only the candidates of
    `pair_split_subgroups_fp` are tested: (D) x| t0(D)Z for the monic
    D | x^g - 1, g = gcd(a1, a2), with t0(D) | a1 - a2, and, if
    a1 != a2, (1) x| tZ for the least t not dividing a1 - a2. The first
    separator is the one the full stream finds. A subgroup (J) x| tZ
    with t not dividing a1 - a2 has index at least that least t. One
    with t | a1 - a2 tests membership in J' = J + (x^(a1 mod t) - 1),
    which contains x^gcd(a1, t) - 1 and hence x^g - 1; (J') x| t0(J')Z
    gives the same test at no larger index, and at equal index it is
    the same subgroup. Otherwise, and over Z, every split subgroup is
    streamed in doubling stages."""
    if budget < 1:
        raise ValueError("budget must be positive")
    s1, s2 = _as_semidirect(g1), _as_semidirect(g2)
    if s1.poly.ring != s2.poly.ring:
        raise ValueError("elements must share a ring")
    if same_conjugacy_class(s1, s2) is not None:
        raise ValueError("inputs are conjugate; depth undefined")
    ring = s1.poly.ring
    if ring and (s1.shift or s2.shift):
        candidates = pair_split_subgroups_fp(ring, s1.shift, s2.shift, budget)
    else:
        candidates = _staged_subgroups(ring, budget)
    for N in candidates:
        if not conjugate_in_split_quotient(s1, s2, N):
            return DepthResult((s1, s2), N.index, N)
    return DepthResult((s1, s2), EXCEEDS_BUDGET, None)


def family_depth(pair: FamilyPair, budget: Optional[int] = None) -> DepthResult:
    if budget is None:
        budget = pair.paper_upper
    s1, s2 = pair.semidirect()
    base = split_conjugacy_depth(s1, s2, budget)
    return DepthResult(
        base.pair, base.split_depth, base.subgroup, pair.paper_lower, pair.paper_upper
    )


def family_report(pair: FamilyPair, result: DepthResult) -> dict:
    return {
        "family": pair.family,
        "p": pair.p,
        "q": pair.q,
        "lower": result.paper_lower,
        "upper": result.paper_upper,
        "split_depth": result.split_depth,
    }


# ---------------------------------------------------------------------------
# ball enumeration and conjugacy classes over base Z


def _lamp_cost(ring: int, v: int) -> int:
    if ring == 0:
        return abs(v)
    v %= ring
    return min(v, ring - v)


def conjugacy_class_key(g: WreathElement):
    """Complete conjugacy invariant for elements with base Z.

    For acting part b != 0 the reduced element has one support point
    per coset of <b>; conjugation rotates the label-to-value vector, so
    the minimal rotation is canonical. For b = 0 conjugation is exactly
    translation of the support.
    """
    return _reduced_class_key(reduce(g)[0])


def _reduced_class_key(r: WreathElement):
    b = r.b.coords[0]
    if b == 0:
        if not r.pairs:
            return (0, ())
        p0 = r.pairs[0][0].coords[0]
        return (0, tuple((k.coords[0] - p0, v.coords) for k, v in r.pairs))
    n = abs(b)
    vec = [()] * n
    for k, v in r.pairs:
        vec[k.coords[0] % n] = v.coords
    best = min(
        tuple(vec[(i + s) % n] for i in range(n)) for s in range(n)
    )
    return (b, best)


def ball_elements(ring: int, n: int, ceiling: int = 200000) -> list:
    """Every element of word length at most n, exactly filtered."""
    return [g for g, _ in _ball(ring, n, ceiling)]


def _ball(ring: int, n: int, ceiling: int) -> list:
    """(g, word length of g) for every g in Ball(n)."""
    W = wreath_group_for_ring(ring)
    if ring == 0:
        values = [v for a in range(1, n + 1) for v in (a, -a)]
    else:
        values = [v for v in range(1, ring) if _lamp_cost(ring, v) <= n]
    positions = list(range(-n, n + 1))
    out = []

    def emit(pairs, b):
        g = W.element({(p,): (v,) for p, v in pairs}, (b,))
        wl, exact = word_length_info(g)
        assert exact
        if wl <= n:
            out.append((g, wl))
            if len(out) > ceiling:
                raise RuntimeError(f"ball ceiling {ceiling} exceeded")

    def rec(i, pairs, lampcost, b):
        pts = [p for p, _ in pairs] + [0, b]
        if max(pts) - min(pts) + lampcost > n:
            return
        if i == len(positions):
            emit(pairs, b)
            return
        rec(i + 1, pairs, lampcost, b)
        p = positions[i]
        for v in values:
            c = _lamp_cost(ring, v)
            if lampcost + c <= n:
                rec(i + 1, pairs + [(p, v)], lampcost + c, b)

    for b in range(-n, n + 1):
        rec(0, [], 0, b)
    return out


def conjugacy_classes(ring: int, n: int, ceiling: int = 200000) -> list:
    """Deterministic list of (class_key, reduced representative,
    least word length) for Ball(n), sorted by class key."""
    classes = {}
    for g, wl in _ball(ring, n, ceiling):
        r, _ = reduce(g)
        key = _reduced_class_key(r)
        rank = (wl, r.b.coords, tuple((k.coords, v.coords) for k, v in r.pairs))
        prev = classes.get(key)
        if prev is None or rank < prev[0]:
            classes[key] = (rank, r)
    return [(key, rep, rank[0]) for key, (rank, rep) in sorted(classes.items())]


# ---------------------------------------------------------------------------
# sweeps: one class key per (class, subgroup), so a pair costs a tuple
# comparison per subgroup


def _key_rows(args):
    reps, subgroups = args
    return [[quotient_class_key(s, N) for N in subgroups] for s in reps]


@dataclass(frozen=True)
class SweepRow:
    n: int
    max_split_depth: Union[int, str]
    witness_pair_id: str
    subgroup_descriptor: str
    elapsed_ms: int


def _pair_id(s1: SemidirectElement, s2: SemidirectElement) -> str:
    return f"{format_semidirect(s1)} | {format_semidirect(s2)}"


def depth_sweep(
    ring: int,
    n_max: int,
    budget: int,
    jobs: int = 1,
    ceiling: int = 200000,
) -> list:
    """Max split depth over all nonconjugate class pairs in Ball(n) for
    each n up to n_max. Bit-identical output at any worker count; the
    elapsed_ms column is measurement, not contract."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    subgroups = _subgroup_stream(ring, budget)
    classes = conjugacy_classes(ring, n_max, ceiling)
    reps = [from_wreath(rep) for _, rep, _ in classes]
    wls = [wl for _, _, wl in classes]

    if jobs <= 1 or len(reps) < 4:
        matrix = _key_rows((reps, subgroups))
    else:
        chunk = -(-len(reps) // jobs)
        parts = [
            (reps[i : i + chunk], subgroups) for i in range(0, len(reps), chunk)
        ]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            matrix = [row for part in pool.map(_key_rows, parts) for row in part]

    rows = []
    for n in range(1, n_max + 1):
        start = time.perf_counter()
        idx = [i for i in range(len(reps)) if wls[i] <= n]
        best_depth = 0
        best_pair = ""
        best_sub = ""
        exceeded = None
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                i, j = idx[a], idx[b]
                sep = next(
                    (s for s in range(len(subgroups)) if matrix[i][s] != matrix[j][s]),
                    None,
                )
                if sep is None:
                    if exceeded is None:
                        exceeded = _pair_id(reps[i], reps[j])
                elif subgroups[sep].index > best_depth:
                    best_depth = subgroups[sep].index
                    best_pair = _pair_id(reps[i], reps[j])
                    best_sub = describe_subgroup(subgroups[sep])
        elapsed = int((time.perf_counter() - start) * 1000)
        if exceeded is not None:
            rows.append(SweepRow(n, EXCEEDS_BUDGET, exceeded, "", elapsed))
        else:
            rows.append(SweepRow(n, best_depth, best_pair, best_sub, elapsed))
    return rows


def sweep_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "max_split_depth", "witness_pair_id", "subgroup_descriptor", "elapsed_ms"])
    for r in rows:
        w.writerow([r.n, r.max_split_depth, r.witness_pair_id, r.subgroup_descriptor, r.elapsed_ms])
    return buf.getvalue()
