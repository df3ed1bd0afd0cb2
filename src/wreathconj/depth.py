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
    ContractError,
    FpSplitSubgroup,
    LaurentPoly,
    SemidirectElement,
    ZSplitSubgroup,
    _check_ring,
    _rotation,
    conjugate_in_split_quotient,
    # not called here; bound so that callers tracing or timing the
    # enumerators as this module's names find them
    enumerate_split_subgroups_fp,
    enumerate_split_subgroups_z,
    format_semidirect,
    from_wreath,
    is_prime,
    poly_add,
    poly_sub,
    primitive_root_primes,
    quotient_class_key,
    same_conjugacy_class,
    split_subgroup_stream,
    to_wreath,
    x_power,
    xt_minus_1,
)
from .wreath import (
    WreathElement,
    conjugate_test,
    reduce,
    word_length_info,
)

SplitSubgroup = Union[FpSplitSubgroup, ZSplitSubgroup]

EXCEEDS_BUDGET = "exceeds budget"

# most conjugacy classes a ball may hold before listing gives up
BALL_CEILING = 20000


class BudgetExceeded(RuntimeError):
    """A size limit was reached before the answer."""


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

    def found(self) -> bool:
        return isinstance(self.split_depth, int)


def _check_nonconjugate(f, g, s1, s2) -> None:
    if conjugate_test(f, g) is not None:
        raise ContractError("family pair is conjugate by the wreath criterion")
    if same_conjugacy_class(s1, s2) is not None:
        raise ContractError("family pair is conjugate by the Laurent criterion")


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
    _check_nonconjugate(f, g, s1, s2)
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
    _check_nonconjugate(f, g, s1, s2)
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


def describe_subgroup(N: SplitSubgroup) -> str:
    if isinstance(N, FpSplitSubgroup):
        return f"F{N.p}: t={N.t}, gen={N.gen}"
    size = N.d**N.t0 // N.quotient_ring_order
    return f"Z: d={N.d}, t0={N.t0}, |V|={size}, t={N.t}"


def split_conjugacy_depth(g1, g2, budget: int) -> DepthResult:
    """Least index of a split subgroup separating the pair, testing
    candidates in nondecreasing index order; the index (not the
    subgroup) is what the answer means, so same-index ties are
    harmless.

    The candidates are those of `split_subgroup_stream` for the shifts
    (a1, a2) and g = gcd(a1, a2), over F_p and Z alike: each ideal J
    whose least period t0(J) divides g (every J when both shifts are 0),
    at t0(J), and, if a1 != a2, the unit ideal at the least t not
    dividing a1 - a2. They hold the first separator of the full
    enumeration; the whole group, of index 1, separates nothing and is
    not tested. A subgroup J x| tZ with t not dividing a1 - a2 has
    index at least that least t. One with t | a1 - a2 tests membership
    in J' = J + (x^(a1 mod t) - 1), which holds x^t - 1 and so
    x^gcd(a1, t) - 1; gcd(a1, t) divides a2 too, so t0(J') | g, and
    J' x| t0(J')Z gives the same test at no larger index, the same
    subgroup at equal index. The argument uses only that R[x] is
    commutative. Over F_p the J are the (D), D | x^g - 1 (every monic D
    with D(0) != 0 when g = 0). The stream builds only what is read:
    over F_p, Phi_e is split only when it reaches e * p^ord_e(p), the
    least index of a divisor holding one of its factors, so the query
    factors x^g - 1 only as far as its answer; over Z, the lattices of
    period t0 | g are built only when it reaches t0 (t0 + 1), and only
    if the pair is not conjugate mod x^t0 - 1: both shifts are 0 mod t0,
    so otherwise the pair is conjugate modulo the normal subgroup
    (x^t0 - 1) x| t0Z, which lies in every J x| t0Z of least period t0,
    and no such J separates it."""
    if budget < 1:
        raise ValueError("budget must be positive")
    s1, s2 = _as_semidirect(g1), _as_semidirect(g2)
    if s1.poly.ring != s2.poly.ring:
        raise ValueError("elements must share a ring")
    if same_conjugacy_class(s1, s2) is not None:
        raise ValueError("inputs are conjugate; depth undefined")
    shifts = (s1.shift, s2.shift)
    stream = split_subgroup_stream(
        s1.poly.ring,
        budget,
        shifts,
        math.gcd(*shifts),
        lambda t0: _rotation(s1.poly, s2.poly, t0) is None,
    )
    for N in stream:
        if not conjugate_in_split_quotient(s1, s2, N):
            return DepthResult((s1, s2), N.index, N)
    return DepthResult((s1, s2), EXCEEDS_BUDGET, None)


def family_depth(pair: FamilyPair, budget: Optional[int] = None) -> DepthResult:
    if budget is None:
        budget = pair.paper_upper
    s1, s2 = pair.semidirect()
    return split_conjugacy_depth(s1, s2, budget)


def family_report(pair: FamilyPair, result: DepthResult) -> dict:
    return {
        "family": pair.family,
        "p": pair.p,
        "q": pair.q,
        "lower": pair.paper_lower,
        "upper": pair.paper_upper,
        "split_depth": result.split_depth,
    }


# ---------------------------------------------------------------------------
# conjugacy classes of balls over base Z


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
    r = reduce(g)[0]
    return _reduced_class_key(
        r.b.coords[0], tuple((k.coords[0], v.coords) for k, v in r.pairs)
    )


def _reduced_class_key(b: int, pairs: tuple):
    """The class key of a reduced element (pairs, b): pairs holds
    (position, lamp coordinates) by increasing position."""
    if b == 0:
        if not pairs:
            return (0, ())
        p0 = pairs[0][0]
        return (0, tuple((k - p0, v) for k, v in pairs))
    n = abs(b)
    vec = [()] * n
    for k, v in pairs:
        vec[k % n] = v
    return (b, min(tuple(vec[s:] + vec[:s]) for s in range(n)))


def _lines(costs: list, length: int, most: int):
    """(values, cost) for every tuple of `length` lamp values, 0 for no
    lamp, whose costs sum to at most `most`."""
    if length == 0:
        yield (), 0
        return
    for line, c in _lines(costs, length - 1, most):
        yield line + (0,), c
        for v, cv in costs:
            if c + cv <= most:
                yield line + (v,), c + cv


def conjugacy_classes(ring: int, n: int) -> list:
    """Deterministic list of (class_key, reduced representative,
    least word length) for Ball(n), sorted by class key. Each
    representative is the SemidirectElement (P, b) a sweep keys, its
    lamps the coefficients of P; `to_wreath` gives the WreathElement.

    The classes are listed in closed form, one placement per rotation
    or pattern, not by walking the ball's elements (Parry, Trans. AMS
    1992, gives the word length on the line). Every walk from 0 to b
    covers [min(0, b), max(0, b)], and lamp cost is subadditive.
    - b != 0: a class is its vector s of lamp sums over the cosets of
      <b>, up to rotation. Its least word length |b| + sum cost(s_k) is
      attained by putting s_k at L + k, L = min(0, b), a multiple of b;
      the representative is the least such placement over the
      rotations. Both placements of a line, at 0 for b = m and at -m
      for b = -m, give the line itself as the coset vector, so its
      least rotation is taken once for both signs.
    - b = 0: a class is a pattern u_0..u_w, u_0 and u_w nonzero, up to
      translation, of least word length 2w + sum cost(u_k); the
      representative ends at 0.
    Each representative is the element of least (word length, acting
    part, lamps) in its class. BALL_CEILING caps the number of classes.
    """
    _check_ring(ring)
    if ring == 0:
        values = [v for a in range(1, n + 1) for v in (a, -a)]
    else:
        values = range(1, ring)
    costs = [(v, c) for v in values if (c := _lamp_cost(ring, v)) <= n]
    classes = {(0, ()): (0, 0, ())}

    def add(key, b, r, wl):
        if key in classes:
            classes[key] = min(classes[key], (wl, b, r))
        elif len(classes) < BALL_CEILING:
            classes[key] = (wl, b, r)
        else:
            raise BudgetExceeded(f"ball ceiling {BALL_CEILING} exceeded")

    for w in range(n // 2 + 1):
        for line, c in _lines(costs, w + 1, n - 2 * w):
            if line[0] and line[-1]:
                r = tuple((k - w, (v,)) for k, v in enumerate(line) if v)
                add(_reduced_class_key(0, r), 0, r, 2 * w + c)
    for m in range(1, n + 1):
        for line, c in _lines(costs, m, n - m):
            vec = tuple((v,) if v else () for v in line)
            least = min(vec[s:] + vec[:s] for s in range(m))
            for b, lo in ((m, 0), (-m, -m)):
                add((b, least), b, tuple((lo + k, (v,)) for k, v in enumerate(line) if v), m + c)
    return [
        (key, SemidirectElement(LaurentPoly(ring, tuple((k, v) for k, (v,) in r)), b), wl)
        for key, (wl, b, r) in sorted(classes.items())
    ]


# ---------------------------------------------------------------------------
# sweeps: partition refinement of the classes, one subgroup at a time


@dataclass(frozen=True)
class SweepRow:
    n: int
    max_split_depth: Union[int, str]
    witness_pair_id: str
    subgroup_descriptor: str
    elapsed_ms: int


def _pair_id(s1: SemidirectElement, s2: SemidirectElement) -> str:
    return f"{format_semidirect(s1)} | {format_semidirect(s2)}"


def _split_events(reps: list, subgroups) -> tuple:
    """(events, unsplit) for the classes reps refined along the stream.

    Partition refinement (Paige and Tarjan, SIAM J. Comput. 1987): the
    blocks hold classes whose keys agree on every subgroup read so far.
    Each subgroup's keys are computed only for classes in blocks of two
    or more; a block whose keys differ splits, and events gets (N,
    parts), parts the ascending class-index lists it split into, in
    stream order. N is the first subgroup separating each pair across
    two parts. unsplit holds the blocks of two or more classes that no
    subgroup split. The stream is read no further once every block is a
    single class.

    A proper ideal J, read at its least period t, keys only the blocks
    whose every shift t divides. A block's shifts agree mod t: two that
    differ mod t were split by the unit ideal at the least shift not
    dividing their difference, at most t, which the stream yields before
    J x| tZ. If t does not divide the shift a, the key at J x| tZ is the
    key at J' = J + (x^gcd(a, t) - 1) at its least period, which divides
    gcd(a, t) < t, with the shift mod t. Both parts agree on the block,
    so J x| tZ does not split it.

    The unit ideal, whose key is the shift mod t, keys only the blocks
    whose classes do not all share one shift. reps must come sorted by
    class key, which starts with the shift, so a block's first and last
    classes bound its shifts."""
    if len(reps) < 2:
        return [], []
    events, blocks = [], [list(range(len(reps)))]
    for N in subgroups:
        proper = N.quotient_ring_order > 1
        refined = []
        for block in blocks:
            if (
                any(reps[i].shift % N.t for i in block)
                if proper
                else reps[block[0]].shift == reps[block[-1]].shift
            ):
                refined.append(block)
                continue
            parts = {}
            for i in block:
                parts.setdefault(quotient_class_key(reps[i], N), []).append(i)
            if len(parts) > 1:
                events.append((N, list(parts.values())))
            refined += (g for g in parts.values() if len(g) > 1)
        blocks = refined
        if not blocks:
            break
    return events, blocks


def _least_pair(parts, inside) -> Optional[tuple]:
    """The least pair (i, j), i < j, of classes with inside[i] and
    inside[j] true that lie in two different parts, each part ascending,
    or None: the least first class across the parts, then the least
    first class of any other part."""
    firsts = sorted(next((i for i in g if inside[i]), math.inf) for g in parts)
    return tuple(firsts[:2]) if firsts[1] < math.inf else None


def _reach(parts, wls) -> int:
    """The least n at which two of the parts hold a class of Ball(n):
    the second least of the parts' least word lengths."""
    return sorted(min(wls[i] for i in g) for g in parts)[1]


def depth_sweep(
    ring: int,
    n_max: int,
    budget: int,
    jobs: int = 1,
) -> list:
    """Max split depth over all nonconjugate class pairs in Ball(n) for
    each n up to n_max. The classes of Ball(n_max) are refined along the
    subgroups of `split_subgroup_stream` for their shifts and g = 0, in
    index order, until every pair is separated or the budget is spent. That
    stream holds each ideal only at its least period, and the unit ideal
    only at the least t not dividing each difference of two of the
    ball's shifts (not at t = 1: the whole group separates nothing); no
    other subgroup is the first to separate a pair, so the first
    separators, and with them the rows, are those of the full
    enumeration. The representatives are keyed as
    `conjugacy_classes` returns them.

    Row n is then read off the split events, keeping the classes inside
    Ball(n). Each event's reach, the least n at which two of its parts
    hold a class of Ball(n), is computed once; so is each unsplit
    block's. A row exceeds the budget if an unsplit block of reach at
    most n holds two of its classes, with witness the least such pair.
    Otherwise its value is the largest index of an event of reach at
    most n, and its witness the least pair, in class-key order, that an
    event of that index and reach parts; only those events are scanned
    for pairs. `jobs` is accepted and has no effect.
    The elapsed_ms column, the time to read the row, is measurement, not
    contract."""
    if budget < 1:
        raise ValueError("budget must be positive")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    classes = conjugacy_classes(ring, n_max)
    reps = [rep for _, rep, _ in classes]
    wls = [wl for _, _, wl in classes]
    stream = split_subgroup_stream(ring, budget, {rep.shift for rep in reps}, 0)
    events, unsplit = _split_events(reps, stream)
    events = [(_reach(parts, wls), N, parts) for N, parts in events]
    unsplit = [(_reach(parts, wls), parts) for parts in ([[i] for i in b] for b in unsplit)]

    rows = []
    for n in range(1, n_max + 1):
        start = time.perf_counter()
        inside = [wl <= n for wl in wls]
        unseparated = [_least_pair(parts, inside) for reach, parts in unsplit if reach <= n]
        top = max((N.index for reach, N, _ in events if reach <= n), default=0)
        if unseparated:
            i, j = min(unseparated)
            row = (EXCEEDS_BUDGET, _pair_id(reps[i], reps[j]), "")
        elif top:
            # the least pair any event at the largest index parts
            (i, j), N = min(
                ((_least_pair(parts, inside), N) for reach, N, parts in events
                 if reach <= n and N.index == top),
                key=lambda e: e[0],
            )
            row = (top, _pair_id(reps[i], reps[j]), describe_subgroup(N))
        else:
            row = (0, "", "")
        rows.append(SweepRow(n, *row, int((time.perf_counter() - start) * 1000)))
    return rows


def sweep_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "max_split_depth", "witness_pair_id", "subgroup_descriptor", "elapsed_ms"])
    for r in rows:
        w.writerow([r.n, r.max_split_depth, r.witness_pair_id, r.subgroup_descriptor, r.elapsed_ms])
    return buf.getvalue()
