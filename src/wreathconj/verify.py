"""Acceptance scorecard.

One callable per criterion; each returns a CriterionResult carrying a
pass flag and a one-line detail.

Criteria 4b-4d check the first Z wr Z family pair (q = 3, k = 1). The
separator is read as (q, x^{2^k} - 1) x| 2^k Z, the subgroup whose
index is the displayed formula 2^k q^{2^k}; the literal reading
(2^k, x^{2^k} - 1) x| qZ is not a split subgroup. The reference
instance lower bound q^{2^k} = 9 exceeds the pair's depth 6, which 4c
proves from both sides. Separation is decided by an identity test on
the images, and conjugate_in_split_quotient only has to agree.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from . import kernel
from .abelian import AbelianGroup, quotient_mod, solve_multiple
from .depth import (
    conjugacy_classes,
    depth_sweep,
    family_depth,
    family_lamplighter,
    family_zwrz,
    split_conjugacy_depth,
)
from .lattice import kernel_basis, kernel_gram_det, int_det, unimodular_transform
from .laurent import (
    FpSplitSubgroup,
    ZSplitSubgroup,
    conjugate_in_split_quotient,
    enumerate_split_subgroups_fp,
    enumerate_split_subgroups_z,
    format_semidirect,
    image_in_split_quotient,
    mod_ideal_reduce,
    poly_add,
    poly_sub,
    psi_poly,
    same_conjugacy_class,
    verify_mod_ideal,
    wreath_group_for_ring,
    x_power,
    zero_poly,
)
from .witness import full_witness, separating_modulus, translation_preserving_modulus
from .wreath import (
    WreathGroup,
    all_translators,
    brute_force_conjugate,
    conjugate_test,
    word_length_info,
)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"criterion {self.name}: {'PASS' if self.passed else 'FAIL'} - {self.detail}"


def criterion_1() -> CriterionResult:
    parts = []
    ok = True
    for i, exact in ((1, 12), (2, 80)):
        pair = family_lamplighter(2, i)
        res = family_depth(pair)
        good = (
            res.split_depth == exact
            and pair.paper_lower <= res.split_depth <= pair.paper_upper
        )
        ok = ok and good
        parts.append(
            f"q={pair.q}: split_depth={res.split_depth}"
            f" in [{pair.paper_lower},{pair.paper_upper}]"
        )
    return CriterionResult("1", ok, "; ".join(parts))


def criterion_2() -> CriterionResult:
    checked = 0
    ok = True
    for i, bound in ((1, 8), (2, 32)):
        s1, s2 = family_lamplighter(2, i).semidirect()
        for N in enumerate_split_subgroups_fp(2, bound - 1):
            checked += 1
            ok = ok and conjugate_in_split_quotient(s1, s2, N)
    return CriterionResult(
        "2", ok, f"all {checked} split quotients below the bounds leave the pairs conjugate"
    )


def criterion_3() -> CriterionResult:
    N = FpSplitSubgroup(2, 3, psi_poly(3, 2))
    s1, s2 = family_lamplighter(2, 1).semidirect()
    i1 = image_in_split_quotient(s1, N)
    i2 = image_in_split_quotient(s2, N)
    want1 = (zero_poly(2), 0)
    want2 = (poly_add(x_power(2, 1), x_power(2, 0)), 0)
    ok = N.index == 12 and i1 == want1 and i2 == want2
    return CriterionResult(
        "3",
        ok,
        f"order {N.index}; pi(f)=({i1[0]}, {i1[1]}); pi(g)=({i2[0]}, {i2[1]})",
    )


def criterion_4a() -> CriterionResult:
    pair = family_zwrz(2)
    s1, s2 = pair.semidirect()
    wreath_says = conjugate_test(pair.f, pair.g) is None
    laurent_says = same_conjugacy_class(s1, s2) is None
    ok = wreath_says and laurent_says
    return CriterionResult(
        "4a", ok, f"nonconjugate: wreath criterion {wreath_says}, Laurent criterion {laurent_says}"
    )


def _maps_to_identity(s, N) -> bool:
    return N.contains(s.poly) and s.shift % N.t == 0


def _same_image(s1, s2, N) -> bool:
    return N.contains(poly_sub(s2.poly, s1.poly)) and (s1.shift - s2.shift) % N.t == 0


def _claimed_separator(pair) -> ZSplitSubgroup:
    # the separator (q, x^{2^k} - 1) x| 2^k Z: the subgroup whose index is
    # the displayed formula 2^k q^{2^k}
    tk = 2**pair.k
    return ZSplitSubgroup(pair.q, tk, frozenset({(0,) * tk}), tk)


def criterion_4b() -> CriterionResult:
    pair = family_zwrz(2)
    s1, s2 = pair.semidirect()
    tk = 2**pair.k
    H = _claimed_separator(pair)
    displayed = tk * pair.q**tk
    # the identity is conjugate only to itself, so f -> 1, g -/-> 1 separates
    separated = _maps_to_identity(s1, H) and not _maps_to_identity(s2, H)
    agrees = conjugate_in_split_quotient(s1, s2, H) == (not separated)
    ok = H.index == displayed == pair.paper_upper and separated and agrees
    # the text read literally, (2^k, x^{2^k} - 1) x| qZ, swaps q and 2^k
    try:
        ZSplitSubgroup(tk, tk, frozenset({(0,) * tk}), pair.q)
        literal_note = "a split subgroup"
    except ValueError as exc:
        literal_note = f"not a split subgroup ({exc})"
    image = lambda s: (H.vec(s.poly), s.shift % H.t)
    return CriterionResult(
        "4b",
        ok,
        f"H = ({pair.q}, x^{tk} - 1) x| {tk}Z has index {H.index}"
        f" (displayed formula {displayed}, paper upper {pair.paper_upper});"
        f" f -> {image(s1)}, g -> {image(s2)}: separates {separated},"
        f" quotient test agrees {agrees}; the literal reading"
        f" ({tk}, x^{tk} - 1) x| {pair.q}Z is {literal_note}",
    )


def criterion_4c() -> CriterionResult:
    pair = family_zwrz(2)
    s1, s2 = pair.semidirect()
    # every group of order <= 5 is abelian, so there conjugacy is equality
    below = enumerate_split_subgroups_z(5)
    merged = [N for N in below if not _same_image(s1, s2, N)]
    # J = (3, x + 1) x| 2Z: the quotient is S3, x acting as -1 on F3
    N6 = ZSplitSubgroup(3, 2, frozenset({(0, 0), (1, 1), (2, 2)}), 2)
    separated = _maps_to_identity(s1, N6) and not _maps_to_identity(s2, N6)
    agrees = all(conjugate_in_split_quotient(s1, s2, N) for N in below) and (
        conjugate_in_split_quotient(s1, s2, N6) == (not separated)
    )
    ok = not merged and separated and agrees
    return CriterionResult(
        "4c",
        ok,
        f"all {len(below)} split quotients of index <= 5 give equal images"
        f" ({len(merged)} do not); the index-{N6.index} quotient"
        f" (3, x + 1) x| 2Z separates: {separated}; quotient test agrees"
        f" {agrees}; so the depth is 6, and the reference instance value"
        f" {pair.paper_lower} exceeds it",
    )


def criterion_4d() -> CriterionResult:
    pair = family_zwrz(2)
    tk = 2**pair.k
    literal = pair.q * tk**tk
    displayed = tk * pair.q**tk
    H = _claimed_separator(pair)
    return CriterionResult(
        "4d",
        H.index == displayed,
        f"index of H is {H.index}; the displayed formula gives {displayed};"
        f" the literal reading's index is {literal}",
    )


def criterion_5(seed: int = 0) -> CriterionResult:
    rng = random.Random(seed)
    groups = [
        WreathGroup(AbelianGroup(0, (2,)), AbelianGroup(0, (4,))),
        WreathGroup(AbelianGroup(0, (3,)), AbelianGroup(0, (3,))),
        WreathGroup(AbelianGroup(0, (2,)), AbelianGroup(0, (2, 2))),
    ]
    pairs = 0
    ok = True
    for W in groups:
        kern = kernel.kernel_for(W)
        table = kern.conjugacy_class_table()
        elems = [kernel.decode(kern, W, i) for i in range(kern.order)]
        for i in range(kern.order):
            for j in range(kern.order):
                same = table[i] == table[j]
                ok = ok and (conjugate_test(elems[i], elems[j]) is not None) == same
                pairs += 1
        for _ in range(50):
            i, j = rng.randrange(kern.order), rng.randrange(kern.order)
            bf = brute_force_conjugate(elems[i], elems[j])
            ok = ok and (bf is not None) == (table[i] == table[j])
    return CriterionResult("5", ok, f"{pairs} ordered pairs across 3 finite wreath products")


def _l1_box(k: int, radius: int):
    rng = range(-radius, radius + 1)
    for v in itertools.product(rng, repeat=k):
        if any(v) and sum(abs(x) for x in v) <= radius:
            yield v


def _kernel_box_check() -> tuple[bool, int]:
    count = 0
    for k in (2, 3):
        for b in _l1_box(k, 20):
            basis = kernel_basis(b)
            g = math.gcd(*b)
            bound = 2 ** (k - 1) * sum(abs(x) for x in b)
            for v in basis:
                if sum(x * y for x, y in zip(v, b)) != 0:
                    return False, count
                if sum(abs(x) for x in v) > bound:
                    return False, count
            if kernel_gram_det(basis) != sum((x // g) ** 2 for x in b):
                return False, count
            count += 1
    return True, count


def _stretch_check(rng) -> tuple[bool, int]:
    done = 0
    while done < 1000:
        k = rng.randint(2, 5)
        b = tuple(rng.randint(-50, 50) for _ in range(k))
        if not any(b) or math.gcd(*b) != 1:
            continue
        rows = unimodular_transform(b)
        img = [sum(r[i] * b[i] for i in range(k)) for r in rows]
        bound = 2 ** (k - 1) * sum(abs(x) for x in b)
        if img != [1] + [0] * (k - 1):
            return False, done
        if abs(int_det(rows)) != 1:
            return False, done
        if any(abs(e) > bound for r in rows for e in r):
            return False, done
        done += 1
    return True, done


def _translate_check(rng) -> tuple[bool, int]:
    done = 0
    while done < 1000:
        k = rng.randint(1, 3)
        ell = rng.randint(1, 4)
        c = translation_preserving_modulus(ell)
        A = AbelianGroup(k)
        box = list(itertools.product(range(-(ell - 1), ell), repeat=k))
        size = rng.randint(1, min(4, len(box)))
        X = {A.element(v) for v in rng.sample(box, size)}
        if rng.random() < 0.5:
            shift = A.element(tuple(rng.randint(-ell, ell) for _ in range(k)))
            Y = {x + shift for x in X}
        else:
            Y = {A.element(v) for v in rng.sample(box, size)}
        up = {tuple(x % c for x in t.coords) for t in all_translators(X, Y)}
        xbar = [tuple(v % c for v in x.coords) for x in X]
        ybar = {tuple(v % c for v in y.coords) for y in Y}
        down = set()
        x0 = xbar[0]
        for y in ybar:
            t = tuple((a - b) % c for a, b in zip(y, x0))
            if {tuple((a + s) % c for a, s in zip(x, t)) for x in xbar} == ybar:
                down.add(t)
        if up != down:
            return False, done
        done += 1
    return True, done


def _coset_check(rng) -> tuple[bool, int]:
    done = 0
    while done < 300:
        shape = rng.choice([(1, ()), (1, (2,)), (2, ()), (1, (3,))])
        B = AbelianGroup(*shape)
        dim = B.free_rank + len(B.torsion)
        b = B.element(tuple(rng.randint(-3, 3) for _ in range(dim)))
        if all(c == 0 for c in b.free_part()):
            continue
        pts = {
            B.element(tuple(rng.randint(-3, 3) for _ in range(dim)))
            for _ in range(rng.randint(1, 3))
        }
        m = separating_modulus(B, b, pts, ell=8)
        pi = quotient_mod(B, m)
        diffs = [s - t for s in pts for t in pts] + [b]
        if len({pi(d).coords for d in diffs}) != len({d.coords for d in diffs}):
            return False, done
        for d in diffs:
            if (solve_multiple(d, b) is None) != (solve_multiple(pi(d), pi(b)) is None):
                return False, done
        done += 1
    return True, done


def _mod_ideal_check() -> tuple[bool, int]:
    count = 0
    for m in range(1, 13):
        for n in range(1, 13):
            for d in range(0, 6):
                if not verify_mod_ideal(mod_ideal_reduce(m, n, d)):
                    return False, count
                count += 1
    return True, count


def criterion_6(seed: int = 0) -> CriterionResult:
    rng = random.Random(seed)
    ok1, n1 = _kernel_box_check()
    ok2, n2 = _stretch_check(rng)
    ok3, n3 = _translate_check(rng)
    ok4, n4 = _coset_check(rng)
    ok5, n5 = _mod_ideal_check()
    ok = ok1 and ok2 and ok3 and ok4 and ok5
    return CriterionResult(
        "6",
        ok,
        f"kernel box {n1} vectors ({ok1}); stretch {n2} ({ok2});"
        f" translate {n3} ({ok3}); coset {n4} ({ok4}); mod-ideal {n5} ({ok5})",
    )


def _random_element(rng, W):
    base, lamp = W.base, W.lamp
    bdim = base.free_rank + len(base.torsion)
    ldim = lamp.free_rank + len(lamp.torsion)

    def lamp_value():
        while True:
            v = lamp.element(tuple(rng.randint(-2, 3) for _ in range(ldim)))
            if not v.is_zero():
                return v

    pairs = {}
    for _ in range(rng.randint(0, 3)):
        k = base.element(tuple(rng.randint(-4, 4) for _ in range(bdim)))
        pairs[k] = lamp_value()
    b = base.element(tuple(rng.randint(-3, 3) for _ in range(bdim)))
    return W.element(pairs, b)


def _witness_separates(w) -> bool:
    if isinstance(w.target, AbelianGroup):
        return w.image1 != w.image2
    return conjugate_test(w.image1, w.image2) is None


def criterion_7(seed: int = 0, per_group: int = 100) -> CriterionResult:
    rng = random.Random(seed)
    groups = [
        wreath_group_for_ring(2),
        WreathGroup(AbelianGroup(0, (4,)), AbelianGroup(1, (2,))),
        wreath_group_for_ring(0),
    ]
    ok = True
    sizes = []
    for gi, W in enumerate(groups):
        done = 0
        while done < per_group:
            g1 = _random_element(rng, W)
            g2 = _random_element(rng, W)
            n1, e1 = word_length_info(g1)
            n2, e2 = word_length_info(g2)
            if not (e1 and e2 and n1 <= 12 and n2 <= 12):
                continue
            if conjugate_test(g1, g2) is not None:
                continue
            w = full_witness(g1, g2)
            ok = ok and _witness_separates(w)
            if gi == 0:
                sizes.append((max(n1, n2, 1), w.order))
            done += 1
    c = max(math.log2(order) / n for n, order in sizes)
    ok = ok and c <= 16
    return CriterionResult(
        "7",
        ok,
        f"{per_group} re-verified witnesses per group x 3 groups;"
        f" F2 wr Z witness order <= 2^(c n) with c = {c:.2f}",
    )


def criterion_8(budget: int = 64) -> CriterionResult:
    """F2 n = 6 sweep: rows repeat, maxima grow with n, every maximum is
    re-verified by a direct depth query.

    The sweep runs in one process whatever `jobs` is, so the two runs
    compared here take the same code path: the check is that rows repeat,
    not that parallel execution agrees."""
    rows1 = depth_sweep(2, 6, budget=budget, jobs=1)
    rows2 = depth_sweep(2, 6, budget=budget, jobs=2)
    strip = lambda rows: [
        (r.n, r.max_split_depth, r.witness_pair_id, r.subgroup_descriptor) for r in rows
    ]
    deterministic = strip(rows1) == strip(rows2)
    depths = [r.max_split_depth for r in rows1]
    numeric = all(isinstance(d, int) for d in depths)
    monotone = numeric and depths == sorted(depths)
    witnessed = True
    for row in rows1:
        reps = [rep for _, rep, _ in conjugacy_classes(2, row.n)]
        by_id = {
            f"{format_semidirect(a)} | {format_semidirect(b)}": (a, b)
            for a, b in itertools.combinations(reps, 2)
        }
        a, b = by_id[row.witness_pair_id]
        if split_conjugacy_depth(a, b, budget=budget).split_depth != row.max_split_depth:
            witnessed = False
    ok = deterministic and monotone and witnessed
    return CriterionResult(
        "8",
        ok,
        f"maxima {depths}; repeat run (jobs=1, jobs=2; jobs has no effect) equal: {deterministic};"
        f" every maximum re-verified: {witnessed}",
    )


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [
        criterion_1(),
        criterion_2(),
        criterion_3(),
        criterion_4a(),
        criterion_4b(),
        criterion_4c(),
        criterion_4d(),
        criterion_5(seed),
        criterion_6(seed),
        criterion_7(seed),
        criterion_8(),
    ]


def scorecard(results) -> str:
    lines = [r.line() for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} criteria passed")
    return "\n".join(lines)
