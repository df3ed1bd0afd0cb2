import hashlib
import json
import math
import os
import random
import subprocess
import sys

import pytest

from test_laurent import divmod_oracle, gcd_oracle, least_periods
from wreathconj import depth, laurent
from wreathconj.cli import main
from wreathconj.depth import (
    EXCEEDS_BUDGET,
    BudgetExceeded,
    conjugacy_class_key,
    conjugacy_classes,
    depth_sweep,
    describe_subgroup,
    family_depth,
    family_lamplighter,
    family_report,
    family_zwrz,
    nth_prime,
    quotient_class_key,
    split_conjugacy_depth,
    sweep_to_csv,
)
from wreathconj.laurent import (
    ContractError,
    LaurentPoly,
    SemidirectElement,
    conjugate_in_split_quotient,
    enumerate_split_subgroups_fp,
    enumerate_split_subgroups_z,
    format_semidirect,
    from_wreath,
    poly_add,
    poly_mul,
    poly_sub,
    same_conjugacy_class,
    split_subgroup_stream,
    to_wreath,
    wreath_group_for_ring,
    x_power,
    xt_minus_1,
    zero_poly,
)
from wreathconj.wreath import (
    conjugate,
    conjugate_test,
    reduce,
    word_length_info,
)


def sdep(ring, shift, *terms):
    P = zero_poly(ring)
    for e, c in terms:
        P = poly_add(P, x_power(ring, e, c))
    return SemidirectElement(P, shift)


def rand_semidirect(rng, ring, span=4):
    P = zero_poly(ring)
    for _ in range(rng.randint(0, 3)):
        c = rng.randint(1, ring - 1) if ring else rng.choice([-3, -2, -1, 1, 2, 3])
        P = poly_add(P, x_power(ring, rng.randint(-span, span), c))
    return SemidirectElement(P, rng.randint(-5, 5))


def rand_wreath(rng, ring, span=4):
    W = wreath_group_for_ring(ring)
    pairs = {}
    for _ in range(rng.randint(0, 3)):
        v = rng.randint(1, ring - 1) if ring else rng.choice([-2, -1, 1, 2])
        pairs[(rng.randint(-span, span),)] = (v,)
    return W.element(pairs, (rng.randint(-3, 3),))


def test_nth_prime():
    assert [nth_prime(i) for i in range(1, 6)] == [2, 3, 5, 7, 11]
    with pytest.raises(ValueError):
        nth_prime(0)


# ---------------------------------------------------------------------------
# families


def test_lamplighter_family_first_pair():
    pair = family_lamplighter(2, 1)
    assert (pair.p, pair.q) == (2, 3)
    assert pair.paper_lower == 8
    assert pair.paper_upper == 12
    assert pair.word_lengths == (5, 5)
    f, g = pair.semidirect()
    assert str(f.poly) == "x^3 + 1"
    assert str(g.poly) == "x^3 + x"
    assert f.shift == g.shift == 3


def test_lamplighter_depth_q3_exact():
    pair = family_lamplighter(2, 1)
    res = family_depth(pair)
    assert res.split_depth == 12
    assert pair.paper_lower <= res.split_depth <= pair.paper_upper
    assert res.subgroup is not None and res.subgroup.index == 12


def test_lamplighter_depth_q5_exact():
    pair = family_lamplighter(2, 2)
    assert (pair.q, pair.paper_lower, pair.paper_upper) == (5, 32, 80)
    res = family_depth(pair)
    assert res.split_depth == 80
    assert pair.paper_lower <= res.split_depth <= pair.paper_upper


def test_lamplighter_depth_p3_q7_exact():
    # F_3: q = 7, the trial-division enumerator gave the same depth
    pair = family_lamplighter(3, 2)
    assert (pair.q, pair.paper_lower, pair.paper_upper) == (7, 2187, 5103)
    res = family_depth(pair)
    assert res.split_depth == 5103
    assert res.subgroup is not None and res.subgroup.t == 7


@pytest.mark.parametrize(
    "p, i, q",
    [(2, 4, 13), (2, 5, 19), (2, 6, 29), (2, 7, 37), (2, 8, 53),
     (3, 3, 17), (3, 4, 19), (5, 1, 7), (5, 2, 17), (5, 3, 23), (5, 4, 37)],
)
def test_lamplighter_depth_reaches_upper_bound(p, i, q):
    # (2, 4) = 53248 is what the full enumeration gave in 16.7 s; the
    # rest were checked by testing the four divisors of x^q - 1 in order
    pair = family_lamplighter(p, i)
    assert pair.q == q
    res = family_depth(pair)
    assert res.split_depth == q * p ** (q - 1) == pair.paper_upper
    psi = " + ".join(f"x^{k}" for k in range(q - 1, 1, -1)) + " + x + 1"
    assert describe_subgroup(res.subgroup) == f"F{p}: t={q}, gen={psi}"


def test_pair_aware_depth_against_full_enumeration(monkeypatch):
    # split_conjugacy_depth tests only the divisors of x^g - 1 (and one
    # shift-only quotient), every divisor when both shifts are 0; the
    # answer and the subgroup must be the first separator in the full
    # enumeration's order, and every F_p query reads the stream once,
    # with g = gcd(a1, a2). The period predicate is forwarded; the F_p
    # stream does not read it
    reads = []

    def recorded(ring, max_index, shifts, g, may_separate=None):
        reads.append((tuple(shifts), g))
        return split_subgroup_stream(ring, max_index, shifts, g, may_separate)

    def rand_poly(rng, p):
        P = zero_poly(p)
        for _ in range(rng.randint(0, 6)):
            P = poly_add(P, x_power(p, rng.randint(-8, 8), rng.randint(1, p - 1)))
        return P

    # +-7, +-14, +-21 bring in Phi_7, which splits into two cubics over F2
    nonzero = [a for a in range(-6, 7) if a] + [-21, -14, -7, 7, 14, 21]
    # shifts far past the budget, unequal so the pair is nonconjugate at
    # once: p^k, a large prime, and 7 * p^k; x^g - 1 is factored only as
    # far as the budget reaches
    large = [(2**16, 3 * 2**16), (-1000003, 2000006), (7 * 2**16, -7 * 2**17)]
    large = {
        p: large + [(p**k, -2 * p**k), (7 * p**k, 14 * p**k)]
        for p, k in ((2, 20), (3, 12), (5, 9))
    }
    found = set()
    for p, budget in ((2, 512), (3, 243), (5, 125)):
        full = enumerate_split_subgroups_fp(p, budget)
        rng = random.Random(p)
        seen = set()
        # lamplighter pairs past the budget, with shift q and with -q
        s1, s2 = family_lamplighter(p, 3 if p == 2 else 1).semidirect()
        pairs = [(s1, s2), (s1.inv(), s2.inv())]
        pairs += (
            (SemidirectElement(rand_poly(rng, p), a1), SemidirectElement(rand_poly(rng, p), a2))
            for a1, a2 in large[p]
            for _ in range(3)
        )
        for n in range(600):
            kind = ("equal", "unequal", "one zero", "both zero")[n % 4]
            if kind == "equal":
                a1 = a2 = rng.choice(nonzero)
            elif kind == "unequal":
                a1, a2 = rng.sample(nonzero, 2)
            elif kind == "one zero":
                a1, a2 = rng.choice([(rng.choice(nonzero), 0), (0, rng.choice(nonzero))])
            else:
                a1 = a2 = 0
            pairs.append(
                (SemidirectElement(rand_poly(rng, p), a1), SemidirectElement(rand_poly(rng, p), a2))
            )
        for s1, s2 in pairs:
            if same_conjugacy_class(s1, s2) is not None:
                continue
            first = next((N for N in full if not conjugate_in_split_quotient(s1, s2, N)), None)
            reads.clear()
            with monkeypatch.context() as m:
                m.setattr(depth, "split_subgroup_stream", recorded)
                res = split_conjugacy_depth(s1, s2, budget)
            assert reads == [((s1.shift, s2.shift), math.gcd(s1.shift, s2.shift))]
            if first is None:
                assert res.split_depth == EXCEEDS_BUDGET and res.subgroup is None
            else:
                assert res.split_depth == first.index
                assert describe_subgroup(res.subgroup) == describe_subgroup(first)
            kind = "equal" if s1.shift == s2.shift else "unequal"
            seen.add((kind, s1.shift == 0 or s2.shift == 0, res.found()))
            if res.found():
                found.add((p, res.subgroup.t, res.subgroup.gen.degree))
        assert {("equal", False, True), ("equal", False, False)} <= seen
        assert {("unequal", False, True), ("unequal", True, True)} <= seen
        assert ("equal", True, True) in seen
    # an answer generated by one of Phi_7's cubic factors over F2
    assert (2, 7, 3) in found


def _record_periods(monkeypatch) -> list:
    """The periods t0 that `_lattices_of_period` is called for, in call
    order, from now on."""
    periods = []
    lattices = laurent._lattices_of_period
    monkeypatch.setattr(
        laurent, "_lattices_of_period", lambda t0, bound: periods.append(t0) or lattices(t0, bound)
    )
    return periods


def test_z_depth_is_the_first_separator_of_the_full_enumeration(monkeypatch):
    # a Z query reads only the least-period stream for g = gcd(a1, a2),
    # building lattices of period t0 only for t0 | g at which the pair
    # is not conjugate mod x^t0 - 1, each period the stream reaches; its
    # answer and subgroup must be the first separator in the full
    # enumeration, and an exhausting query must exhaust it. The
    # enumeration is derived from that stream, so it is pinned by the
    # SHA-256 of its listing as the stream of every split subgroup
    # produced it
    frozen = {
        18: "b0ee129192865381cf208a68fc714975969c17d324116c037087bc1d72e86b92",
        24: "216c81a8578cc6ca64f8fac6470b8205c2c11700a3aa76aae57591f7446622cb",
        48: "dafe7b4b26f41e34dd8e52e0225c80219a4d6e57eec7575169708f0cc84a9619",
    }
    rng, unit_rng, gcd_rng = random.Random(0), random.Random(1), random.Random(2)
    skip_rng = random.Random(3)
    deep = (sdep(0, 0, (0, 1), (-1, -1)), sdep(0, 0, (0, -1), (-1, 1)))  # depth 21
    seen, units, skipped = set(), set(), set()
    built = {False: set(), True: set()}  # by whether a P + R (x^k - 1) pair
    periods = _record_periods(monkeypatch)
    for budget in (18, 24, 48):
        full = enumerate_split_subgroups_z(budget)
        assert hashlib.sha256(repr(full).encode()).hexdigest() == frozen[budget], budget
        pairs = [deep]
        for _ in range(100):
            # one pair at random, one that differs by c x^i - x^j only
            s1 = rand_semidirect(rng, 0)
            i, j = rng.sample(range(-3, 4), 2)
            delta = poly_sub(x_power(0, i, rng.choice([-2, -1, 1, 2])), x_power(0, j, 1))
            near = SemidirectElement(poly_add(s1.poly, delta), s1.shift)
            pairs += [(s1, rand_semidirect(rng, 0)), (s1, near)]
        # unequal shifts, differences 1, 2, 6 and 12: with equal lamps
        # only the unit ideal at the least shift not dividing the
        # difference, 2, 3, 4 and 5, can separate them first
        for d in (1, 2, 6, 12):
            s1 = rand_semidirect(unit_rng, 0)
            pairs += [(s1, SemidirectElement(s1.poly, s1.shift + d)),
                      (s1, SemidirectElement(rand_semidirect(unit_rng, 0).poly, s1.shift - d))]
        # equal nonzero shifts, and unequal shifts of gcd 2, 3, 4 and 6,
        # each with lamps at random and with lamps that differ by
        # c x^i - x^j only
        for a1, a2 in ((1, 1), (-2, -2), (3, 3), (4, 4), (6, 6),
                       (2, 4), (-2, 6), (3, -6), (9, 3), (4, -4), (8, 4), (6, -6), (12, 6)):
            P = rand_semidirect(gcd_rng, 0).poly
            i, j = gcd_rng.sample(range(-3, 4), 2)
            delta = poly_sub(x_power(0, i, gcd_rng.choice([-2, -1, 1, 2])), x_power(0, j, 1))
            s1 = SemidirectElement(P, a1)
            pairs += [(s1, SemidirectElement(rand_semidirect(gcd_rng, 0).poly, a2)),
                      (s1, SemidirectElement(poly_add(P, delta), a2))]
        plain = len(pairs)
        # lamps P and P + R (x^k - 1), conjugate mod x^k - 1 and so mod
        # x^t0 - 1 for every t0 | k: no lattice of such a period is
        # built. Shifts a != k, as P + R (x^a - 1) is conjugate to P
        for k, a in ((2, 0), (3, 0), (4, 0), (2, 4), (2, -6), (3, 6), (2, 8), (4, -8)):
            for _ in range(4):
                P, R = rand_semidirect(skip_rng, 0).poly, rand_semidirect(skip_rng, 0).poly
                lamp = poly_add(P, poly_mul(R, xt_minus_1(0, k)))
                pairs.append((SemidirectElement(P, a), SemidirectElement(lamp, a)))
        for n, (s1, s2) in enumerate(pairs):
            if same_conjugacy_class(s1, s2) is not None:
                continue
            first = next((N for N in full if not conjugate_in_split_quotient(s1, s2, N)), None)
            periods.clear()
            res = split_conjugacy_depth(s1, s2, budget)
            g = math.gcd(s1.shift, s2.shift)
            # the stream reaches t0 when its next index is t0 (t0 + 1) or
            # more; an exhausting query reaches the budget
            reach = res.split_depth if res.found() else budget
            reached = [t0 for t0 in range(2, budget) if t0 * (t0 + 1) <= reach and g % t0 == 0]
            apart = [
                t0 for t0 in reached
                if same_conjugacy_class(
                    SemidirectElement(s1.poly, t0), SemidirectElement(s2.poly, t0)
                ) is None
            ]
            assert periods == apart, (g, s1, s2, periods, apart)
            built[n >= plain] |= {(g, t0) for t0 in periods}
            skipped |= {(g, t0) for t0 in reached if t0 not in apart}
            want = (first.index, first) if first else (EXCEEDS_BUDGET, None)
            assert (res.split_depth, res.subgroup) == want, (budget, s1, s2)
            seen.add((budget, res.found()))
            if res.found() and res.subgroup.d == 1:
                units.add((budget, res.subgroup.t, s1.poly == s2.poly))
    assert seen == {(b, found) for b in (18, 24, 48) for found in (True, False)}
    assert {(b, t, True) for b in (18, 24, 48) for t in (2, 3, 4, 5)} <= units
    # the (g, t0) built and those reached but skipped, t0 | g (every t0
    # for g = 0); the pairs before the P + R (x^k - 1) ones no longer
    # build (6, 2) or (6, 3)
    assert built[False] == {(0, 2), (0, 3), (0, 4), (2, 2), (3, 3), (4, 2), (4, 4), (5, 5)}
    assert built[True] == {(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (4, 4), (6, 2), (6, 3), (8, 4)}
    assert skipped == {(0, 2), (0, 3), (0, 4), (4, 2), (6, 2), (6, 3), (8, 2), (8, 4)}


def test_lamplighter_conjugate_below_lower_bound():
    # every split quotient cheaper than the lower bound fails to separate
    for i, bound in ((1, 8), (2, 32)):
        s1, s2 = family_lamplighter(2, i).semidirect()
        for N in enumerate_split_subgroups_fp(2, bound - 1):
            assert conjugate_in_split_quotient(s1, s2, N)


def test_family_report_shape():
    pair = family_lamplighter(2, 1)
    rep = family_report(pair, family_depth(pair))
    assert rep == {
        "family": "lamplighter",
        "p": 2,
        "q": 3,
        "lower": 8,
        "upper": 12,
        "split_depth": 12,
    }
    json.dumps(rep)


def test_zwrz_family_first_pair():
    pair = family_zwrz(2)
    assert (pair.q, pair.alpha, pair.k) == (3, 2, 1)
    f, g = pair.semidirect()
    assert str(f.poly) == "2*x^2 - 2"
    assert str(g.poly) == "2*x^2 + 2*x - 4"
    assert f.shift == g.shift == 2
    assert pair.paper_lower == 9
    assert pair.paper_upper == 18


def test_zwrz_refuses_degenerate_index():
    with pytest.raises(ValueError):
        family_zwrz(1)


def test_zwrz_depth_q3_exact():
    pair = family_zwrz(2)
    res = family_depth(pair)
    assert res.split_depth == 6
    N = res.subgroup
    assert (N.d, N.t0, N.t) == (3, 2, 2)
    assert N.vectors == frozenset({(0, 0), (1, 1), (2, 2)})
    # the claimed lower bound is larger than the computed depth; the
    # index-6 quotient above is a genuine separator, so the bound's
    # instance at q=3 is simply false
    assert res.split_depth < pair.paper_lower


def test_zwrz_depth_q5_at_300(monkeypatch):
    # shifts 16 and 16: of the periods 2, 4, 8 and 16 dividing g, only
    # 16 is built, as both lamp polynomials vanish mod x^8 - 1; the
    # first separator has period 16 and co-index 17
    periods = _record_periods(monkeypatch)
    res = family_depth(family_zwrz(3), budget=300)
    assert res.split_depth == 272
    assert describe_subgroup(res.subgroup) == "Z: d=17, t0=16, |V|=2862423051509815793, t=16"
    assert periods == [16]


def test_z_depth_skips_periods_the_pair_is_conjugate_at(monkeypatch):
    # 1 - x^-1 and its negative are conjugate mod x^2 - 1 (both fold to
    # 1 - x and -1 + x = x (1 - x) mod x^2 - 1), not mod x^3 - 1: period
    # 2 is never built, period 3 is, and the answer is unchanged
    deep = (sdep(0, 0, (0, 1), (-1, -1)), sdep(0, 0, (0, -1), (-1, 1)))
    periods = _record_periods(monkeypatch)
    assert split_conjugacy_depth(*deep, 18).split_depth == EXCEEDS_BUDGET
    assert periods == [3]
    res = split_conjugacy_depth(*deep, 24)
    assert res.split_depth == 21
    assert describe_subgroup(res.subgroup) == "Z: d=7, t0=3, |V|=49, t=3"


def test_zwrz_conjugate_below_six():
    s1, s2 = family_zwrz(2).semidirect()
    for N in enumerate_split_subgroups_z(5):
        assert conjugate_in_split_quotient(s1, s2, N)


def test_zwrz_next_instance_constructs():
    pair = family_zwrz(3)
    assert (pair.q, pair.alpha, pair.k) == (5, 12, 4)
    res = family_depth(pair, budget=20)
    assert res.split_depth == EXCEEDS_BUDGET
    assert not res.found()


# ---------------------------------------------------------------------------
# split_conjugacy_depth


def test_depth_of_shift_pair_is_two():
    d = split_conjugacy_depth(sdep(2, 1), sdep(2, 2), budget=8)
    assert d.split_depth == 2
    assert d.subgroup.t == 2 and d.subgroup.gen.degree == 0


def test_depth_rejects_conjugate_inputs():
    g = sdep(2, 1, (0, 1))
    with pytest.raises(ValueError):
        split_conjugacy_depth(g, g, budget=4)
    # a translate of a shiftless element is conjugate to it
    with pytest.raises(ValueError):
        split_conjugacy_depth(sdep(0, 0, (0, 2)), sdep(0, 0, (5, 2)), budget=4)


def test_depth_budget_exhaustion():
    d = split_conjugacy_depth(sdep(2, 1), sdep(2, 2), budget=1)
    assert d.split_depth == EXCEEDS_BUDGET
    assert d.subgroup is None


def test_depth_accepts_wreath_elements():
    pair = family_zwrz(2)
    d = split_conjugacy_depth(pair.f, pair.g, budget=10)
    assert d.split_depth == 6


# ---------------------------------------------------------------------------
# quotient class keys against the direct quotient test


def test_quotient_key_matches_quotient_conjugacy():
    rng = random.Random(7)
    cases = [(2, enumerate_split_subgroups_fp(2, 12)),
             (3, enumerate_split_subgroups_fp(3, 12)),
             (0, enumerate_split_subgroups_z(9))]
    for ring, subs in cases:
        for _ in range(120):
            s1 = rand_semidirect(rng, ring)
            s2 = rand_semidirect(rng, ring)
            for N in rng.sample(subs, 3):
                same_key = quotient_class_key(s1, N) == quotient_class_key(s2, N)
                assert same_key == conjugate_in_split_quotient(s1, s2, N)


def test_quotient_key_constant_on_conjugates():
    rng = random.Random(8)
    for ring, subs in ((2, enumerate_split_subgroups_fp(2, 10)),
                       (0, enumerate_split_subgroups_z(8))):
        W = wreath_group_for_ring(ring)
        for _ in range(60):
            g = rand_wreath(rng, ring)
            z = rand_wreath(rng, ring)
            s1 = from_wreath(g)
            s2 = from_wreath(conjugate(z, g))
            for N in rng.sample(subs, 3):
                assert quotient_class_key(s1, N) == quotient_class_key(s2, N)


# ---------------------------------------------------------------------------
# class keys over base Z


def test_class_key_matches_conjugate_test():
    rng = random.Random(9)
    for ring in (2, 0):
        for _ in range(250):
            g1 = rand_wreath(rng, ring)
            g2 = rand_wreath(rng, ring)
            same = conjugacy_class_key(g1) == conjugacy_class_key(g2)
            assert same == (conjugate_test(g1, g2) is not None)


def test_class_key_constant_on_conjugates():
    rng = random.Random(10)
    for ring in (2, 0):
        for _ in range(150):
            g = rand_wreath(rng, ring)
            z = rand_wreath(rng, ring)
            assert conjugacy_class_key(g) == conjugacy_class_key(conjugate(z, g))


# ---------------------------------------------------------------------------
# conjugacy classes of balls


def test_ball_ceiling_stops_sweeps(monkeypatch, capsys):
    monkeypatch.setattr(depth, "BALL_CEILING", 10)
    with pytest.raises(BudgetExceeded):
        depth_sweep(2, 4, budget=8)
    assert main(["sweep", "--ring", "F2", "--n", "4", "--budget", "8"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: ball ceiling 10 exceeded\n"


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_documented_exits_survive_optimisation(flags):
    # contracts are explicit raises, not asserts, so python -O keeps them
    code = (
        "import sys\n"
        "from wreathconj import cli, depth\n"
        "depth.BALL_CEILING = 10\n"
        "rc = cli.main(['sweep', '--ring', 'F2', '--n', '4'])\n"
        "depth.conjugate_test = lambda f, g: f\n"
        "rc2 = cli.main(['family', '--tag', 'lamplighter', '--p', '2', '--i', '1'])\n"
        "print(rc, rc2)\n"
    )
    out = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout == "2 3\n"
    assert out.stderr.splitlines() == [
        "error: ball ceiling 10 exceeded",
        "internal error: family pair is conjugate by the wreath criterion",
    ]


def test_family_contracts_raise(monkeypatch):
    monkeypatch.setattr(depth, "same_conjugacy_class", lambda s1, s2: (0, s1.poly))
    with pytest.raises(ContractError):
        family_lamplighter(2, 1)
    with pytest.raises(ContractError):
        family_zwrz(2)


def reference_ball(ring, n):
    """(g, word length) for Ball(n): every candidate built as a
    WreathElement and measured by word_length_info."""
    W = wreath_group_for_ring(ring)

    def cost(v):
        return abs(v) if ring == 0 else min(v % ring, ring - v % ring)

    if ring == 0:
        values = [v for a in range(1, n + 1) for v in (a, -a)]
    else:
        values = [v for v in range(1, ring) if cost(v) <= n]
    positions = list(range(-n, n + 1))
    out = []

    def rec(i, pairs, lampcost, b):
        pts = [p for p, _ in pairs] + [0, b]
        if max(pts) - min(pts) + lampcost > n:
            return
        if i == len(positions):
            g = W.element({(p,): (v,) for p, v in pairs}, (b,))
            wl, exact = word_length_info(g)
            assert exact
            if wl <= n:
                out.append((g, wl))
            return
        rec(i + 1, pairs, lampcost, b)
        for v in values:
            if lampcost + cost(v) <= n:
                rec(i + 1, pairs + [(positions[i], v)], lampcost + cost(v), b)

    for b in range(-n, n + 1):
        rec(0, [], 0, b)
    return out


def reference_class_key(r):
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
    return (b, min(tuple(vec[(i + s) % n] for i in range(n)) for s in range(n)))


def reference_classes(ring, n):
    """(key, representative, word length) by the general reduction."""
    classes = {}
    for g, wl in reference_ball(ring, n):
        r, _ = reduce(g)
        key = reference_class_key(r)
        rank = (wl, r.b.coords, tuple((k.coords, v.coords) for k, v in r.pairs))
        if key not in classes or rank < classes[key][0]:
            classes[key] = (rank, r)
    return [(key, rep, rank[0]) for key, (rank, rep) in sorted(classes.items())]


@pytest.mark.parametrize(
    "ring, n",
    [(2, 8), (3, 6), (5, 5), (7, 4), (0, 5), (2, 10), (3, 7), (0, 6), (11, 4)],
)
def test_integer_classes_match_wreath_reduction(ring, n):
    got = conjugacy_classes(ring, n)
    want = reference_classes(ring, n)
    assert [(key, str(to_wreath(rep)), wl) for key, rep, wl in got] == \
           [(key, str(rep), wl) for key, rep, wl in want]
    assert [to_wreath(rep) for _, rep, _ in got] == [rep for _, rep, _ in want]


def test_class_counts_frozen():
    assert len(conjugacy_classes(2, 1)) == 4
    assert len(conjugacy_classes(2, 2)) == 8


def test_classes_reach_large_balls():
    # both balls hold more than 200,000 elements, which are not visited
    assert len(conjugacy_classes(2, 20)) == 4642
    assert len(conjugacy_classes(0, 12)) == 13671


def test_ball_ceiling_counts_classes(monkeypatch):
    # Ball(4) over F2 holds 44 elements in 19 classes
    monkeypatch.setattr(depth, "BALL_CEILING", 19)
    assert len(conjugacy_classes(2, 4)) == 19
    monkeypatch.setattr(depth, "BALL_CEILING", 18)
    with pytest.raises(BudgetExceeded, match="^ball ceiling 18 exceeded$"):
        conjugacy_classes(2, 4)


def test_classes_reject_non_prime_ring_before_the_ball():
    # the ring is checked first: Ball(40) over Z/4 would exceed the
    # ball ceiling before any check at its end ran
    with pytest.raises(ValueError):
        conjugacy_classes(4, 40)


def test_classes_pairwise_nonconjugate():
    classes = conjugacy_classes(2, 3)
    reps = [to_wreath(rep) for _, rep, _ in classes]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert conjugate_test(reps[i], reps[j]) is None


# ---------------------------------------------------------------------------
# sweeps


def direct_row_max(ring, n, budget):
    """(max depth, witness pair id, descriptor) of row n, pair by pair:
    the first pair in class-key order at the maximum, with its first
    separator, or the first pair no subgroup separates."""
    subs = (enumerate_split_subgroups_z(budget) if ring == 0
            else enumerate_split_subgroups_fp(ring, budget))
    reps = [rep for _, rep, _ in conjugacy_classes(ring, n)]
    best = (0, "", "")
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            pair_id = f"{format_semidirect(reps[i])} | {format_semidirect(reps[j])}"
            for N in subs:
                if not conjugate_in_split_quotient(reps[i], reps[j], N):
                    if N.index > best[0]:
                        best = (N.index, pair_id, describe_subgroup(N))
                    break
            else:
                return (EXCEEDS_BUDGET, pair_id, "")
    return best


def per_row_scan(ring, n_max, budget):
    """(n, max depth, witness pair id, descriptor) for each row, every
    split event and unsplit block scanned for a pair at every row."""
    classes = conjugacy_classes(ring, n_max)
    reps = [rep for _, rep, _ in classes]
    stream = split_subgroup_stream(ring, budget, {rep.shift for rep in reps}, 0)
    events, unsplit = depth._split_events(reps, stream)
    rows = []
    for n in range(1, n_max + 1):
        inside = [wl <= n for _, _, wl in classes]
        unseparated = [p for block in unsplit
                       if (p := depth._least_pair([[i] for i in block], inside))]
        parted = [(N.index, p, N) for N, parts in events
                  if (p := depth._least_pair(parts, inside))]
        if unseparated:
            i, j = min(unseparated)
            row = (EXCEEDS_BUDGET, depth._pair_id(reps[i], reps[j]), "")
        elif parted:
            index, (i, j), N = min(parted, key=lambda e: (-e[0], e[1]))
            row = (index, depth._pair_id(reps[i], reps[j]), describe_subgroup(N))
        else:
            row = (0, "", "")
        rows.append((n, *row))
    return rows


@pytest.mark.parametrize(
    "ring, n_max, budget",
    # the last two with budgets that run out part-way
    [(2, 10, 2048), (2, 4, 4), (3, 7, 2187), (5, 5, 625), (0, 6, 64), (0, 3, 3)],
)
def test_sweep_rows_match_per_row_scan(ring, n_max, budget):
    # rows read off each event's reach equal a scan of every event per row
    rows = depth_sweep(ring, n_max, budget)
    want = per_row_scan(ring, n_max, budget)
    assert [(r.n, r.max_split_depth, r.witness_pair_id, r.subgroup_descriptor)
            for r in rows] == want
    if budget < 8:
        assert want[0][1] != EXCEEDS_BUDGET and want[-1][1] == EXCEEDS_BUDGET


def test_sweep_frozen_f2():
    rows = depth_sweep(2, 4, budget=16)
    assert [r.max_split_depth for r in rows] == [3, 3, 4, 8]
    assert rows[0].witness_pair_id == "(0, -1) | (0, 1)"
    assert rows[0].subgroup_descriptor == "F2: t=3, gen=1"
    # the jump at n=4: a lamp pattern divisible by x+1 but not (x+1)^2
    # next to the empty configuration, both with shift -2
    assert rows[3].witness_pair_id == "(0, -2) | (x^-1 + x^-2, -2)"
    assert rows[3].subgroup_descriptor == "F2: t=2, gen=x^2 + 1"


def test_sweep_matches_direct_oracle():
    # whole rows against the full listing, every unit ideal and every
    # ideal at every multiple of its period, scanned pair by pair: the
    # sweep reads the unit ideal only at shifts that can first separate
    # two of the ball's classes (2, 3, 4 and 5 from radius 6 on). Each
    # ring at a budget that answers every row and at one that runs out
    X = EXCEEDS_BUDGET
    cases = {
        (2, 4, 16): [3, 3, 4, 8],
        (0, 2, 8): [3, 3],
        (2, 4, 4): [3, 3, 4, X],
        (0, 3, 3): [3, 3, X],
        (3, 3, 3): [3, 3, X],
        (2, 8, 256): [3, 3, 4, 8, 12, 32, 80, 80],
        (2, 8, 64): [3, 3, 4, 8, 12, 32, X, X],
        (3, 6, 729): [3, 3, 4, 27, 81, 108],
        (3, 6, 81): [3, 3, 4, 27, 81, X],
        (5, 5, 625): [5, 5, 5, 75, 75],
        (5, 4, 25): [5, 5, 5, X],
        (0, 5, 32): [3, 3, 4, 21, 21],
        (0, 5, 16): [3, 3, 4, X, X],
    }
    for (ring, n_max, budget), depths in cases.items():
        rows = depth_sweep(ring, n_max, budget)
        assert [r.max_split_depth for r in rows] == depths
        for row in rows:
            got = (row.max_split_depth, row.witness_pair_id, row.subgroup_descriptor)
            assert got == direct_row_max(ring, row.n, budget), (ring, budget, row.n)


@pytest.mark.parametrize("n_max, budget, count", [(8, 256, 13), (13, 2**16, 160)])
def test_sweep_builds_few_unit_ideals(monkeypatch, n_max, budget, count):
    # every subgroup an F2 sweep builds, counted at construction: the
    # stream yields the unit ideal at 2, 3, 4 and 5 only, the least
    # shifts not dividing some difference of the ball's shifts, and not
    # the whole group at t = 1
    built = []
    make = laurent.FpSplitSubgroup._from_divisor
    monkeypatch.setattr(
        laurent.FpSplitSubgroup, "_from_divisor", lambda *a: built.append(make(*a)) or built[-1]
    )
    depth_sweep(2, n_max, budget)
    assert len(built) == count
    assert sorted(N.t for N in built if not N.gen.degree) == [2, 3, 4, 5]


def test_streams_and_listings_call_no_public_constructor(monkeypatch):
    # the public constructors check data from outside; every subgroup a
    # sweep, a depth query or a full listing reads is built unchecked
    calls = []
    for cls, name in (
        (laurent.FpSplitSubgroup, "__post_init__"),
        (laurent.ZSplitSubgroup, "__init__"),
    ):
        public = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda N, *a, f=public: calls.append(type(N)) or f(N, *a))
    depth_sweep(2, 8, 256)
    depth_sweep(0, 3, 16)
    for ring, x, y, budget, answer in (
        (3, "(1 + x^-1, -1)", "(2 + x^-1, -1)", 1024, 3),
        (2, "(x^60 - 1, 0)", "(0, 0)", 4096, 56),
        (0, "(1 - x^-1, 0)", "(-1 + x^-1, 0)", 24, 21),
    ):
        s1, s2 = laurent.parse_semidirect(x, ring), laurent.parse_semidirect(y, ring)
        assert split_conjugacy_depth(s1, s2, budget).split_depth == answer
    assert family_depth(family_lamplighter(2, 2)).split_depth == 80
    enumerate_split_subgroups_fp(2, 4096)
    enumerate_split_subgroups_z(48)
    assert calls == []
    # the hooks do see a public construction
    laurent.FpSplitSubgroup(2, 4, laurent.parse_laurent("x^2 + 1", 2))
    laurent.ZSplitSubgroup(2, 1, [(0,)], 1)
    assert calls == [laurent.FpSplitSubgroup, laurent.ZSplitSubgroup]


@pytest.mark.parametrize("budget, isolated", [(16, True), (4, False)])
def test_sweep_reads_the_stream_to_the_last_split(monkeypatch, budget, isolated):
    # the stream is read up to the subgroup that isolates the last class
    # and no further, or to its end when some classes stay together
    reads = []

    def counted(ring, max_index, shifts, g):
        for N in split_subgroup_stream(ring, max_index, shifts, g):
            reads.append(N)
            yield N

    monkeypatch.setattr(depth, "split_subgroup_stream", counted)
    depth_sweep(2, 4, budget)
    reps = [rep for _, rep, _ in conjugacy_classes(2, 4)]
    subs = least_periods(enumerate_split_subgroups_fp(2, budget), range(-4, 5))
    assert reads == subs[: len(reads)]

    def apart(k):
        keys = {tuple(quotient_class_key(s, N) for N in subs[:k]) for s in reps}
        return len(keys) == len(reps)

    if isolated:
        last = next(k for k in range(1, len(subs) + 1) if apart(k))
        assert len(reads) == last < len(subs)
    else:
        assert not apart(len(subs))
        assert len(reads) == len(subs)


def test_sweep_monotone_and_witnessed():
    rows = depth_sweep(2, 4, budget=16)
    depths = [r.max_split_depth for r in rows]
    assert depths == sorted(depths)
    for row in rows:
        # the reported witness pair must reproduce the reported maximum
        reps = [rep for _, rep, _ in conjugacy_classes(2, row.n)]
        by_id = {}
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                key = f"{format_semidirect(reps[i])} | {format_semidirect(reps[j])}"
                by_id[key] = (reps[i], reps[j])
        a, b = by_id[row.witness_pair_id]
        assert split_conjugacy_depth(a, b, budget=16).split_depth == row.max_split_depth


def test_sweep_deterministic_across_workers():
    base = depth_sweep(2, 3, budget=12, jobs=1)
    for jobs in (2, 3):
        other = depth_sweep(2, 3, budget=12, jobs=jobs)
        assert [(r.n, r.max_split_depth, r.witness_pair_id, r.subgroup_descriptor)
                for r in base] == \
               [(r.n, r.max_split_depth, r.witness_pair_id, r.subgroup_descriptor)
                for r in other]


def test_import_leaves_multiprocessing_out():
    # sweeps run in one process at every jobs value; no worker pool is imported
    code = "import sys, wreathconj; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("p, n, budget", [(2, 5, 64), (3, 4, 81)])
def test_fp_class_key_is_the_orbit_minimum(p, n, budget):
    # the key skips the orbit when g0 = gcd(gen, x^m - 1) is 1; with or
    # without the shortcut it is the least residue of x^l P mod g0 over
    # l < t, x^t being 1 mod g0, found by schoolbook division
    reps = [rep for _, rep, _ in conjugacy_classes(p, n)]
    units = 0
    for N in enumerate_split_subgroups_fp(p, budget):
        for s in reps:
            m = s.shift % N.t
            g0 = gcd_oracle(N.gen, xt_minus_1(p, m), p)
            units += not g0.degree
            orbit = []
            for ell in range(N.t):
                folded = LaurentPoly(p, tuple(((e + ell) % N.t, c) for e, c in s.poly.coeffs))
                rem = divmod_oracle(folded, g0, p)[1]
                orbit.append(tuple(rem.get(i, 0) for i in range(g0.degree)))
            assert quotient_class_key(s, N) == (m, min(orbit))
    assert units


def test_sweep_frozen_digests():
    # SHA-256 of the rows of the four sweeps the benchmark times, as the
    # code before the shared quotient kernel computed them
    frozen = {
        (2, 8, 256): "341233eb5c9ebf2365b1dfceec18c9e047c8e71e03ab7f7d3fc3f80638a44074",
        (3, 5, 243): "3a6cda05d4788a33022be640d425a18f8c2bfa409c701b381d80fbbc6c425ec0",
        (5, 4, 125): "159f9f729e2d4ae695873483c13c8b5c989562ee55dae1c563de8a3cb3649983",
        (0, 3, 16): "f06715766ff5984230cdc6166f59a7676854170cb615d6915b37a67bd643e730",
        # the largest F2 and F3 sweeps, as the stream of every split
        # subgroup computed them
        (2, 12, 4096): "623925863ee5fe6e68645771f00696b8cda1e9fd42b2c529208ca1b1a2c8f106",
        (3, 8, 2187): "b477f5017285a655114599f7387afb722b6e689079756ec32e15dd669aced536",
        # rows 3, 3, 4, 8, 12, 32, 80, 80, 448, 448, 1024, 2304, 11264, as
        # the sweep keying every block on every subgroup computed them
        (2, 13, 65536): "f0d7d647bd8fdf1aced73bbf558e00ac882e6364b264c03ba05e1ac17dc3fd77",
    }
    for (ring, n_max, budget), digest in frozen.items():
        rows = depth_sweep(ring, n_max, budget)
        listed = repr([(r.n, r.max_split_depth, r.witness_pair_id, r.subgroup_descriptor)
                       for r in rows]).encode()
        assert hashlib.sha256(listed).hexdigest() == digest, (ring, n_max, budget)


@pytest.mark.parametrize("ring, n, budget, name", [(2, 10, 2048, "_dgcd"), (0, 6, 64, "_hnf")])
def test_sweep_keys_reduce_no_ideal(monkeypatch, ring, n, budget, name):
    # a proper ideal keys only the blocks whose shifts its period divides,
    # and the unit ideal's g0 is 1, so no class key of a sweep reduces
    # J + (x^m - 1) to a smaller ideal: F_p keys take no gcd and Z keys
    # no Hermite form (the stream is built before the count starts)
    reps = [rep for _, rep, _ in conjugacy_classes(ring, n)]
    subs = list(split_subgroup_stream(ring, budget, {rep.shift for rep in reps}, 0))
    calls = []
    fn = getattr(laurent, name)
    monkeypatch.setattr(laurent, name, lambda *args: calls.append(args) or fn(*args))
    events, _ = depth._split_events(reps, subs)
    assert events and not calls


def test_sweep_skips_unit_ideal_on_blocks_of_one_shift(monkeypatch):
    # (1) x| tZ keys a class by its shift mod t alone, so it is read only
    # on blocks whose shifts differ; the whole group, at t = 1, is not
    # read at all
    calls = []
    key = depth.quotient_class_key
    monkeypatch.setattr(depth, "quotient_class_key", lambda *args: calls.append(1) or key(*args))
    rows = depth_sweep(2, 12, 4096)
    assert [r.max_split_depth for r in rows][-3:] == [448, 1024, 2304]
    assert len(calls) == 2022


def test_sweep_frozen_digests_larger():
    # rows as the full class-key matrix computed them, before the
    # partition refinement
    frozen = {
        (2, 10, 2048): ("9033c4893efac7f3704e76aca267a10627a5dddd1dcaf1e442d7485fd5a0c683",
                        [3, 3, 4, 8, 12, 32, 80, 80, 448, 448]),
        (3, 7, 2187): ("9e540322220a2eb81a970562bb01a007a832d07d11dc7a976131890927563ed7",
                       [3, 3, 4, 27, 81, 108, 405]),
        (0, 4, 24): ("59dd933bd0c2d0d0d0fd0a9ebe99ecef17afef629deee97f723a5527d4b4a198",
                     [3, 3, 4, 21]),
    }
    for (ring, n_max, budget), (digest, depths) in frozen.items():
        rows = depth_sweep(ring, n_max, budget)
        assert [r.max_split_depth for r in rows] == depths
        listed = repr([(r.n, r.max_split_depth, r.witness_pair_id, r.subgroup_descriptor)
                       for r in rows]).encode()
        assert hashlib.sha256(listed).hexdigest() == digest, (ring, n_max, budget)


def test_sweep_reaches_larger_balls():
    rows = depth_sweep(2, 12, 4096)
    assert [r.max_split_depth for r in rows][-3:] == [448, 1024, 2304]
    assert depth_sweep(3, 8, 2187)[-1].max_split_depth == 405


def test_sweep_budget_exhaustion_row():
    rows = depth_sweep(2, 1, budget=2)
    assert rows[0].max_split_depth == EXCEEDS_BUDGET
    assert rows[0].witness_pair_id
    assert rows[0].subgroup_descriptor == ""


def test_sweep_csv():
    rows = depth_sweep(2, 2, budget=8)
    text = sweep_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "n,max_split_depth,witness_pair_id,subgroup_descriptor,elapsed_ms"
    assert len(lines) == 3
    assert lines[1].startswith("1,3,")


def test_describe_subgroup():
    N = enumerate_split_subgroups_fp(2, 4)[0]
    assert describe_subgroup(N) == "F2: t=1, gen=1"
    M = enumerate_split_subgroups_z(6)[-1]
    assert describe_subgroup(M).startswith("Z: d=")
