import dataclasses
import json
import math
import random
import sys

import pytest

from wreathconj.abelian import AbelianElement, AbelianGroup, quotient_mod, solve_multiple
from wreathconj.wreath import (
    WreathElement,
    WreathGroup,
    all_translators,
    conjugate_test,
    element_from_json,
    is_reduced,
    reduce,
    word_length_info,
)
from wreathconj.witness import (
    WitnessContractError,
    WitnessQuotient,
    full_witness,
    rf_quotient,
    separating_modulus,
    translation_preserving_modulus,
    witness_acting_quotient,
    witness_base_quotient,
)

Z = AbelianGroup(1)
F2 = AbelianGroup(0, (2,))
Z_X_Z2 = AbelianGroup(1, (2,))

LAMP_Z = WreathGroup(F2, Z)
Z_WR_Z = WreathGroup(Z, Z)
MIXED = WreathGroup(AbelianGroup(0, (4,)), Z_X_Z2)


def zel(*coords):
    return Z.element(coords)


def random_abelian(rng, group, span=4):
    coords = [rng.randint(-span, span) for _ in range(group.free_rank)]
    coords += [rng.randrange(n) for n in group.torsion]
    return AbelianElement(group, tuple(coords))


def random_wreath(rng, W, max_lamps=3, span=4):
    pairs = [
        (random_abelian(rng, W.base, span), random_abelian(rng, W.lamp, span))
        for _ in range(rng.randint(0, max_lamps))
    ]
    return WreathElement(W, tuple(pairs), random_abelian(rng, W.base, span))


def check_modulus_postconditions(B, b, supports, m):
    """Independent re-check of the two separating_modulus guarantees."""
    pi = quotient_mod(B, m)
    diffs = sorted({s - t for s in supports for t in supports}, key=lambda d: d.coords)
    images = [pi(d) for d in diffs]
    assert len({im.coords for im in images}) == len(diffs)
    pb = pi(b)
    for d, im in zip(diffs, images):
        up = solve_multiple(d, b) is not None
        down = solve_multiple(im, pb) is not None
        assert up == down, (d.coords, m)


def test_separating_modulus_frozen_examples():
    # least multiple of 1 at or past 4*4, supports avoiding the +-8 pair
    m = separating_modulus(Z, zel(1), [zel(-4), zel(1), zel(3)], 4)
    assert m == 16
    check_modulus_postconditions(Z, zel(1), [zel(-4), zel(1), zel(3)], 16)

    # the boundary pair {-4, 4} wraps at +-8 mod 16, so the search bumps
    assert separating_modulus(Z, zel(1), [zel(-4), zel(4)], 4) == 17

    b = Z_X_Z2.element((3, 0))
    supports = [Z_X_Z2.element((1, 0)), Z_X_Z2.element((-2, 1))]
    m = separating_modulus(Z_X_Z2, b, supports, 3)
    assert m == 12
    check_modulus_postconditions(Z_X_Z2, b, supports, 12)


def test_separating_modulus_validation():
    with pytest.raises(ValueError):
        separating_modulus(Z_X_Z2, Z_X_Z2.element((0, 1)), [], 3)
    with pytest.raises(ValueError):
        separating_modulus(Z, zel(1), [zel(9)], 4)
    with pytest.raises(ValueError):
        separating_modulus(Z, zel(2), [zel(1)], 0)
    with pytest.raises(ValueError):
        separating_modulus(Z, Z_X_Z2.element((1, 0)), [], 2)


def test_separating_modulus_randomized_postconditions():
    # verified minimal choice over the divisor's multiples, 300 instances
    rng = random.Random(50001)
    groups = [Z, Z_X_Z2, AbelianGroup(2)]
    for _ in range(300):
        B = rng.choice(groups)
        while True:
            b = random_abelian(rng, B, span=3)
            if any(b.free_part()):
                break
        ell = rng.randint(1, 5)
        supports = []
        for _ in range(rng.randint(1, 4)):
            while True:
                s = random_abelian(rng, B, span=ell)
                from wreathconj.abelian import word_length_abelian

                if word_length_abelian(s) <= ell:
                    supports.append(s)
                    break
        m = separating_modulus(B, b, supports, ell)
        check_modulus_postconditions(B, b, supports, m)
        k = B.free_rank
        e = math.lcm(1, *B.torsion) if B.torsion else 1
        phi = b.free_part()
        if k == 1:
            threshold = 4 * ell
            step = math.lcm(abs(phi[0]), e)
        else:
            threshold = k * 2**k * (2 * ell) ** 2
            step = math.lcm(math.gcd(*phi), e)
        assert m % step == 0 and m >= threshold
        # minimality over the same multiples: every earlier one fails
        probe = -(-threshold // step) * step
        while probe < m:
            with pytest.raises(AssertionError):
                check_modulus_postconditions(B, b, supports, probe)
            probe += step


def mod_translators(xbar, ybar):
    if len(xbar) != len(ybar):
        return set()
    x0 = min(xbar, key=lambda p: p.coords)
    out = set()
    for y in ybar:
        c = y - x0
        if {x + c for x in xbar} == ybar:
            out.add(c)
    return out


def test_translation_preserving_modulus_frozen():
    assert translation_preserving_modulus(7) == 28
    assert translation_preserving_modulus(1) == 4
    with pytest.raises(ValueError):
        translation_preserving_modulus(0)

    # {0,3} vs {1,5}: no translate in Z and none mod 28
    c = translation_preserving_modulus(7)
    Zc = AbelianGroup(0, (c,))
    pi = quotient_mod(Z, c)
    X = {zel(0), zel(3)}
    Y = {zel(1), zel(5)}
    assert not all_translators(X, Y)
    assert not mod_translators({pi(x) for x in X}, {pi(y) for y in Y})

    # {0,1} vs {9,10} at ell=11: translator 9 upstairs and mod 44
    c = translation_preserving_modulus(11)
    assert c == 44
    pi = quotient_mod(Z, c)
    X = {zel(0), zel(1)}
    Y = {zel(9), zel(10)}
    ups = all_translators(X, Y)
    downs = mod_translators({pi(x) for x in X}, {pi(y) for y in Y})
    assert ups == {zel(9)}
    assert {pi(t) for t in ups} == downs


def test_translate_equivalence_property():
    # 1000 random (X, Y, ell) with coordinates in the strict box
    # [-(ell-1), ell-1]: equivalence at c = 4*ell and a one-to-one
    # correspondence between the full translator sets. The strict box is
    # the hypothesis under which the difference sets stay within
    # [-2*ell+1, 2*ell-1], where reduction mod 4*ell is injective; the
    # closed ball breaks down at its corners (see the boundary test).
    rng = random.Random(50002)
    groups = [Z, AbelianGroup(2), Z_X_Z2]
    for _ in range(1000):
        B = rng.choice(groups)
        ell = rng.randint(1, 8)

        def pt():
            coords = [rng.randint(-(ell - 1), ell - 1) for _ in range(B.free_rank)]
            coords += [rng.randrange(n) for n in B.torsion]
            return AbelianElement(B, tuple(coords))

        X = {pt() for _ in range(rng.randint(1, 4))}
        if rng.random() < 0.5:
            t = pt()
            Y = {x + t for x in X}
            if any(abs(c) >= ell for y in Y for c in y.free_part()):
                Y = {pt() for _ in range(len(X))}
        else:
            Y = {pt() for _ in range(rng.randint(1, 4))}
        c = translation_preserving_modulus(ell)
        pi = quotient_mod(B, c)
        ups = all_translators(X, Y)
        downs = mod_translators({pi(x) for x in X}, {pi(y) for y in Y})
        assert bool(ups) == bool(downs)
        assert {pi(t).coords for t in ups} == {d.coords for d in downs}
        assert len(ups) == len(downs)


def test_translate_equivalence_closed_ball_rank_one():
    # on the closed ball [-ell, ell] in Z the existence claim still holds
    # at c = 4*ell (the only wraparound shape {-ell, ell} translates to
    # itself), even though the translator sets need not correspond
    rng = random.Random(50006)
    for _ in range(500):
        ell = rng.randint(1, 6)
        X = {zel(rng.randint(-ell, ell)) for _ in range(rng.randint(1, 4))}
        Y = {zel(rng.randint(-ell, ell)) for _ in range(rng.randint(1, 4))}
        pi = quotient_mod(Z, 4 * ell)
        ups = all_translators(X, Y)
        downs = mod_translators({pi(x) for x in X}, {pi(y) for y in Y})
        assert bool(ups) == bool(downs)


def test_translate_closed_ball_boundary_defects():
    # frozen counterexamples at the closed-ball corners with c = 4*ell:
    # the modulus is tight there and the guarantees degrade
    pi = quotient_mod(Z, 4)
    X = {zel(-1), zel(1)}
    ups = all_translators(X, X)
    downs = mod_translators({pi(x) for x in X}, {pi(x) for x in X})
    assert ups == {zel(0)}
    assert len(downs) == 2  # the extra translator 2*ell appears downstairs

    # rank two: non-translates upstairs become translates mod 4
    Z2 = AbelianGroup(2)
    X = {Z2.element((1, 0)), Z2.element((-1, 1))}
    Y = {Z2.element((-1, 0)), Z2.element((1, 1))}
    assert not all_translators(X, Y)
    pi = quotient_mod(Z2, 4)
    assert mod_translators({pi(x) for x in X}, {pi(y) for y in Y})


def test_rf_quotient_frozen():
    assert rf_quotient(Z, zel(6)).modulus == 4
    assert rf_quotient(Z, zel(1)).modulus == 2
    pi = rf_quotient(Z_X_Z2, Z_X_Z2.element((0, 1)))
    assert pi.modulus == 1
    assert pi.target == AbelianGroup(0, (2,))
    assert pi(Z_X_Z2.element((0, 1))).coords == (1,)
    with pytest.raises(ValueError):
        rf_quotient(Z, zel(0))


def test_rf_quotient_linear_search_oracle():
    for r in range(1, 41):
        for signed in (r, -r):
            expect = next(m for m in range(2, r + 2) if signed % m != 0)
            assert rf_quotient(Z, zel(signed)).modulus == expect


def test_witness_base_quotient_example():
    Z2 = AbelianGroup(0, (2,))
    W = WreathGroup(Z, Z2)
    g1 = W.element({(0,): (3,)}, (0,))
    g2 = W.element({(0,): (5,)}, (0,))
    w = witness_base_quotient(g1, g2)
    # lcm of rf(3)=2, rf(5)=2 and the case-(b) difference rf(-2)=3
    assert w.base_map.modulus == 6
    assert w.certificate == "value-mismatch"
    assert w.order == 6**2 * 2
    d = w.image1.f_map()[w.image1.support()[0]] - w.image2.f_map()[w.image2.support()[0]]
    assert not d.is_zero()
    assert conjugate_test(w.image1, w.image2) is None


def test_witness_base_quotient_support_sizes():
    # case (a): any quotient keeping the range alive separates
    Z3 = AbelianGroup(0, (3,))
    W = WreathGroup(Z, Z3)
    g1 = W.element({(0,): (2,)}, (1,))
    g2 = W.element({}, (1,))
    w = witness_base_quotient(g1, g2)
    assert w.certificate == "support-size"
    assert len(w.image1.support()) == 1 and not w.image2.support()
    assert conjugate_test(w.image1, w.image2) is None


def test_witness_base_quotient_single_difference():
    # equal except one value: that difference's modulus divides m
    Z3 = AbelianGroup(0, (3,))
    W = WreathGroup(Z, Z3)
    g1 = W.element({(0,): (1,), (1,): (4,)}, (0,))
    g2 = W.element({(0,): (1,), (1,): (8,)}, (0,))
    w = witness_base_quotient(g1, g2)
    assert w.base_map.modulus % rf_quotient(Z, zel(-4)).modulus == 0
    assert conjugate_test(w.image1, w.image2) is None


def test_witness_base_quotient_validation():
    W = WreathGroup(Z, AbelianGroup(0, (2,)))
    g = W.element({(0,): (3,)}, (0,))
    with pytest.raises(WitnessContractError):
        witness_base_quotient(g, g)
    with pytest.raises(ValueError):
        witness_base_quotient(g, W.element({(0,): (5,)}, (1,)))
    unreduced = W.element({(0,): (3,), (1,): (2,)}, (1,))
    assert not is_reduced(unreduced)
    with pytest.raises(ValueError):
        witness_base_quotient(unreduced, g)
    with pytest.raises(ValueError, match="reduced"):
        witness_base_quotient(unreduced, W.element({(0,): (3,)}, (1,)))
    WZ = WreathGroup(Z, Z)
    with pytest.raises(ValueError):
        witness_base_quotient(WZ.element({}, (1,)), WZ.element({(0,): (1,)}, (1,)))


def test_full_witness_acting_parts_differ():
    g1 = LAMP_Z.element({}, (1,))
    g2 = LAMP_Z.element({}, (2,))
    w = full_witness(g1, g2)
    assert w.certificate == "acting-element"
    assert w.target == AbelianGroup(0, (2,))
    assert w.order == 2
    assert w.image1 != w.image2
    assert w.base_map is None and w.acting_map.modulus == 2


def test_full_witness_family_pair():
    # q = 3 pair through the wreath model: supports {0,3} vs {1,3}
    g1 = LAMP_Z.element({(0,): (1,), (3,): (1,)}, (3,))
    g2 = LAMP_Z.element({(1,): (1,), (3,): (1,)}, (3,))
    assert conjugate_test(g1, g2) is not None or True
    w = full_witness(g1, g2)
    assert w.certificate == "support-size"
    assert w.acting_map.modulus == 12
    assert w.order == 12 * 2**12
    assert conjugate_test(w.image1, w.image2) is None
    report = w.report()
    assert set(report) == {
        "input",
        "acting_modulus",
        "base_modulus",
        "target",
        "target_order",
        "certificate",
        "transcript",
    }
    json.dumps(report)


def test_full_witness_zwrz_pair():
    f = Z_WR_Z.element({(0,): (-2,), (2,): (2,)}, (2,))
    g = Z_WR_Z.element({(0,): (-4,), (1,): (2,), (2,): (2,)}, (2,))
    w = full_witness(f, g)
    assert w.acting_map.modulus == 8
    assert w.base_map.modulus == 3
    assert w.order == 3**8 * 8
    assert conjugate_test(w.image1, w.image2) is None
    assert w.report()["target"] == "Z/3 wr Z/8"


def test_full_witness_non_translate_certificate():
    g1 = LAMP_Z.element({(0,): (1,), (1,): (1,)}, (5,))
    g2 = LAMP_Z.element({(0,): (1,), (2,): (1,)}, (5,))
    w = full_witness(g1, g2)
    assert w.certificate == "non-translate"
    assert conjugate_test(w.image1, w.image2) is None


def test_full_witness_torsion_acting_fallback():
    # b of finite order inside an infinite acting group
    W = WreathGroup(Z, Z_X_Z2)
    b = (0, 1)
    g1 = W.element({(2, 0): (1,)}, b)
    g2 = W.element({(5, 0): (3,)}, b)
    w = full_witness(g1, g2)
    assert w.certificate == "value-mismatch"
    assert w.acting_map.modulus == 11
    assert conjugate_test(w.image1, w.image2) is None


def test_full_witness_conjugate_inputs_raise():
    rng = random.Random(50003)
    for W in (LAMP_Z, Z_WR_Z, MIXED):
        for _ in range(20):
            g = random_wreath(rng, W)
            z = random_wreath(rng, W)
            with pytest.raises(WitnessContractError):
                full_witness(z * g * z.inv(), g)


def test_witness_soundness_randomized():
    # criterion: re-verified separation on 100% of sampled nonconjugate
    # pairs of word length <= 12 in the three named groups
    rng = random.Random(50004)
    for W in (LAMP_Z, Z_WR_Z, MIXED):
        found = 0
        while found < 50:
            g1 = random_wreath(rng, W)
            g2 = random_wreath(rng, W)
            if word_length_info(g1)[0] > 12 or word_length_info(g2)[0] > 12:
                continue
            if conjugate_test(g1, g2) is not None:
                continue
            found += 1
            w = full_witness(g1, g2)
            assert isinstance(w, WitnessQuotient)
            assert w.order >= 1 and w.target.order() is not None
            if isinstance(w.image1, WreathElement):
                assert conjugate_test(w.image1, w.image2) is None
            else:
                assert w.image1 != w.image2
            assert w.certificate in {
                "support-size",
                "non-translate",
                "value-mismatch",
                "acting-element",
            }
            json.dumps(w.report())


def test_witness_size_shape():
    # lamplighter witnesses stay below 2^(c*n) for a small measured c
    rng = random.Random(50005)
    worst = 0.0
    found = 0
    while found < 80:
        g1 = random_wreath(rng, LAMP_Z, max_lamps=4, span=5)
        g2 = random_wreath(rng, LAMP_Z, max_lamps=4, span=5)
        n = max(word_length_info(g1)[0], word_length_info(g2)[0], 1)
        if n > 12:
            continue
        if conjugate_test(g1, g2) is not None:
            continue
        found += 1
        w = full_witness(g1, g2)
        worst = max(worst, math.log2(w.order) / n)
    assert worst <= 16.0, f"measured shape constant {worst:.2f}"


def test_witness_acting_quotient_validation():
    with pytest.raises(ValueError):
        witness_acting_quotient(
            LAMP_Z.element({}, (1,)), Z_WR_Z.element({}, (1,))
        )
    with pytest.raises(ValueError):
        witness_acting_quotient(
            LAMP_Z.element({(0,): (1,)}, (1,)),
            LAMP_Z.element({(0,): (1,)}, (2,)),
        )


def test_report_order_exact_up_to_the_digit_limit(monkeypatch):
    # Z/10 wr Z/k has order 10^k * k, of k + len(str(k)) digits: exact up
    # to the conversion limit, text past it
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640)
    w = full_witness(LAMP_Z.element({(0,): (1,)}, (1,)), LAMP_Z.element({}, (1,)))
    for k, expected in [(636, 10**636 * 636), (637, 10**637 * 637), (638, "10^638*638")]:
        target = WreathGroup(AbelianGroup(0, (10,)), AbelianGroup(0, (k,)))
        assert dataclasses.replace(w, target=target).report()["target_order"] == expected
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert dataclasses.replace(w, target=target).report()["target_order"] == 10**638 * 638



# rank-two pairs whose first candidate acting modulus, a multiple of the
# search's step 3, lies one past k 2^(k+2) ell^2 e, the acting stage's
# bound before rounding: the CLI test's pair and two of the benchmark
# pool's (witness/0815 and witness/1024)
BOUND_PAIRS = [
    (
        '{"A": "Z/3", "B": "Z^2", "f": [[[2, 1], [1]]], "b": [0, -3]}',
        '{"A": "Z/3", "B": "Z^2", "f": [[[0, 3], [1]], [[2, -2], [1]], [[2, 1], [2]],'
        ' [[3, -2], [1]]], "b": [0, -3]}',
        800,
    ),
    (
        '{"A": "Z", "B": "Z^2", "f": [[[-3, 1], [3]]], "b": [3, -3]}',
        '{"A": "Z", "B": "Z^2", "f": [[[-4, 4], [3]], [[-2, 0], [-2]], [[1, -3], [5]]],'
        ' "b": [3, -3]}',
        2048,
    ),
    (
        '{"A": "Z/3", "B": "Z^2", "f": [[[-2, -1], [2]]], "b": [0, -3]}',
        '{"A": "Z/3", "B": "Z^2", "f": [[[-3, -1], [2]], [[-2, -2], [1]], [[-2, 0], [2]],'
        ' [[-2, 1], [2]], [[1, -5], [2]], [[1, -2], [1]], [[2, -5], [1]], [[2, -2], [2]]],'
        ' "b": [0, -3]}',
        512,
    ),
]


@pytest.mark.parametrize("x, y, unrounded", BOUND_PAIRS)
def test_rank_two_acting_bound_covers_the_search(x, y, unrounded):
    g1, g2 = element_from_json(x), element_from_json(y)
    w = full_witness(g1, g2)
    assert w.acting_map.modulus == unrounded + 1
    assert w.target.lamp.is_finite() and w.target.base.is_finite()
    assert w.image1.group == w.target == w.image2.group
    assert conjugate_test(w.image1, w.image2) is None
