import itertools
import json
import random

import pytest

from wreathconj import kernel, wreath
from wreathconj.abelian import (
    AbelianElement,
    AbelianGroup,
    GroupMismatchError,
    parse_group,
    quotient_mod,
    word_length_abelian,
)
from wreathconj.wreath import (
    WreathElement,
    WreathGroup,
    _walk_cost_dp,
    _walk_cost_line,
    all_translators,
    brute_force_conjugate,
    conjugate,
    conjugate_test,
    element_from_json,
    element_to_json,
    extend_quotient_acting,
    extend_quotient_base,
    inverse,
    is_reduced,
    multiply,
    reduce,
    word_length_info,
)

F2 = AbelianGroup(0, (2,))
Z = AbelianGroup(1)

LAMP_Z = WreathGroup(F2, Z)
Z_WR_Z = WreathGroup(Z, Z)
MIXED = WreathGroup(AbelianGroup(0, (4,)), AbelianGroup(1, (2,)))

SAMPLE_GROUPS = [LAMP_Z, Z_WR_Z, MIXED]


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


def test_group_axioms_randomized():
    # 3500 triples in each sample group
    rng = random.Random(20001)
    for W in SAMPLE_GROUPS:
        e = W.identity()
        for _ in range(3500):
            a, b, c = (random_wreath(rng, W) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * e == a and e * a == a
            assert a * a.inv() == e
            assert (a * b).inv() == b.inv() * a.inv()


def test_multiply_example():
    t = LAMP_Z.delta(0, 1, 1)
    sq = t * t
    assert sq == LAMP_Z.element([(0, (1,)), (1, (1,))], 2)
    assert inverse(sq) * sq == LAMP_Z.identity()


def test_conjugation_is_a_homomorphism():
    rng = random.Random(20010)
    for _ in range(400):
        W = rng.choice(SAMPLE_GROUPS)
        z = random_wreath(rng, W)
        g, h = random_wreath(rng, W), random_wreath(rng, W)
        assert conjugate(z, g * h) == conjugate(z, g) * conjugate(z, h)
        assert conjugate(z, g).b == g.b


# the five groups of the benchmark's witness workload
WITNESS_GROUPS = ["F2 wr Z", "Z wr Z", "Z/4 wr Z x Z/2", "Z wr Z^2", "Z/3 wr Z^2"]


def _group(text):
    return WreathGroup(*(parse_group(s) for s in text.split(" wr ")))


def test_conjugate_closed_form_matches_products():
    # (h + c.f - b.h, b) against (z g) z^-1, for z the identity, a pure
    # lamp configuration (c = 0), a pure translation (no lamps) and
    # general; test_kernel_round_trip_and_conjugation checks it against
    # the packed kernel's conjugation on two finite groups
    rng = random.Random(20013)
    for W in SAMPLE_GROUPS + [_group(text) for text in WITNESS_GROUPS]:
        zero = W.base.zero()
        for _ in range(60):
            g = random_wreath(rng, W, max_lamps=4)
            z = random_wreath(rng, W, max_lamps=4)
            for w in (W.identity(), WreathElement(W, z.pairs, zero), WreathElement(W, (), z.b), z):
                assert conjugate(w, g) == multiply(multiply(w, g), inverse(w))


def test_conjugate_test_exhaustive_against_brute_force():
    # every pair of three small groups; over Z/3 lamps the value-multiset
    # exit rejects pairs of equal support size
    for text in ("Z/2 wr Z/3", "Z/3 wr Z/2", "Z/2 wr Z/4"):
        W = _group(text)
        kern = kernel.kernel_for(W)
        elements = [kernel.decode(kern, W, eid) for eid in range(kern.order)]
        for g in elements:
            for h in elements:
                found = conjugate_test(g, h) is not None
                assert found == (brute_force_conjugate(g, h) is not None), (text, g, h)


def _lamp_sum(g):
    total = g.group.lamp.zero()
    for _, v in g.pairs:
        total = total + v
    return total


def test_lamp_sum_is_a_class_invariant():
    # (f, b) -> (sum of f, b) is a homomorphism onto A x B, so the lamp
    # sum adds under multiply and conjugation keeps it; the extra groups
    # have torsion in A, in B or in both
    rng = random.Random(20014)
    extra = [_group(text) for text in ("Z/4 wr Z x Z/2", "Z/3 wr Z^2", "F2 wr Z/4")]
    for W in SAMPLE_GROUPS + extra:
        for _ in range(150):
            g, h, z = (random_wreath(rng, W, max_lamps=4) for _ in range(3))
            assert _lamp_sum(multiply(g, h)) == _lamp_sum(g) + _lamp_sum(h)
            assert _lamp_sum(conjugate(z, g)) == _lamp_sum(g)
            assert wreath._lamp_sum(g) == _lamp_sum(g).coords


def test_conjugate_test_reduces_only_equal_lamp_sums(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return reduce(g)

    monkeypatch.setattr(wreath, "reduce", counted)
    W = _group("Z/3 wr Z^2")
    g = W.element({(0, 0): (1,), (2, 1): (1,)}, (1, 0))
    # one more lamp: the sums differ, so no reduction
    near = multiply(conjugate(W.delta((1, 1), (2,)), g), W.delta((5, 5), (1,)))
    assert conjugate_test(g, near) is None
    assert calls == []
    # equal sums, 1 + 1 = 2 + 2 + 1 in Z/3, but not conjugate
    apart = W.element({(0, 0): (2,), (0, 1): (2,), (3, 3): (1,)}, (1, 0))
    assert conjugate_test(g, apart) is None
    assert calls == [g, apart]


def test_cross_group_multiplication_rejected():
    with pytest.raises(GroupMismatchError):
        multiply(LAMP_Z.identity(), Z_WR_Z.identity())
    with pytest.raises(GroupMismatchError):
        WreathElement(LAMP_Z, ((Z.element(0), Z.element(1)),), Z.element(0))
    with pytest.raises(GroupMismatchError):
        WreathElement(LAMP_Z, (), F2.element(1))


def test_word_length_examples():
    assert word_length_info(LAMP_Z.delta(3, 1))[0] == 7
    assert word_length_info(LAMP_Z.delta(0, 1, 5))[0] == 6
    assert word_length_info(LAMP_Z.identity())[0] == 0
    g = Z_WR_Z.element([(3, (2,)), (-1, (-1,))], 0)
    assert word_length_info(g)[0] == 11
    # every lamp needs at least one generator, the walk visits every point
    rng = random.Random(20011)
    for _ in range(300):
        W = rng.choice(SAMPLE_GROUPS)
        g = random_wreath(rng, W)
        n, exact = word_length_info(g)
        assert exact
        assert n >= len(g.support())
        assert n >= word_length_abelian(g.b)


def test_walk_dp_matches_line_formula():
    rng = random.Random(20002)
    for _ in range(300):
        pts = [rng.randint(-6, 6) for _ in range(rng.randint(0, 5))]
        end = rng.randint(-6, 6)
        line = _walk_cost_line(pts, end)
        dp = _walk_cost_dp([Z.element((p,)) for p in pts], Z.element((end,)))
        assert dp == line


def _walk_cost_permutations(points, end):
    best = None
    zero = end.group.zero()
    for order in itertools.permutations(points):
        cur, total = zero, 0
        for p in order:
            total += word_length_abelian(p - cur)
            cur = p
        total += word_length_abelian(end - cur)
        if best is None or total < best:
            best = total
    return best


def test_walk_dp_matches_permutation_oracle():
    rng = random.Random(20003)
    base = AbelianGroup(1, (2,))
    for _ in range(150):
        pts = []
        seen = set()
        for _ in range(rng.randint(1, 5)):
            p = random_abelian(rng, base, span=5)
            if p.coords not in seen:
                seen.add(p.coords)
                pts.append(p)
        end = random_abelian(rng, base, span=5)
        assert _walk_cost_dp(pts, end) == _walk_cost_permutations(pts, end)


def test_word_length_wide_support_flagged():
    pairs = [((k, k % 2), (1,)) for k in range(14)]
    g = MIXED.element(pairs, (0, 0))
    n, exact = word_length_info(g)
    assert not exact
    assert n >= 14


def test_reduce_example():
    g = LAMP_Z.element([(0, (1,)), (2, (1,))], 2)
    assert not is_reduced(g)
    reduced, z = reduce(g)
    assert reduced == LAMP_Z.element([], 2)
    assert conjugate(z, g) == reduced
    assert is_reduced(reduced)


def test_reduce_randomized():
    rng = random.Random(20004)
    for _ in range(400):
        W = rng.choice(SAMPLE_GROUPS)
        g = random_wreath(rng, W, max_lamps=4)
        reduced, z = reduce(g)
        assert is_reduced(reduced)
        assert conjugate(z, g) == reduced
        assert reduced.b == g.b


def test_translators():
    z4 = AbelianGroup(0, (4,))
    xs = [z4.element((0,)), z4.element((2,))]
    ys = [z4.element((1,)), z4.element((3,))]
    assert all_translators(xs, ys) == {z4.element((1,)), z4.element((3,))}
    a = [Z.element((0,)), Z.element((2,))]
    b = [Z.element((5,)), Z.element((7,))]
    assert all_translators(a, b) == {Z.element((5,))}
    with pytest.raises(ValueError):
        all_translators([], ys)


def test_conjugate_test_frozen_cases():
    # same coset collapses to nothing vs two honest cosets
    g1 = LAMP_Z.element([(0, (1,)), (3, (1,))], 3)
    g2 = LAMP_Z.element([(1, (1,)), (3, (1,))], 3)
    assert conjugate_test(g1, g2) is None

    # plain translation
    g1 = LAMP_Z.delta(0, 1, 1)
    g2 = LAMP_Z.delta(5, 1, 1)
    w = conjugate_test(g1, g2)
    assert w is not None and conjugate(w, g1) == g2

    # same collapse maps but no support translation; the corrector
    # lives strictly inside one coset
    g1 = LAMP_Z.element([(0, (1,)), (1, (1,))], 2)
    g2 = LAMP_Z.element([(0, (1,)), (3, (1,))], 2)
    w = conjugate_test(g1, g2)
    assert w is not None and conjugate(w, g1) == g2

    # acting parts differ
    assert conjugate_test(LAMP_Z.delta(0, 1, 1), LAMP_Z.delta(0, 1, 2)) is None

    # lamp values differ and cannot be translated away
    g1 = Z_WR_Z.delta(0, 1, 2)
    g2 = Z_WR_Z.delta(0, 2, 2)
    assert conjugate_test(g1, g2) is None


def test_conjugate_test_finite_base_correction():
    W = WreathGroup(F2, AbelianGroup(0, (2, 2)))
    b = W.base.element((0, 1))
    g1 = W.element([((0, 0), (1,)), ((1, 0), (1,))], b)
    g2 = W.element([((0, 0), (1,)), ((1, 1), (1,))], b)
    w = conjugate_test(g1, g2)
    assert w is not None and conjugate(w, g1) == g2
    assert brute_force_conjugate(g1, g2) is not None


def test_conjugate_test_positive_randomized():
    rng = random.Random(20006)
    for _ in range(200):
        W = rng.choice(SAMPLE_GROUPS)
        g = random_wreath(rng, W)
        z = random_wreath(rng, W)
        h = conjugate(z, g)
        w = conjugate_test(g, h)
        assert w is not None
        assert conjugate(w, g) == h


def test_conjugate_test_matches_brute_force():
    rng = random.Random(20005)
    small = [
        WreathGroup(F2, AbelianGroup(0, (4,))),
        WreathGroup(AbelianGroup(0, (3,)), AbelianGroup(0, (3,))),
    ]
    for W in small:
        for i in range(70):
            g1 = random_wreath(rng, W, max_lamps=2)
            if i % 2:
                g2 = conjugate(random_wreath(rng, W, max_lamps=2), g1)
            else:
                g2 = random_wreath(rng, W, max_lamps=2)
            fast = conjugate_test(g1, g2)
            slow = brute_force_conjugate(g1, g2)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert conjugate(fast, g1) == g2


def test_brute_force_budget_refusal():
    W = WreathGroup(F2, AbelianGroup(0, (2, 2, 2, 2)))
    assert W.order() == 2**16 * 16
    with pytest.raises(ValueError):
        brute_force_conjugate(W.identity(), W.identity())
    with pytest.raises(ValueError):
        brute_force_conjugate(LAMP_Z.identity(), LAMP_Z.identity())


def test_extend_quotient_acting_example():
    g = Z_WR_Z.element([(0, (2,)), (3, (5,))], 1)
    pi = quotient_mod(Z, 3)
    image = extend_quotient_acting(g, pi)
    target = WreathGroup(Z, pi.target)
    assert image == target.element([((0,), (7,))], (1,))


def test_extend_quotient_acting_homomorphism():
    rng = random.Random(20007)
    pi2 = quotient_mod(Z, 2)
    pi_mix = quotient_mod(MIXED.base, 3)
    for _ in range(300):
        W, pi = rng.choice([(Z_WR_Z, pi2), (LAMP_Z, pi2), (MIXED, pi_mix)])
        g, h = random_wreath(rng, W), random_wreath(rng, W)
        assert extend_quotient_acting(g * h, pi) == extend_quotient_acting(
            g, pi
        ) * extend_quotient_acting(h, pi)


def test_extend_quotient_base_example_and_homomorphism():
    g = Z_WR_Z.element([(0, (2,)), (3, (5,))], 1)
    pi = quotient_mod(Z, 2)
    image = extend_quotient_base(g, pi)
    target = WreathGroup(pi.target, Z)
    assert image == target.element([((3,), (1,))], (1,))
    rng = random.Random(20012)
    for _ in range(300):
        a, b = random_wreath(rng, Z_WR_Z), random_wreath(rng, Z_WR_Z)
        assert extend_quotient_base(a * b, pi) == extend_quotient_base(
            a, pi
        ) * extend_quotient_base(b, pi)


def test_json_round_trip():
    rng = random.Random(20008)
    for _ in range(100):
        W = rng.choice(SAMPLE_GROUPS)
        g = random_wreath(rng, W)
        text = element_to_json(g)
        assert element_from_json(text) == g
    doc = json.loads(element_to_json(MIXED.delta((2, 1), (3,), (0, 1))))
    assert doc["A"] == "Z/4" and doc["B"] == "Z x Z/2"


def test_json_rejects_malformed_documents():
    good = json.loads(element_to_json(LAMP_Z.delta(0, 1, 1)))
    for field in ("A", "B", "f", "b"):
        bad = dict(good)
        del bad[field]
        with pytest.raises(ValueError):
            element_from_json(bad)
    bad = dict(good)
    bad["f"] = [[0], [1]]
    with pytest.raises(ValueError):
        element_from_json(bad)
    bad = dict(good)
    bad["f"] = [[[0], [1]], [[0], [1]]]
    with pytest.raises(ValueError):
        element_from_json(bad)
    bad = dict(good)
    bad["f"] = [[[0], [0]]]
    with pytest.raises(ValueError):
        element_from_json(bad)
    # coordinates other than lists of integers (bool included), and a
    # non-list "f"
    for field, value in [
        ("f", 3), ("f", None), ("b", 3), ("b", "1"), ("b", [1.5]), ("b", [True]), ("b", {"1": 1}),
        ("f", [[0, [1]]]), ("f", [[[0], 1]]), ("f", [[[0], ["a"]]]), ("f", [[[1.0], [1]]]),
        ("f", [[[0], [False]]]), ("A", 2), ("B", None),
    ]:
        with pytest.raises(ValueError):
            element_from_json({**good, field: value})
    for doc in ("[1]", "3", '"A B f b"'):
        with pytest.raises(ValueError):
            element_from_json(doc)


def test_kernel_round_trip_and_conjugation():
    rng = random.Random(20009)
    for W in (
        WreathGroup(F2, AbelianGroup(0, (4,))),
        WreathGroup(AbelianGroup(0, (3,)), AbelianGroup(0, (3,))),
    ):
        kern = kernel.kernel_for(W)
        assert kern.order == W.order()
        for eid in range(kern.order):
            assert kernel.encode(kern, kernel.decode(kern, W, eid)) == eid
        for _ in range(300):
            gid = rng.randrange(kern.order)
            zid = rng.randrange(kern.order)
            g = kernel.decode(kern, W, gid)
            z = kernel.decode(kern, W, zid)
            assert kernel.decode(kern, W, kern.conjugate(gid, zid)) == conjugate(z, g)


def test_kernel_class_table():
    W = WreathGroup(F2, AbelianGroup(0, (2,)))
    kern = kernel.kernel_for(W)
    table = kern.conjugacy_class_table()
    assert len(table) == 8
    for gid in range(kern.order):
        assert table[table[gid]] == table[gid]
        assert table[gid] <= gid
        for hid in range(kern.order):
            same = table[gid] == table[hid]
            assert same == (kern.find_conjugator(gid, hid) is not None)


def test_kernel_rejects_infinite_groups():
    with pytest.raises(ValueError):
        kernel.kernel_for(LAMP_Z)


def test_kernel_refuses_oversize():
    # tables of |A|^2 + |B|^2 entries are refused before any is built
    W = WreathGroup(AbelianGroup(0, (2,) * 40), AbelianGroup(0, (2,) * 20))
    with pytest.raises(ValueError):
        kernel.kernel_for(W)
    # order 10^6 is within the brute-force budget; |A|^2 = 10^12 is not
    W = WreathGroup(AbelianGroup(0, (10**6,)), AbelianGroup(0, ()))
    assert W.order() == 10**6
    with pytest.raises(ValueError):
        brute_force_conjugate(W.identity(), W.identity())
