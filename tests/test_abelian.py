import math
import random

import pytest

from wreathconj.abelian import (
    AbelianElement,
    AbelianGroup,
    GroupMismatchError,
    element_order,
    format_element,
    format_group,
    parse_group,
    quotient_mod,
    solve_multiple,
    word_length_abelian,
)

GROUPS = [
    AbelianGroup(1),
    AbelianGroup(2),
    AbelianGroup(0, (6,)),
    AbelianGroup(1, (2,)),
    AbelianGroup(2, (4, 3)),
    AbelianGroup(0, (2, 2)),
]


def random_element(rng, group, span=40):
    coords = [rng.randint(-span, span) for _ in range(group.free_rank)]
    coords += [rng.randint(0, n - 1) for n in group.torsion]
    return AbelianElement(group, tuple(coords))


def test_group_axioms_randomized():
    # 12000 triples, spread over all sample groups
    rng = random.Random(9001)
    for _ in range(12000):
        g = rng.choice(GROUPS)
        a, b, c = (random_element(rng, g) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + g.zero() == a
        assert (a + (-a)).is_zero()
        assert a - b == a + (-b)


def test_torsion_coordinates_reduced():
    g = AbelianGroup(1, (4,))
    x = AbelianElement(g, (3, 7))
    assert x.coords == (3, 3)
    assert AbelianElement(g, (-2, -1)).coords == (-2, 3)


def test_mismatched_groups_rejected():
    a = AbelianGroup(1).zero()
    b = AbelianGroup(0, (2,)).zero()
    with pytest.raises(GroupMismatchError):
        a + b
    with pytest.raises(GroupMismatchError):
        a - b


def test_free_and_torsion_parts():
    g = AbelianGroup(2, (4, 3))
    x = AbelianElement(g, (5, -1, 6, 2))
    assert x.free_part() == (5, -1)
    assert x.torsion_part() == (2, 2)


def test_word_length_values():
    g = AbelianGroup(1, (5,))
    assert word_length_abelian(AbelianElement(g, (-3, 4))) == 3 + 1
    assert word_length_abelian(AbelianElement(g, (0, 2))) == 2
    assert word_length_abelian(g.zero()) == 0
    z2 = AbelianGroup(2)
    assert word_length_abelian(AbelianElement(z2, (3, -4))) == 7


def test_word_length_subadditive():
    rng = random.Random(9002)
    for _ in range(4000):
        g = rng.choice(GROUPS)
        a, b = random_element(rng, g), random_element(rng, g)
        assert word_length_abelian(a + b) <= word_length_abelian(a) + word_length_abelian(b)
        assert word_length_abelian(-a) == word_length_abelian(a)


def test_quotient_map_basics():
    g = AbelianGroup(1, (3,))
    pi = quotient_mod(g, 4)
    assert pi.target == AbelianGroup(0, (4, 3))
    assert pi(AbelianElement(g, (6, 2))).coords == (2, 2)
    assert pi(AbelianElement(g, (-1, 0))).coords == (3, 0)


def test_quotient_mod_one_collapses_free_part():
    g = AbelianGroup(2, (4,))
    pi = quotient_mod(g, 1)
    assert pi.target == AbelianGroup(0, (4,))
    assert pi(AbelianElement(g, (17, -5, 3))).coords == (3,)


def test_quotient_is_homomorphism():
    rng = random.Random(9003)
    for _ in range(4000):
        g = rng.choice(GROUPS)
        m = rng.randint(1, 12)
        pi = quotient_mod(g, m)
        a, b = random_element(rng, g), random_element(rng, g)
        assert pi(a + b) == pi(a) + pi(b)
        assert pi(-a) == -pi(a)


def test_quotient_target_order_exhaustive():
    # every target of order <= 10^4: the order formula matches a full enumeration
    cases = [
        (AbelianGroup(1), 7),
        (AbelianGroup(1, (2,)), 9),
        (AbelianGroup(2, (4, 3)), 5),
        (AbelianGroup(2), 12),
        (AbelianGroup(0, (6,)), 1),
        (AbelianGroup(1, (2, 2)), 1),
    ]
    for g, m in cases:
        target = quotient_mod(g, m).target
        expected = (m ** g.free_rank if m > 1 else 1) * math.prod(g.torsion)
        assert target.order() == expected
        assert expected <= 10**4
        seen = set(target.elements())
        assert len(seen) == expected


def brute_solve_multiple(s, b, span=250):
    for t in range(-span, span + 1):
        if t * b == s:
            return t
    return None


def test_solve_multiple_against_brute_force():
    rng = random.Random(9004)
    for _ in range(2500):
        g = rng.choice(GROUPS)
        b = random_element(rng, g, span=5)
        if rng.random() < 0.5:
            s = rng.randint(-7, 7) * b
        else:
            s = random_element(rng, g, span=5)
        t = solve_multiple(s, b)
        expected = brute_solve_multiple(s, b)
        if expected is None:
            assert t is None
        else:
            assert t is not None and t * b == s


def test_solve_multiple_unique_for_infinite_order():
    g = AbelianGroup(1, (4,))
    b = AbelianElement(g, (2, 1))
    s = AbelianElement(g, (6, 3))
    assert solve_multiple(s, b) == 3
    assert solve_multiple(AbelianElement(g, (6, 2)), b) is None
    assert solve_multiple(AbelianElement(g, (5, 3)), b) is None


def test_element_order():
    g = AbelianGroup(0, (4, 6))
    assert element_order(AbelianElement(g, (2, 3))) == 2
    assert element_order(AbelianElement(g, (1, 1))) == 12
    assert element_order(g.zero()) == 1
    h = AbelianGroup(1, (2,))
    assert element_order(AbelianElement(h, (1, 0))) is None
    assert element_order(AbelianElement(h, (0, 1))) == 2


def test_element_order_matches_brute_force():
    rng = random.Random(9005)
    for _ in range(600):
        g = rng.choice([AbelianGroup(0, (6,)), AbelianGroup(0, (4, 3)), AbelianGroup(0, (2, 2))])
        b = random_element(rng, g)
        n = element_order(b)
        assert n is not None and (n * b).is_zero()
        for d in range(1, n):
            assert not (d * b).is_zero()


def test_group_descriptor_round_trip():
    for g in GROUPS:
        assert parse_group(format_group(g)) == g
    assert format_group(AbelianGroup(0)) == "1"
    assert parse_group("1") == AbelianGroup(0)
    assert parse_group("Z^2 x Z/4 x Z/3") == AbelianGroup(2, (4, 3))
    assert parse_group("F2") == AbelianGroup(0, (2,))
    assert parse_group("Z") == AbelianGroup(1)
    with pytest.raises(ValueError):
        parse_group("Q")


def test_element_descriptor_round_trip():
    g = AbelianGroup(2, (4,))
    x = AbelianElement(g, (-3, 0, 2))
    assert format_element(x) == "[-3,0,2]"


def test_enumerate_infinite_group_rejected():
    with pytest.raises(ValueError):
        list(AbelianGroup(1).elements())
