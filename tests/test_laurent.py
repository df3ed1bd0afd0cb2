import dataclasses
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys

import pytest

from wreathconj import laurent
from wreathconj.laurent import (
    ContractError,
    FpSplitSubgroup,
    LaurentPoly,
    SemidirectElement,
    ZSplitSubgroup,
    conjugate_in_split_quotient,
    enumerate_split_subgroups_fp,
    enumerate_split_subgroups_z,
    first_unit_shifts,
    format_laurent,
    format_semidirect,
    from_wreath,
    image_in_split_quotient,
    is_irreducible_fp,
    is_prime,
    mod_ideal_reduce,
    one_poly,
    parse_laurent,
    parse_ring,
    parse_semidirect,
    poly_add,
    poly_mul,
    poly_neg,
    poly_shift,
    poly_sub,
    primitive_root_primes,
    psi_poly,
    quotient_class_key,
    same_conjugacy_class,
    semidirect_conjugate,
    semidirect_identity,
    semidirect_inv,
    semidirect_mul,
    split_subgroup_stream,
    to_wreath,
    verify_mod_ideal,
    wreath_group_for_ring,
    x_power,
    xt_minus_1,
    zero_poly,
)
from wreathconj.laurent import (
    _coindex,
    _crt_join,
    _cyclotomic,
    _cyclotomic_factors,
    _ddivmod,
    _dirreducible,
    _divisors,
    _dmul,
    _laurent_div,
    _dpow_x,
    _elements,
    _orders,
    _prime_factors,
    _rotate,
    _trim,
)
from wreathconj.depth import split_conjugacy_depth
from wreathconj.wreath import conjugate, conjugate_test, multiply


def random_poly(rng, ring, span=6, terms=4, coeff=5):
    pairs = []
    for _ in range(rng.randrange(terms + 1)):
        c = rng.randrange(1, ring) if ring else rng.choice([c for c in range(-coeff, coeff + 1) if c])
        pairs.append((rng.randrange(-span, span + 1), c))
    return LaurentPoly(ring, tuple(pairs))


def test_ring_axioms_randomized():
    rng = random.Random(40001)
    for ring in (0, 2, 3, 5):
        for _ in range(400):
            a = random_poly(rng, ring)
            b = random_poly(rng, ring)
            c = random_poly(rng, ring)
            assert poly_add(a, b) == poly_add(b, a)
            assert poly_mul(a, b) == poly_mul(b, a)
            assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
            assert poly_mul(poly_add(a, b), c) == poly_add(poly_mul(a, c), poly_mul(b, c))
            assert poly_add(a, zero_poly(ring)) == a
            assert poly_mul(a, one_poly(ring)) == a
            assert poly_add(a, poly_neg(a)).is_zero()
            m = rng.randrange(-4, 5)
            assert poly_shift(a, m) == poly_mul(a, x_power(ring, m))
            assert poly_shift(a, 0) == a


def test_product_example():
    for ring in (0, 2):
        lhs = poly_mul(
            parse_laurent("x - 1", ring), LaurentPoly(ring, ((0, 1), (1, 1), (2, 1)))
        )
        assert lhs == parse_laurent("x^3 - 1", ring)


def test_fp_coefficients_are_reduced():
    P = LaurentPoly(2, ((0, 3), (1, 2), (5, -1)))
    assert P.coeffs == ((0, 1), (5, 1))
    with pytest.raises(ValueError):
        LaurentPoly(4, ((0, 1),))
    with pytest.raises(ValueError):
        poly_add(LaurentPoly(2, ((0, 1),)), LaurentPoly(3, ((0, 1),)))


def test_parse_and_format():
    assert format_laurent(parse_laurent("x^3 - 1", 0)) == "x^3 - 1"
    P = parse_laurent("2*x^-2 + 3", 0)
    assert P.coeffs == ((-2, 2), (0, 3))
    assert format_laurent(P) == "3 + 2*x^-2"
    assert parse_laurent(format_laurent(P), 0) == P
    assert format_laurent(parse_laurent("0", 0)) == "0"
    assert parse_laurent("-x + 4", 0).coeffs == ((0, 4), (1, -1))
    assert parse_laurent("x", 0).coeffs == ((1, 1),)
    assert parse_laurent("x^2+x^2", 0).coeffs == ((2, 2),)
    rng = random.Random(40002)
    for _ in range(300):
        ring = rng.choice([0, 2, 5])
        P = random_poly(rng, ring)
        assert parse_laurent(format_laurent(P), ring) == P
    for bad in ("", "x^", "y + 1", "2**", "+", "1 + + 2", "x^3.5"):
        with pytest.raises(ValueError):
            parse_laurent(bad, 0)


def test_parse_ring():
    assert parse_ring("z") == 0
    assert parse_ring("F2") == 2
    assert parse_ring("f11") == 11
    for bad in ("f4", "q", "f"):
        with pytest.raises(ValueError):
            parse_ring(bad)


def test_semidirect_round_trip_and_group_law():
    g = parse_semidirect("(x^3 - 1, 3)", 2)
    assert g.shift == 3 and g.poly == parse_laurent("x^3 - 1", 2)
    assert parse_semidirect(format_semidirect(g), 2) == g
    rng = random.Random(40014)
    for ring in (0, 3):
        e = semidirect_identity(ring)
        for _ in range(300):
            a = SemidirectElement(random_poly(rng, ring), rng.randrange(-4, 5))
            b = SemidirectElement(random_poly(rng, ring), rng.randrange(-4, 5))
            c = SemidirectElement(random_poly(rng, ring), rng.randrange(-4, 5))
            assert semidirect_mul(semidirect_mul(a, b), c) == semidirect_mul(
                a, semidirect_mul(b, c)
            )
            assert semidirect_mul(a, semidirect_inv(a)) == e
            assert semidirect_mul(e, a) == a


def test_wreath_isomorphism():
    W2 = wreath_group_for_ring(2)
    f = W2.element([(0, 1), (2, 1)], 3)
    s = from_wreath(f)
    assert s == SemidirectElement(parse_laurent("1 + x^2", 2), 3)
    assert to_wreath(s) == f
    assert from_wreath(W2.identity()) == semidirect_identity(2)

    rng = random.Random(40003)
    for ring in (0, 2):
        W = wreath_group_for_ring(ring)
        for _ in range(5000):
            sa = SemidirectElement(random_poly(rng, ring), rng.randrange(-3, 4))
            sb = SemidirectElement(random_poly(rng, ring), rng.randrange(-3, 4))
            ga, gb = to_wreath(sa), to_wreath(sb)
            assert from_wreath(ga) == sa
            assert from_wreath(multiply(ga, gb)) == semidirect_mul(sa, sb)


def test_wreath_isomorphism_shape_rejection():
    from wreathconj.abelian import AbelianGroup
    from wreathconj.wreath import WreathGroup

    for lamp, base in (
        (AbelianGroup(0, (4,)), AbelianGroup(1)),
        (AbelianGroup(2), AbelianGroup(1)),
        (AbelianGroup(1), AbelianGroup(2)),
        (AbelianGroup(1), AbelianGroup(0, (2,))),
    ):
        with pytest.raises(ValueError):
            from_wreath(WreathGroup(lamp, base).identity())


def test_same_conjugacy_class_examples():
    g = parse_semidirect("(x - 1, 2)", 0)
    ell, Q = same_conjugacy_class(g, g)
    assert ell == 0 and Q.is_zero()

    shifted = SemidirectElement(
        poly_add(g.poly, poly_mul(xt_minus_1(0, 2), parse_laurent("7", 0))), 2
    )
    assert same_conjugacy_class(g, shifted) == (0, parse_laurent("7", 0))

    f3 = parse_semidirect("(x^3 - 1, 3)", 2)
    g3 = parse_semidirect("(x - 1 + x^3 - 1, 3)", 2)
    assert same_conjugacy_class(f3, g3) is None

    assert same_conjugacy_class(
        parse_semidirect("(1, 2)", 0), parse_semidirect("(1, 3)", 0)
    ) is None


def test_same_conjugacy_class_shift_zero():
    a = SemidirectElement(parse_laurent("x^2", 0), 0)
    b = SemidirectElement(parse_laurent("x^5", 0), 0)
    assert same_conjugacy_class(a, b) == (3, zero_poly(0))
    c = SemidirectElement(parse_laurent("x + 1", 0), 0)
    d = SemidirectElement(parse_laurent("x^2 + x", 0), 0)
    assert same_conjugacy_class(c, d) == (1, zero_poly(0))
    assert same_conjugacy_class(c, SemidirectElement(parse_laurent("x + 2", 0), 0)) is None
    z = SemidirectElement(zero_poly(0), 0)
    assert same_conjugacy_class(z, z) == (0, zero_poly(0))
    assert same_conjugacy_class(z, c) is None


def test_same_conjugacy_class_certificates_randomized():
    rng = random.Random(40004)
    hits = 0
    for _ in range(400):
        ring = rng.choice([0, 2, 3])
        m = rng.choice([-3, -2, -1, 1, 2, 3, 4])
        P = random_poly(rng, ring)
        ell0 = rng.randrange(-3, 4)
        Q0 = random_poly(rng, ring)
        g1 = SemidirectElement(P, m)
        g2 = SemidirectElement(
            poly_add(poly_shift(P, ell0), poly_mul(xt_minus_1(ring, m), Q0)), m
        )
        cert = same_conjugacy_class(g1, g2)
        assert cert is not None
        ell, Q = cert
        assert 0 <= ell < abs(m)
        assert poly_add(poly_shift(g1.poly, ell), poly_mul(xt_minus_1(ring, m), Q)) == g2.poly
        hits += 1
    assert hits == 400


def same_class_by_division(g1, g2):
    """The certificate search by one division per rotation, for m != 0:
    the least l in [0, |m|) with x^l P1 - P2 divisible by x^m - 1."""
    E = xt_minus_1(g1.poly.ring, g1.shift)
    for ell in range(abs(g1.shift)):
        Q = _laurent_div(poly_sub(g2.poly, poly_shift(g1.poly, ell)), E)
        if Q is not None:
            return ell, Q
    return None


def test_same_conjugacy_class_matches_division_oracle():
    # the folded search must find the same least rotation and the same
    # cofactor as dividing afresh for every rotation
    rng = random.Random(40006)
    found = {True: 0, False: 0}
    for ring in (2, 3, 5, 0):
        for trial in range(300):
            m = rng.choice([-7, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 7])
            P1 = random_poly(rng, ring, span=9, terms=5, coeff=3)
            if trial % 2:
                Q0 = random_poly(rng, ring, span=4, terms=3, coeff=3)
                P2 = poly_add(poly_shift(P1, rng.randrange(-9, 10)),
                              poly_mul(xt_minus_1(ring, m), Q0))
            else:
                P2 = random_poly(rng, ring, span=9, terms=5, coeff=3)
            g1, g2 = SemidirectElement(P1, m), SemidirectElement(P2, m)
            got = same_conjugacy_class(g1, g2)
            assert got == same_class_by_division(g1, g2)
            found[got is not None] += 1
    assert min(found.values()) > 100


def test_same_conjugacy_class_large_shift():
    # one fold and one division: linear in |m|, not quadratic
    m = 1 << 16
    one = SemidirectElement(one_poly(2), m)
    assert same_conjugacy_class(one, SemidirectElement(zero_poly(2), m)) is None
    far = SemidirectElement(poly_add(x_power(2, m + 5), x_power(2, 3 * m)), -m)
    near = SemidirectElement(poly_add(x_power(2, 5), one_poly(2)), -m)
    ell, Q = same_conjugacy_class(near, far)
    assert ell == 0
    assert poly_add(near.poly, poly_mul(xt_minus_1(2, -m), Q)) == far.poly


def test_same_conjugacy_class_checks_its_certificate(monkeypatch):
    g = parse_semidirect("(x + 1, 3)", 2)
    monkeypatch.setattr(laurent, "_laurent_div", lambda D, E: one_poly(D.ring))
    with pytest.raises(ContractError):
        same_conjugacy_class(g, g)


def test_same_conjugacy_class_matches_wreath_criterion():
    rng = random.Random(40005)
    for ring in (2, 0):
        W = wreath_group_for_ring(ring)
        for trial in range(150):
            m = rng.randrange(-3, 4)
            s1 = SemidirectElement(random_poly(rng, ring, span=3, terms=3, coeff=2), m)
            if trial % 2:
                z = SemidirectElement(random_poly(rng, ring, span=3, terms=3, coeff=2),
                                      rng.randrange(-3, 4))
                s2 = semidirect_conjugate(z, s1)
            else:
                s2 = SemidirectElement(random_poly(rng, ring, span=3, terms=3, coeff=2), m)
            got = same_conjugacy_class(s1, s2)
            witness = conjugate_test(to_wreath(s1), to_wreath(s2))
            assert (got is None) == (witness is None)
            if witness is not None:
                assert conjugate(witness, to_wreath(s1)) == to_wreath(s2)
            if got is not None:
                ell, Q = got
                assert poly_add(
                    poly_shift(s1.poly, ell), poly_mul(xt_minus_1(ring, m), Q)
                ) == s2.poly


def test_enumerate_fp_small():
    subs = enumerate_split_subgroups_fp(2, 2)
    assert [(N.t, format_laurent(N.gen), N.index) for N in subs] == [
        (1, "1", 1),
        (1, "x + 1", 2),
        (2, "1", 2),
    ]
    assert subs == enumerate_split_subgroups_fp(2, 2)

    subs24 = enumerate_split_subgroups_fp(2, 24)
    at_t3 = [N for N in subs24 if N.t == 3]
    assert len(at_t3) == 4
    assert sorted(N.gen.degree for N in at_t3) == [0, 1, 2, 3]


def test_enumerate_fp_contract():
    for p, max_index in ((2, 16), (3, 18), (5, 10)):
        subs = enumerate_split_subgroups_fp(p, max_index)
        assert all(x.index <= y.index for x, y in zip(subs, subs[1:]))
        assert subs[0].t == 1 and subs[0].gen == one_poly(p) and subs[0].index == 1
        seen = set()
        for N in subs:
            key = (N.t, N.gen.coeffs)
            assert key not in seen
            seen.add(key)
            assert N.index == N.t * p**N.gen.degree <= max_index
            assert N.gen.coeff(0) != 0 and N.gen.coeffs[-1][1] == 1
            assert N.contains(xt_minus_1(p, N.t))


def test_enumerate_fp_against_trial_division():
    # oracle: try every monic polynomial with nonzero constant term directly
    for p, max_index in ((2, 16), (3, 27), (5, 25)):
        expected = set()
        for t in range(1, max_index + 1):
            dmax = 0
            while t * p ** (dmax + 1) <= max_index:
                dmax += 1
            expected.add((t, one_poly(p).coeffs))
            for deg in range(1, dmax + 1):
                for c0 in range(1, p):
                    for tail in itertools.product(range(p), repeat=deg - 1):
                        cand = LaurentPoly(
                            p,
                            ((0, c0), *((i + 1, c) for i, c in enumerate(tail)), (deg, 1)),
                        )
                        quot, rem = divmod_oracle(xt_minus_1(p, t), cand, p)
                        if rem:
                            continue
                        expected.add((t, cand.coeffs))
        got = {(N.t, N.gen.coeffs) for N in enumerate_split_subgroups_fp(p, max_index)}
        assert got == expected


def test_enumerate_fp_frozen_lists():
    # lengths and SHA-256 of [(t, gen.coeffs), ...] as the trial-division
    # enumerator (one irreducibility test per monic polynomial and t)
    # produced them; these budgets reach reducible polynomials whose
    # degree equals ord_e(p) for the lcm e of their factors' orders
    frozen = {
        (2, 2048): (3999, "675589a9b90773efd618f5e2bbbb9b7a2a7b8de939e21c7d62a9148d5778c23b"),
        (3, 2187): (3914, "5da9b251364d8dc01b9426de4eed1e1446e4a93de88fa10adfc14a50001b107c"),
        (5, 1024): (1579, "a75f0b58bafd74c3bba48371b2ec27c9a9c165f788067539cc1b6a5419728d53"),
    }
    for (p, max_index), (count, digest) in frozen.items():
        subs = enumerate_split_subgroups_fp(p, max_index)
        listed = repr([(N.t, N.gen.coeffs) for N in subs]).encode()
        assert (len(subs), hashlib.sha256(listed).hexdigest()) == (count, digest)


def test_fp_subgroup_membership_against_division():
    # the constructor accepts (t, P) iff P divides x^t - 1
    for p, dmax, tmax in ((2, 5, 24), (3, 3, 12)):
        for deg in range(1, dmax + 1):
            for c0 in range(1, p):
                for tail in itertools.product(range(p), repeat=deg - 1):
                    gen = LaurentPoly(
                        p, ((0, c0), *((i + 1, c) for i, c in enumerate(tail)), (deg, 1))
                    )
                    for t in range(1, tmax + 1):
                        _, rem = divmod_oracle(xt_minus_1(p, t), gen, p)
                        if rem:
                            with pytest.raises(ValueError):
                                FpSplitSubgroup(p, t, gen)
                        else:
                            assert FpSplitSubgroup(p, t, gen).contains(xt_minus_1(p, t))


def test_dpow_x_against_division():
    rng = random.Random(7)
    for p in (2, 3, 5, 7):
        for _ in range(150):
            deg = rng.randrange(0, 7)
            mod = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            e = rng.randrange(300)
            den = LaurentPoly(p, tuple(enumerate(mod)))
            _, rem = divmod_oracle(LaurentPoly(p, ((e, 1),)), den, p)
            expected = [rem.get(i, 0) for i in range(max(rem, default=-1) + 1)]
            assert _dpow_x(e, mod, p) == expected


# a budget past the index of every divisor of x^g - 1 for g <= 60
NO_BOUND = 10**100


def _dense(f, p):
    return LaurentPoly(p, tuple(enumerate(f)))


def _power(P, k):
    out = one_poly(P.ring)
    for _ in range(k):
        out = poly_mul(out, P)
    return out


def _p_free(g, p):
    """(g', p^a) with g = p^a * g', p not dividing g'."""
    cap = 1
    while g % p == 0:
        g, cap = g // p, cap * p
    return g, cap


def _least_power(p, k):
    return next(p**a for a in itertools.count() if p**a >= k)


def test_divisors_up_to_bound():
    for n in range(1, 300):
        for bound in (1, 2, 7, 30, n // 2 + 1, n, n + 1):
            assert sorted(_divisors(n, bound)) == [d for d in range(1, bound + 1) if n % d == 0]
    # trial division stops at the bound: 2^61 - 1 is prime
    assert _prime_factors(6 * (2**61 - 1), 100) == [2, 3]
    assert sorted(_divisors(6 * (2**61 - 1), 100)) == [1, 2, 3, 6]


def _factor_degree(p, e, max_index):
    """The order scan `_orders` replaces: ord_e(p), the degree of the
    irreducible factors of Phi_e over F_p, or 0 when p divides e or
    e * p^ord_e(p) exceeds max_index."""
    if e % p == 0 or e * p > max_index:
        return 0
    deg, power = 1, p % e
    while power != 1 % e and e * p ** (deg + 1) <= max_index:
        deg, power = deg + 1, power * p % e
    return deg if power == 1 % e else 0


def test_orders_match_the_degree_scan():
    # the (order, degree) pairs of the factors of x^n - 1 (of every
    # x^t - 1 when n = 0) that fit budget K: scanned order by order up to
    # K // p, as the stream once did, and listed by degree by `_orders`
    for p in (2, 3, 5, 7):
        for K in (1, p, 10, 100, 1000, 4096, 3**9, 12345, 10**5):
            degrees = list(itertools.takewhile(lambda d: p**d <= K, itertools.count(1)))
            for n in range(61):
                n1 = _p_free(n, p)[0] if n else 0
                scanned = range(1, (min(n1, K // p) if n else K // p) + 1)
                old = [(e, d) for e in scanned if (not n1 or n1 % e == 0)
                       and (d := _factor_degree(p, e, K))]
                new = [(e, d) for d in degrees for e in _orders(p, n, d, K // p**d)]
                assert sorted(new) == old, (p, K, n)
                assert all(e * p**d <= K for e, d in new)


def _irreducibles_of_order(p, e):
    """The irreducible factors of Phi_e over F_p, p not dividing e: those
    of `_cyclotomic_factors` at the one degree d whose `_orders` hold e."""
    d = next(d for d in itertools.count(1) if e in _orders(p, e, d, e))
    return _cyclotomic_factors(p, e, d)


def test_irreducibles_of_order():
    # x^g - 1 = (prod over e | g' of Phi_e)^(p^a), g = p^a * g', and Phi_e
    # is the product of phi(e) / ord_e(p) irreducibles of degree
    # ord_e(p) and order e
    irreducible = {}
    for p in (2, 3, 5, 7):
        for g in range(1, 61):
            g1, cap = _p_free(g, p)
            product = one_poly(p)
            for e in range(1, g1 + 1):
                if g1 % e:
                    continue
                of_e = _irreducibles_of_order(p, e)
                if e in (7, 21, 31):
                    # the deterministic splitting gives the same list on every call
                    assert _irreducibles_of_order(p, e) == of_e
                order = next(d for d in range(1, e + 1) if pow(p, d, e) == 1 % e)
                phi = sum(1 for r in range(1, e + 1) if math.gcd(r, e) == 1)
                assert len(of_e) == phi // order
                for f in of_e:
                    assert f[-1] == 1 and len(f) - 1 == order
                    assert _dpow_x(e, f, p) == [1]
                    key = (p, tuple(f))
                    if key not in irreducible:
                        irreducible[key] = _dirreducible(f, p)
                    assert irreducible[key]
                    product = poly_mul(product, _power(_dense(f, p), cap))
            assert product == xt_minus_1(p, g)
    # Phi_7 over F_2 is the product of the two irreducible cubics
    assert _irreducibles_of_order(2, 7) == [[1, 0, 1, 1], [1, 1, 0, 1]]


def test_cyclotomic_factors_match_irreducibles_of_order():
    # oracle: for every reducible Phi_e of degree-d factors with
    # p^d <= 1024, the factors are the monic irreducibles of degree d
    # and order exactly e, found by testing every monic polynomial
    checked = 0
    for p in (2, 3, 5):
        for d in itertools.takewhile(lambda d: p**d <= 1024, itertools.count(1)):
            by_order = {}
            for tail in itertools.product(range(p), repeat=d):
                f = [*tail, 1]
                if f[0] and _dirreducible(f, p):
                    e = min(e for e in _divisors(p**d - 1, p**d) if _dpow_x(e, f, p) == [1])
                    by_order.setdefault(e, []).append(f)
            for e, irreducibles in by_order.items():
                if len(irreducibles) > 1:
                    assert _cyclotomic_factors(p, e, d) == sorted(irreducibles), (p, e)
                    checked += 1
    assert checked == 54


def test_split_equal_degree_refuses_a_square():
    # the square g^2 of a cubic factor g of Phi_7 over F2 is not
    # squarefree: T_k - c is a unit mod g for all but one c, so each k
    # gives at most one nontrivial gcd, nothing splits, and the loop
    # ends at k = 2d
    f = [1, 0, 1, 1]
    with pytest.raises(ContractError):
        laurent._split_equal_degree(_dmul(f, f, 2), 3, 2)


def test_pair_split_subgroups_fp_power_caps():
    # f^k, f of order e and degree d, is a candidate of shifts (g, g) iff
    # k <= p^a and its index e * (least power of p >= k) * p^(k d) fits
    for p in (2, 3, 5):
        for g in range(1, 61):
            g1, cap = _p_free(g, p)
            powers = []  # (f^k, index of (f^k) x| t0 Z)
            for e in range(1, g1 + 1):
                if g1 % e:
                    continue
                for f in _irreducibles_of_order(p, e):
                    for k in range(1, cap + 1):
                        index = e * _least_power(p, k) * p ** (k * (len(f) - 1))
                        powers.append((_power(_dense(f, p), k), index))
            for budget in (1, p, 8, 56, 125, 243, 512, 4096):
                gens = {N.gen for N in split_subgroup_stream(p, budget, (g, g), g)}
                assert [P in gens for P, _ in powers] == [i <= budget for _, i in powers]
    # x^6 - 1 = (x - 1)^3 (x + 1)^3 over F3 has 16 monic divisors, 15
    # of them other than 1
    x1, x2 = parse_laurent("x + 1", 3), parse_laurent("x + 2", 3)
    gens = [N.gen for N in split_subgroup_stream(3, NO_BOUND, (6, 6), 6)]
    want = {poly_mul(_power(x1, i), _power(x2, j)) for i in range(4) for j in range(4)}
    want.discard(one_poly(3))
    assert len(gens) == 15 and set(gens) == want
    # the cost follows the budget, not g: (x + 1)^4 is all that fits in
    # 64 for x^(2^20) - 1 over F2, and x - 1 alone for a prime g
    x1 = parse_laurent("x + 1", 2)
    stream = split_subgroup_stream(2, 64, (2**20, 2**20), 2**20)
    want = [(_least_power(2, k), _power(x1, k)) for k in range(1, 5)]
    assert [(N.t, N.gen) for N in stream] == want
    stream = split_subgroup_stream(3, 243, (1000003, 1000003), 1000003)
    assert [(N.t, N.gen) for N in stream] == [(1, x2)]
    # x^(7 * 2^16) - 1 over F2 at 512: (x + 1)^k up to k = 6 and each
    # cubic factor of Phi_7 once
    c1, c2 = (_dense(f, 2) for f in _irreducibles_of_order(2, 7))
    want = set()
    for i, j, k in itertools.product(range(8), range(3), range(3)):
        t0 = (7 if j or k else 1) * _least_power(2, max(i, j, k))
        D = poly_mul(poly_mul(_power(x1, i), _power(c1, j)), _power(c2, k))
        if t0 * 2**D.degree <= 512:
            want.add((t0, D))
    want.discard((1, one_poly(2)))
    stream = split_subgroup_stream(2, 512, (7 * 2**16, 7 * 2**16), 7 * 2**16)
    got = [(N.t, N.gen) for N in stream]
    assert len(got) == len(want) and set(got) == want
    assert (8, _power(x1, 6)) in want and (8, _power(x1, 7)) not in want
    assert not any(D in (_power(c1, 2), _power(c2, 2)) for _, D in want)


def test_pair_split_subgroups_fp_check_raises(monkeypatch):
    # a factor list that does not multiply back to Phi_e is refused when
    # the stream reaches it; Phi_7 over F2 is reducible, so its factors
    # come from the splitter
    monkeypatch.setattr(laurent, "_split_equal_degree", lambda f, d, p, k=1: [f, f])
    stream = split_subgroup_stream(2, NO_BOUND, (7, 7), 7)
    assert [N.index for N in itertools.islice(stream, 1)] == [2]
    with pytest.raises(ContractError):
        next(stream)


def test_pair_split_subgroups_fp_seed_only_reducible(monkeypatch):
    # x^15 - 1 over F2: Phi_1, Phi_3 and Phi_5 are irreducible and kept
    # whole; only Phi_15 (degree 8, factors of degree ord_15(2) = 4) is
    # handed to the splitter, whose recursive calls pass k
    calls = []
    split = laurent._split_equal_degree
    monkeypatch.setattr(
        laurent,
        "_split_equal_degree",
        lambda f, d, p, *k: calls.append((f, d, k)) or split(f, d, p, *k),
    )
    subs = list(split_subgroup_stream(2, NO_BOUND, (15, 15), 15))
    assert [(f, d) for f, d, k in calls if not k] == [([1, 1, 0, 1, 1, 1, 0, 1, 1], 4)]
    assert all(len(f) == 5 for f, _, k in calls if k)
    factors = [(N.t, N.gen.degree) for N in subs if N.gen.degree and is_irreducible_fp(N.gen)]
    assert factors == [(1, 1), (3, 2), (5, 4), (15, 4), (15, 4)]


def test_pair_split_subgroups_fp_against_full_stream():
    # the pair's subgroups are, in stream order, the members (D) x| tZ of
    # the full list with t the order of D and t | gcd(a1, a2), and, when
    # a1 != a2, (1) x| tZ for the least t not dividing a1 - a2; the whole
    # group, of index 1, is not among them
    for p, budget in ((2, 128), (3, 81), (5, 50), (7, 49)):
        full = enumerate_split_subgroups_fp(p, budget)
        order = [
            next(s for s in range(1, N.t + 1) if N.contains(xt_minus_1(p, s)))
            for N in full
        ]
        for a1, a2 in itertools.product(range(-6, 13), repeat=2):
            g, diff = math.gcd(a1, a2), a1 - a2
            least = next((t for t in itertools.count(2) if diff % t), None) if diff else None
            want = [
                N
                for N, t0 in zip(full, order)
                if N.index > 1 and ((N.t == t0 and g % N.t == 0)
                                    or (N.gen == one_poly(p) and N.t == least))
            ]
            assert list(split_subgroup_stream(p, budget, (a1, a2), g)) == want, (p, a1, a2)


def test_pair_stream_prefix_is_smaller_budget():
    # the budget-B pair stream cut at index k lists exactly the budget-k
    # candidates
    cases = [
        (2, 48, 80, 4096, (1, 2, 8, 12, 100, 1024)),
        (2, 9699690, 9699690, 2**16, (2, 12, 80, 896, 4096)),
        (3, 36, 90, 2187, (3, 12, 26, 81, 1000)),
        (5, 20, -40, 3125, (5, 24, 125, 624, 3000)),
        (7, 6, 12, 2401, (5, 7, 49, 400)),
    ]
    for p, a1, a2, budget, cuts in cases:
        g = math.gcd(a1, a2)
        for k in cuts:
            head = itertools.takewhile(
                lambda N: N.index <= k, split_subgroup_stream(p, budget, (a1, a2), g)
            )
            assert list(head) == list(split_subgroup_stream(p, k, (a1, a2), g)), (p, a1, a2, k)


def test_pair_stream_builds_only_what_is_read(monkeypatch):
    asked, built = [], []
    factors = laurent._cyclotomic_factors
    monkeypatch.setattr(
        laurent, "_cyclotomic_factors", lambda p, e, d: asked.append(e) or factors(p, e, d)
    )
    make = FpSplitSubgroup._from_divisor
    monkeypatch.setattr(
        FpSplitSubgroup, "_from_divisor", lambda *a: built.append((N := make(*a)).index) or N
    )
    # x^12 - 1 over F2: Phi_3 is split only when the stream reaches
    # 3 * 2^ord_3(2) = 12, and each subgroup is built when read
    stream = split_subgroup_stream(2, 1024, (12, 12), 12)
    assert [N.index for N in itertools.islice(stream, 2)] == [2, 8]
    assert asked == [1] and built == [2, 8]
    assert next(stream).index == 12 and asked == [1, 3] and built[-1] == 12
    # the depth query over shift 2 * 3 * ... * 19 at budget 2^30 stops at
    # index 2: no order past e = 1 is factored
    asked.clear()
    built.clear()
    s1, s2 = parse_semidirect("(1 + x, 9699690)", 2), parse_semidirect("(x, 9699690)", 2)
    assert split_conjugacy_depth(s1, s2, 2**30).split_depth == 2
    assert asked == [1] and built == [2]
    # both shifts 0: every order is a candidate, listed by degree d only
    # once the stream reaches p^d, so a budget of 10^12 splits no more
    # than order 1 for the first two candidates, and order 3 once index
    # 12 is read
    asked.clear()
    built.clear()
    stream = split_subgroup_stream(2, 10**12, (0, 0), 0)
    assert [N.index for N in itertools.islice(stream, 2)] == [2, 8]
    assert asked == [1] and built == [2, 8]
    assert next(stream).index == 12 and asked == [1, 3] and built[-1] == 12
    # the arguments are checked at the call, before any iteration
    for p, a1, a2, k in ((2, 1, 2, 0), (4, 1, 2, 8)):
        with pytest.raises(ValueError):
            split_subgroup_stream(p, k, (a1, a2), math.gcd(a1, a2))


def divmod_oracle(num, den, p):
    """Schoolbook division over F_p on plain coefficient dicts."""
    num = {e: c % p for e, c in num.coeffs if c % p}
    den_pairs = [(e, c % p) for e, c in den.coeffs]
    dlead, dcoef = den_pairs[-1]
    quot = {}
    while num and max(num) >= dlead:
        e = max(num)
        f = num[e] * pow(dcoef, -1, p) % p
        quot[e - dlead] = f
        for de, dc in den_pairs:
            key = e - dlead + de
            num[key] = (num.get(key, 0) - f * dc) % p
            if not num[key]:
                del num[key]
    return quot, num


def test_enumerate_z_small_frozen():
    subs = enumerate_split_subgroups_z(9)
    assert len(subs) == 26
    assert [N.index for N in subs] == sorted(N.index for N in subs)
    by_index = {}
    for N in subs:
        by_index.setdefault(N.index, []).append(N)
    assert len(by_index[1]) == 1 and by_index[1][0].d == 1
    assert [len(by_index[i]) for i in range(1, 10)] == [1, 2, 2, 3, 2, 5, 2, 6, 3]
    star = [N for N in by_index[6] if N.d == 3 and N.t0 == 2]
    assert len(star) == 1
    assert star[0].t == 2 and star[0].vectors == frozenset({(0, 0), (1, 1), (2, 2)})
    assert any(N.d == 2 and N.t0 == 2 and N.t == 2 for N in by_index[8])
    assert any(
        N.d == 4 and N.t0 == 2 and N.t == 2 and len(N.vectors) == 4 for N in by_index[8]
    )
    assert subs == enumerate_split_subgroups_z(9)
    for N in subs:
        assert N.contains(xt_minus_1(0, N.t))
        assert N.index == N.t * N.d**N.t0 // len(N.vectors)


def test_enumerate_z_against_subset_scan():
    # oracle: scan every subset of (Z/d)^t for the additive rotation-closed
    # ones, then compare as subgroups via characteristic-reduced signatures
    max_index = 8

    def signature(d, t, vectors):
        d0 = min(c for c in range(1, d + 1) if ((c % d,) + (0,) * (t - 1)) in vectors or c == d)
        folded = frozenset(tuple(c % d0 for c in v) for v in vectors)
        return t, d0, folded

    expected = set()
    for d in range(1, max_index + 1):
        for t in range(1, max_index + 1):
            if d**t > 16:
                continue
            cells = list(itertools.product(range(d), repeat=t))
            zero = (0,) * t
            for bits in itertools.product((0, 1), repeat=len(cells)):
                vs = {v for v, keep in zip(cells, bits) if keep}
                if zero not in vs:
                    continue
                if any(tuple((a + b) % d for a, b in zip(u, v)) not in vs for u in vs for v in vs):
                    continue
                if any((v[-1],) + v[:-1] not in vs for v in vs):
                    continue
                index = t * d**t // len(vs)
                if index <= max_index:
                    expected.add(signature(d, t, vs))

    got = set()
    for N in enumerate_split_subgroups_z(max_index):
        if N.d**N.t > 16:
            continue
        expanded = {
            v
            for v in itertools.product(range(N.d), repeat=N.t)
            if N.vec(LaurentPoly(0, tuple((i, c) for i, c in enumerate(v)))) in N.vectors
        }
        got.add(signature(N.d, N.t, expanded))
    assert got == expected


# Oracle: the full-block scan the enumerator replaced. It closes every
# vector of (Z/d)^t0 into every ideal found so far, keeps the ideals in
# canonical presentation, and only then applies the index bound. The
# closure spans explicit vector sets, independently of the library's
# lattice bases.


def _span(gens, d: int, width: int) -> frozenset:
    """Additive span of the generators inside (Z/d)^width."""
    zero = (0,) * width
    span = {zero}
    for g in gens:
        g = tuple(c % d for c in g)
        if g in span:
            continue
        multiples = [zero]
        cur = g
        while cur != zero:
            multiples.append(cur)
            cur = tuple((a + b) % d for a, b in zip(cur, g))
        span = {tuple((a + b) % d for a, b in zip(s, m)) for s in span for m in multiples}
    return frozenset(span)


def _close_vectors(vs, d: int, width: int) -> frozenset:
    """Smallest rotation-closed subgroup of (Z/d)^width containing vs."""
    gens = []
    for v in vs:
        v = tuple(c % d for c in v)
        for _ in range(width):
            gens.append(v)
            v = _rotate(v)
    return _span(gens, d, width)


def block_scan_ideals(d, t0):
    """All ideals of (Z/d)[x]/(x^t0 - 1), as rotation-closed subgroups."""
    zero = (0,) * t0
    vectors = list(itertools.product(range(d), repeat=t0))
    base = frozenset({zero})
    found = {base}
    queue = [base]
    while queue:
        ideal = queue.pop()
        for v in vectors:
            if v in ideal:
                continue
            bigger = _close_vectors(ideal | {v}, d, t0)
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    return sorted(found, key=lambda V: (len(V), tuple(sorted(V))))


def block_scan_canonical(d, t0, V):
    # characteristic is really d: no smaller positive constant in the ideal
    for c in range(1, d):
        if (c,) + (0,) * (t0 - 1) in V:
            return False
    # period is really t0: x^s - 1 outside the ideal for proper divisors s
    for r in _prime_factors(t0):
        s = t0 // r
        vec = [0] * t0
        vec[s] = 1
        vec[0] = (vec[0] - 1) % d
        if tuple(vec) in V:
            return False
    return True


def block_scan_z(max_index, blocks):
    subs = [ZSplitSubgroup(1, 1, frozenset({(0,)}), t) for t in range(1, max_index + 1)]
    for d in range(2, max_index + 1):
        t0 = 1
        while t0 * max(d, t0 + 1) <= max_index:
            if (d, t0) not in blocks:
                blocks[d, t0] = block_scan_ideals(d, t0)
            for V in blocks[d, t0]:
                if not block_scan_canonical(d, t0, V):
                    continue
                quot = d**t0 // len(V)
                t = t0
                while t * quot <= max_index:
                    subs.append(ZSplitSubgroup(d, t0, V, t))
                    t += t0
            t0 += 1
    subs.sort(key=lambda N: (N.index, N.d, N.t0, N.t, tuple(sorted(N.vectors))))
    return subs


def test_enumerate_z_matches_block_scan():
    blocks = {}
    for b in range(1, 17):
        assert enumerate_split_subgroups_z(b) == block_scan_z(b, blocks)


# Oracle: shift-invariant sublattices dZ^t0 <= L <= Z^t0 of index n, listed
# by their Hermite normal forms (upper triangular, 0 <= h_ij < h_jj).


def hnf_bases(k, n):
    def diagonals(k, n):
        if k == 1:
            yield (n,)
            return
        for a in range(1, n + 1):
            if n % a == 0:
                for rest in diagonals(k - 1, n // a):
                    yield (a,) + rest

    slots = [(i, j) for j in range(k) for i in range(j)]
    for diag in diagonals(k, n):
        for entries in itertools.product(*(range(diag[j]) for _, j in slots)):
            H = [[0] * k for _ in range(k)]
            for i in range(k):
                H[i][i] = diag[i]
            for (i, j), e in zip(slots, entries):
                H[i][j] = e
            yield H


def in_lattice(H, v):
    v = list(v)
    for i, row in enumerate(H):
        if v[i] % row[i]:
            return False
        c = v[i] // row[i]
        v = [a - c * b for a, b in zip(v, row)]
    return True


def hnf_split_subgroups_z(max_index):
    subs = {(1, 1, frozenset({(0,)}), t) for t in range(1, max_index + 1)}
    for t0 in range(1, max_index + 1):
        for n in range(2, max_index // t0 + 1):
            for H in hnf_bases(t0, n):
                if not all(in_lattice(H, row[-1:] + row[:-1]) for row in H):
                    continue
                # least period t0: x^s - 1 outside L for 0 < s < t0
                if any(
                    in_lattice(H, [-1] + [int(i == s) for i in range(1, t0)])
                    for s in range(1, t0)
                ):
                    continue
                d = min(c for c in range(1, n + 1) if in_lattice(H, [c] + [0] * (t0 - 1)))
                V = frozenset(
                    v for v in itertools.product(range(d), repeat=t0) if in_lattice(H, v)
                )
                subs.update((d, t0, V, t) for t in range(t0, max_index // n + 1, t0))
    return subs


def test_enumerate_z_matches_hnf_lattices():
    subs = enumerate_split_subgroups_z(24)
    assert {(N.d, N.t0, N.vectors, N.t) for N in subs} == hnf_split_subgroups_z(24)


def index_counts(subs, lo, hi):
    return [sum(1 for N in subs if N.index == i) for i in range(lo, hi + 1)]


def test_enumerate_z_frozen_counts():
    # subgroups per index as the block scan counted them
    subs = enumerate_split_subgroups_z(24)
    assert len(subs) == 119
    assert index_counts(subs, 1, 24) == [
        1, 2, 2, 3, 2, 5, 2, 6, 3, 5, 2, 9, 2, 5, 4, 11, 2, 9, 2, 10, 6, 5, 2, 19,
    ]


def test_enumerate_z_budget_32():
    # counts confirmed by hnf_split_subgroups_z(32), which takes seconds
    subs = enumerate_split_subgroups_z(32)
    assert len(subs) == 179
    assert index_counts(subs, 25, 32) == [3, 5, 7, 8, 2, 13, 2, 20]
    assert [N.index for N in subs] == sorted(N.index for N in subs)
    for N in subs:
        assert N.contains(xt_minus_1(0, N.t))


def test_enumerate_z_crt_block_6_4():
    # the 40 ideals of (Z/6)[x]/(x^4 - 1) are the lattice CRT joins of
    # its 5 ideals mod 2 and 8 ideals mod 3
    mod2, mod3 = block_scan_ideals(2, 4), block_scan_ideals(3, 4)
    assert (len(mod2), len(mod3)) == (5, 8)
    mod6 = set()
    for U in mod2:
        for W in mod3:
            A, B = ZSplitSubgroup(2, 4, U, 4).basis, ZSplitSubgroup(3, 4, W, 4).basis
            V = ZSplitSubgroup._from_basis(6, 4, _crt_join(A, B), 4).vectors
            assert _close_vectors(V, 6, 4) == V
            assert {tuple(c % 2 for c in v) for v in V} == U
            assert {tuple(c % 3 for c in v) for v in V} == W
            mod6.add(V)
    assert len(mod6) == 40


def test_enumerate_z_frozen_digest_48():
    # SHA-256 of [(index, d, t0, t, sorted(vectors)), ...] as the
    # vector-set enumerator produced it, same-key ties included (25 at
    # this budget, with up to 16,807 vectors)
    listed = [
        (N.index, N.d, N.t0, N.t, sorted(N.vectors)) for N in enumerate_split_subgroups_z(48)
    ]
    assert len(listed) == 324
    assert hashlib.sha256(repr(listed).encode()).hexdigest() == (
        "c48c38f94b3186914068d5baf003dd95a5ac5e2636948945f372f3c011c10df1"
    )


def _vectors_less(A: ZSplitSubgroup, B: ZSplitSubgroup) -> bool:
    # whether A's sorted vector tuple is below B's, for ideals of equal d
    # and t0, read lazily: both are sorted, so the first difference decides
    for u, v in zip(_elements(A.basis, A.d), _elements(B.basis, B.d)):
        if u != v:
            return u < v
    return False


def test_enumerate_z_ties_in_vector_order():
    # within each (index, d, t0, t), the lattices come in the order of
    # their sorted vector tuples, the order the documentation states;
    # the unreversed basis rows would order 23 of these groups otherwise
    groups = itertools.groupby(
        enumerate_split_subgroups_z(64), key=lambda N: (N.index, N.d, N.t0, N.t)
    )
    by_rows = 0
    for _, tied in groups:
        tied = list(tied)
        for A, B in zip(tied, tied[1:]):
            assert _vectors_less(A, B), (A, B)
        by_rows += [N.basis for N in tied] != sorted(N.basis for N in tied)
    assert by_rows == 23


def test_lattices_joined_only_when_kept(monkeypatch):
    # the p-parts of a lattice are joined only if the stream yields it:
    # one join per prime of its co-index after the first
    joins = []
    monkeypatch.setattr(laurent, "_crt_join", lambda A, B: joins.append(1) or _crt_join(A, B))
    for budget, expected in ((48, 36), (96, 138)):
        joins.clear()
        kept = {N.basis for N in enumerate_split_subgroups_z(budget) if N.t0 > 1}
        assert len(joins) == sum(len(_prime_factors(_coindex(H))) - 1 for H in kept) == expected


def least_periods(subs, shifts):
    """The subgroups of a full listing that `split_subgroup_stream` keeps
    for classes whose shifts lie in shifts: every ideal J != (1) only at
    its least period, the least s with x^s - 1 in J (by schoolbook
    division over F_p, by membership over Z), and the unit ideal at each
    t that is the least shift not dividing some nonzero difference of two
    shifts (so not the whole group, at t = 1)."""
    gaps = {a - b for a in shifts for b in shifts if a > b}

    def holds(N, s):
        if N.ring:
            return not divmod_oracle(xt_minus_1(N.ring, s), N.gen, N.ring)[1]
        return N.contains(xt_minus_1(0, s))

    def first_unit(t):
        return any(d % t and all(d % s == 0 for s in range(2, t)) for d in gaps)

    return [
        N for N in subs
        if (first_unit(N.t) if N.quotient_ring_order == 1
            else next(s for s in range(1, N.t + 1) if holds(N, s)) == N.t)
    ]


# shift sets a stream is asked to separate: none, one shift, differences
# 12 (unit ideal at 5 only), 2 (at 3), 720720 = 2^4 3^2 5 7 11 13 (at
# 17), and the shifts of a ball (at 2, 3, 4 and 5)
SHIFT_SETS = [(), (3, 3), (0, 12), (-1, 1), (0, 720720), range(-6, 7)]


def test_first_unit_shifts():
    assert first_unit_shifts(()) == first_unit_shifts((3, 3)) == []
    assert first_unit_shifts((0, 12)) == first_unit_shifts((12, 0)) == [5]
    assert first_unit_shifts((5, -1, 1)) == [3, 4]
    assert first_unit_shifts(range(-6, 7)) == [2, 3, 4, 5]
    assert first_unit_shifts((0, 720720)) == [17]


def test_stream_prefix_is_smaller_budget():
    # the budget-B stream is the full enumeration thinned to least
    # periods and first unit shifts, read to its end and cut at every
    # index k; cut at k it is also the budget-k stream
    cases = [
        (0, 18, (1, 5, 6, 12, 17)),
        (0, 24, (2, 11, 20, 23)),
        (0, 48, (7, 21, 30, 47)),
        (2, 1024, (1, 8, 100, 512, 1000)),
        (3, 243, (3, 26, 81, 200)),
        (5, 125, (5, 24, 25, 100)),
    ]
    for ring, budget, cuts in cases:
        if ring == 0:
            full = enumerate_split_subgroups_z(budget)
        else:
            full = enumerate_split_subgroups_fp(ring, budget)
        for shifts in SHIFT_SETS:
            thin = least_periods(full, shifts)
            assert len(thin) < len(full)
            assert list(split_subgroup_stream(ring, budget, shifts, 0)) == thin, (ring, shifts)
            for k in cuts:
                stream = split_subgroup_stream(ring, budget, shifts, 0)
                head = list(itertools.takewhile(lambda N: N.index <= k, stream))
                assert head == [N for N in thin if N.index <= k], (ring, budget, k)
                assert head == list(split_subgroup_stream(ring, k, shifts, 0)), (ring, budget, k)


def test_stream_builds_only_what_is_read(monkeypatch):
    shifts = range(-6, 7)
    z5 = least_periods(enumerate_split_subgroups_z(5), shifts)
    f8 = least_periods(enumerate_split_subgroups_fp(2, 8), shifts)
    # Z: ideals of least period t0 >= 2 have index at least t0 (t0 + 1),
    # so through index 5 no lattice of period 2 or more is built
    periods = []
    lattices = laurent._lattices_of_period
    monkeypatch.setattr(
        laurent, "_lattices_of_period", lambda t0, bound: periods.append(t0) or lattices(t0, bound)
    )
    stream = split_subgroup_stream(0, 18, shifts, 0)
    assert list(itertools.islice(stream, len(z5))) == z5
    assert periods == []
    assert next(stream).index == 6 and periods == [2]
    # F_p: a subgroup is constructed only when it is read
    built = []
    make = FpSplitSubgroup._from_divisor
    monkeypatch.setattr(
        FpSplitSubgroup, "_from_divisor", lambda *a: built.append((N := make(*a)).index) or N
    )
    stream = split_subgroup_stream(2, 1024, shifts, 0)
    assert list(itertools.islice(stream, len(f8))) == f8
    assert len(built) == len(f8) and max(built) == 8
    with pytest.raises(ValueError):
        split_subgroup_stream(2, 0, shifts, 0)
    with pytest.raises(ValueError):
        split_subgroup_stream(4, 8, shifts, 0)


def test_streams_yield_each_subgroup_once_in_key_order():
    # each subgroup's enumeration key is strictly above the last one's:
    # a divisor built both when its parent is read and when its last
    # factor is split would show up as a repeated key; the two F2 lists
    # that split the most Phi_e are also frozen by the SHA-256 of
    # [(t, gen.coeffs), ...] as the seeded Cantor-Zassenhaus splitter
    # produced them
    for stream, count, digest in (
        (
            enumerate_split_subgroups_fp(2, 4096),
            8040,
            "0693473f805b2fedea7c6433ce3f6855cf118c1b503780b20492e2c15b51869d",
        ),
        (split_subgroup_stream(2, 4096, (), 0), 91, None),
        (split_subgroup_stream(2, 4096, range(-12, 13), 0), 95, None),
        (
            split_subgroup_stream(2, 2**20, (0, 0), 0),
            2484,
            "3024859dfc13b673952a4809bd1acc4cb6f5009e95ff708963c9261422d07a87",
        ),
        (enumerate_split_subgroups_z(96), 894, None),
        (split_subgroup_stream(0, 96, (), 0), 335, None),
        (split_subgroup_stream(0, 96, range(-6, 7), 0), 339, None),
    ):
        subs = list(stream)
        keys = [N.listing_key for N in subs]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(keys) == count
        if digest:
            listed = repr([(N.t, N.gen.coeffs) for N in subs]).encode()
            assert hashlib.sha256(listed).hexdigest() == digest


def test_depth_cost_follows_the_answer(monkeypatch):
    # with both shifts 0 every divisor is a candidate, but a divisor is
    # multiplied out only from one already read, so the query makes the
    # same products at a budget of 4096 as at 10^12
    products = []
    dmul = laurent._dmul
    monkeypatch.setattr(laurent, "_dmul", lambda a, b, p: products.append(1) or dmul(a, b, p))
    s1, s2 = parse_semidirect("(x^60 - 1, 0)", 2), parse_semidirect("(0, 0)", 2)
    runs = []
    for budget in (4096, 10**12):
        products.clear()
        result = split_conjugacy_depth(s1, s2, budget)
        runs.append((result.split_depth, result.subgroup, len(products)))
    assert runs[0] == runs[1] and runs[0][0] == 56


def test_split_subgroup_validation():
    with pytest.raises(ValueError):
        FpSplitSubgroup(2, 3, parse_laurent("x^2 + 1", 2))  # divides x^4-1, not x^3-1
    with pytest.raises(ValueError):
        FpSplitSubgroup(2, 2, parse_laurent("x", 2))
    with pytest.raises(ValueError):
        FpSplitSubgroup(4, 1, parse_laurent("1", 2))
    FpSplitSubgroup(2, 4, parse_laurent("x^2 + 1", 2))  # (x+1)^2 divides x^4-1
    with pytest.raises(ValueError):
        ZSplitSubgroup(2, 2, frozenset({(0, 0)}), 3)  # shift not a multiple of period
    with pytest.raises(ValueError):
        ZSplitSubgroup(2, 2, frozenset({(0, 0), (1, 0)}), 2)  # not rotation closed
    with pytest.raises(ValueError):
        ZSplitSubgroup(3, 2, frozenset({(0, 0), (1, 1)}), 2)  # not additively closed


def test_stream_output_passes_the_public_checks():
    # the streams and listings build their subgroups unchecked; the data
    # of each passes the public constructor, which gives an equal
    # subgroup with the same quotient-test moduli
    fp = [
        N
        for p, budget in ((2, 4096), (3, 2187), (5, 625))
        for a in (None, 1, 6, 12, 20, 36)
        for N in (
            enumerate_split_subgroups_fp(p, budget)
            if a is None
            else split_subgroup_stream(p, budget, (a, a), a)
        )
    ]
    assert len(fp) > 8040 + 3914 + 957
    for N in fp:
        # gen is built unchecked too: it must be the polynomial the public
        # constructor makes of its coefficients
        assert N.gen == LaurentPoly(N.p, N.gen.coeffs), N
        M = FpSplitSubgroup(N.p, N.t, N.gen)
        assert M == N and M._tail(0) == N._tail(0), N
        if N.index <= 64:
            assert [M._tail(m) for m in range(N.t)] == [N._tail(m) for m in range(N.t)], N
    zs = enumerate_split_subgroups_z(24)
    zs += [N for a in (1, 2, 6, 12) for N in split_subgroup_stream(0, 24, (a, a), a)]
    for N in zs:
        assert ZSplitSubgroup(N.d, N.t0, N.vectors, N.t) == N, N


def test_cyclotomic_factors_need_the_order_degree():
    # Phi_e's factors all have degree ord_e(p); asked for another degree
    # the equal-degree splitter would never end, so the call raises first
    for p, e, deg in ((2, 1, 3), (2, 7, 2), (3, 8, 1), (2, 7, 6), (2, 1, 0), (2, 6, 2)):
        with pytest.raises(ContractError):
            _cyclotomic_factors(p, e, deg)
    assert _cyclotomic_factors(2, 1, 1) == [[1, 1]]
    assert _cyclotomic_factors(3, 1, 1) == [[2, 1]]
    assert _cyclotomic_factors(2, 7, 3) == [[1, 0, 1, 1], [1, 1, 0, 1]]
    assert _cyclotomic_factors(3, 8, 2) == [[2, 1, 1], [2, 2, 1]]
    assert _cyclotomic_factors(2, 15, 4) == [[1, 0, 0, 1, 1], [1, 1, 0, 0, 1]]


def _cyclotomic_oracle(p, e):
    """Phi_e over F_p by the Moebius product: (x^(e/s) - 1)^mu(s) over
    the squarefree s | e."""
    num = den = [1]
    primes = _prime_factors(e)
    for r in range(len(primes) + 1):
        for S in itertools.combinations(primes, r):
            xd = _trim([-1] + [0] * (e // math.prod(S) - 1) + [1], p)
            if r % 2:
                den = _dmul(xd, den, p)
            else:
                num = _dmul(xd, num, p)
    q, rest = _ddivmod(num, den, p)
    assert not rest
    return q


def test_cyclotomic_against_moebius_product():
    for p in (2, 3, 5, 7, 11, 13):
        for e in range(1, 400):
            if e % p:
                assert _cyclotomic(p, e) == _cyclotomic_oracle(p, e), (p, e)
    assert _cyclotomic(2, 1) == [1, 1] and _cyclotomic(3, 1) == [2, 1]
    assert _cyclotomic(5, 12) == [1, 0, 4, 0, 1]  # x^4 - x^2 + 1


def test_streams_never_yield_the_whole_group():
    # the whole group (1) x| 1Z has the trivial quotient and separates
    # nothing, so no stream yields it; the listings hold (1) x| tZ at
    # every t themselves
    for ring, budget in ((2, 256), (3, 243), (5, 125), (0, 24)):
        for g in (0, 1, 6, 12):
            for shifts in ((g, g), (g, 3 * g) if g else range(-6, 7)):
                subs = list(split_subgroup_stream(ring, budget, shifts, g))
                assert subs and min(N.index for N in subs) > 1, (ring, g, shifts)
                units = [N.t for N in subs if N.quotient_ring_order == 1]
                assert units == first_unit_shifts(shifts), (ring, g, shifts)
    fp, zs = enumerate_split_subgroups_fp(2, 8), enumerate_split_subgroups_z(8)
    assert (len(fp), len(zs)) == (13, 23)
    for subs in (fp, zs):
        assert [N.t for N in subs if N.quotient_ring_order == 1] == list(range(1, 9))
    assert fp[0] == FpSplitSubgroup(2, 1, one_poly(2))
    assert zs[0] == ZSplitSubgroup(1, 1, [(0,)], 1)


def test_conjugate_in_split_quotient_psi3():
    N = FpSplitSubgroup(2, 3, psi_poly(3, 2))
    assert N.index == 12
    f = parse_semidirect("(x^3 - 1, 3)", 2)
    g = parse_semidirect("(x - 1 + x^3 - 1, 3)", 2)
    assert image_in_split_quotient(f, N) == (zero_poly(2), 0)
    assert image_in_split_quotient(g, N) == (parse_laurent("x + 1", 2), 0)
    assert not conjugate_in_split_quotient(f, g, N)
    assert conjugate_in_split_quotient(f, f, N)
    for M in enumerate_split_subgroups_fp(2, 7):
        assert conjugate_in_split_quotient(f, g, M)


def test_conjugate_in_split_quotient_z_side():
    pair_f = parse_semidirect("(2*x^2 - 2, 2)", 0)
    pair_g = parse_semidirect("(2*x^2 - 2 + 2*x - 2, 2)", 0)
    separator = ZSplitSubgroup(3, 2, frozenset({(0, 0), (1, 1), (2, 2)}), 2)
    assert separator.index == 6
    assert not conjugate_in_split_quotient(pair_f, pair_g, separator)
    assert image_in_split_quotient(pair_f, separator) == ((0, 0), 0)
    assert image_in_split_quotient(pair_g, separator) == ((0, 1), 0)
    for N in enumerate_split_subgroups_z(5):
        assert conjugate_in_split_quotient(pair_f, pair_g, N)


def test_conjugate_in_split_quotient_invariance():
    rng = random.Random(40006)
    fp_subs = enumerate_split_subgroups_fp(2, 12) + enumerate_split_subgroups_fp(3, 12)
    z_subs = enumerate_split_subgroups_z(8)
    for _ in range(250):
        N = rng.choice(fp_subs + z_subs)
        ring = N.ring
        g1 = SemidirectElement(random_poly(rng, ring, span=4, terms=3), rng.randrange(-4, 5))
        g2 = SemidirectElement(random_poly(rng, ring, span=4, terms=3), rng.randrange(-4, 5))
        z = SemidirectElement(random_poly(rng, ring, span=4, terms=3), rng.randrange(-4, 5))
        base = conjugate_in_split_quotient(g1, g2, N)
        assert base == conjugate_in_split_quotient(semidirect_conjugate(z, g1), g2, N)
        assert base == conjugate_in_split_quotient(g1, semidirect_conjugate(z, g2), N)
        assert conjugate_in_split_quotient(g1, g1, N)
        if same_conjugacy_class(g1, g2) is not None:
            assert base


def gcd_oracle(a, b, p):
    """gcd over F_p by Euclid on schoolbook division, up to a unit."""
    while not b.is_zero():
        a, b = b, LaurentPoly(p, tuple(divmod_oracle(a, b, p)[1].items()))
    return a


def quotient_conjugate_oracle(g1, g2, N):
    """The quotient test by its definition: shifts agree mod t, and
    P2 - x^l P1 lies in J + (x^m - 1), m the shift mod t, for some l
    below t. Over F_p that ideal is (gcd(gen, x^m - 1)); over Z it is
    the closure of J's vectors with the vector of x^m - 1."""
    if (g1.shift - g2.shift) % N.t:
        return False
    m = g1.shift % N.t
    E = xt_minus_1(N.ring, m)
    if N.ring:
        g0 = gcd_oracle(N.gen, E, N.p)

        def inside(D):
            # x is a unit mod g0, so D may be moved to start at x^0
            return D.is_zero() or not divmod_oracle(poly_shift(D, -D.low), g0, N.p)[1]
    else:
        reachable = _close_vectors(N.vectors | {N.vec(E)}, N.d, N.t0)

        def inside(D):
            return N.vec(D) in reachable

    return any(
        inside(poly_sub(g2.poly, poly_shift(g1.poly, ell))) for ell in range(N.t)
    )


def is_mixed(m, N):
    period = N.t if N.ring else N.t0
    return 1 < math.gcd(m, period) < period


def oracle_pair(rng, N):
    """g1 with a shift m such that 1 < gcd(m, period) < period where the
    period (t over F_p, t0 over Z) has such residues, and g2 either
    unrelated or a conjugate of g1 moved by an element of N (so
    conjugate in the quotient)."""
    ring, t = N.ring, N.t
    mixed = [m for m in range(-2 * t, 2 * t + 1) if is_mixed(m, N)]
    if mixed and rng.random() < 0.7:
        shift = rng.choice(mixed)
    else:
        shift = rng.randrange(-2 * t, 2 * t + 1)
    g1 = SemidirectElement(random_poly(rng, ring, span=5, terms=4, coeff=3), shift)
    if rng.random() < 0.5:
        return g1, SemidirectElement(
            random_poly(rng, ring, span=5, terms=4, coeff=3), shift + t * rng.randrange(-2, 3)
        )
    z = SemidirectElement(random_poly(rng, ring, span=3, terms=3, coeff=3), rng.randrange(-4, 5))
    g2 = semidirect_conjugate(z, g1)
    if ring:
        inJ = poly_mul(N.gen, random_poly(rng, ring, span=3, terms=2))
    else:
        u = rng.choice(sorted(N.vectors))
        inJ = poly_add(
            LaurentPoly(0, tuple((i + N.t0 * rng.randrange(-1, 2), c) for i, c in enumerate(u))),
            poly_mul(LaurentPoly(0, ((0, N.d),)), random_poly(rng, 0, span=3, terms=2, coeff=2)),
        )
        inJ = poly_add(inJ, poly_mul(xt_minus_1(0, N.t0), random_poly(rng, 0, span=3, terms=1, coeff=2)))
    if rng.random() < 0.5:
        # then a small change, which usually leaves the class
        inJ = poly_add(inJ, x_power(ring, rng.randrange(-3, 4)))
    return g1, SemidirectElement(poly_add(g2.poly, inJ), g2.shift + t * rng.randrange(-2, 3))


def test_quotient_test_and_key_against_per_shift_oracle():
    # the quotient test and the class key read the same ideal
    # J + (x^m - 1), (g0) over F_p; over F_p the test walks the x-orbit
    # of P1 mod g0 until it meets P2 or closes, and the key takes the
    # orbit's least residue. Both are checked here against the per-shift
    # definition, on every split subgroup up to index 27 over F_2, F_3,
    # F_5 and up to 9 over Z, and on the Z ones of period t0 > 2 up to 24
    # (below 12 all have t0 <= 2, so none has a shift with
    # 1 < gcd(m, t0) < t0)
    rng = random.Random(4242)
    cases = [(enumerate_split_subgroups_fp(p, 27), 40) for p in (2, 3, 5)]
    z_wide = [N for N in enumerate_split_subgroups_z(24) if N.t0 > 2]
    cases.append((enumerate_split_subgroups_z(9) + z_wide, 8))
    for subs, min_mixed in cases:
        seen = {True: 0, False: 0}
        mixed = 0
        for N in subs:
            for _ in range(12):
                g1, g2 = oracle_pair(rng, N)
                expected = quotient_conjugate_oracle(g1, g2, N)
                assert conjugate_in_split_quotient(g1, g2, N) == expected, (g1, g2, N)
                same_key = quotient_class_key(g1, N) == quotient_class_key(g2, N)
                assert same_key == expected, (g1, g2, N)
                seen[expected] += 1
                mixed += is_mixed(g1.shift, N)
        assert min(seen.values()) > 50 and mixed > min_mixed, (seen, mixed)


def test_z_image_and_key_are_brute_force_minima():
    # on every Z split subgroup up to index 16: the image is the least
    # vector of v + J in (Z/d)^t0, and the class key the least vector of
    # the cosets of J + (x^m - 1) through the rotations of v, each found
    # by listing the whole coset
    rng = random.Random(16016)
    for N in enumerate_split_subgroups_z(16):
        for _ in range(6):
            shift = rng.randrange(-2 * N.t, 2 * N.t + 1)
            g = SemidirectElement(random_poly(rng, 0, span=5, terms=4, coeff=9), shift)
            v, m = N.vec(g.poly), shift % N.t
            coset = [tuple((a + b) % N.d for a, b in zip(v, w)) for w in N.vectors]
            assert image_in_split_quotient(g, N) == (min(coset), m), (g, N)
            reachable = _close_vectors(N.vectors | {N.vec(xt_minus_1(0, m))}, N.d, N.t0)
            rotations = [v]
            while len(rotations) < N.t0:
                rotations.append(_rotate(rotations[-1]))
            least = min(
                tuple((a + b) % N.d for a, b in zip(r, u)) for r in rotations for u in reachable
            )
            assert quotient_class_key(g, N) == (m, least), (g, N)


def test_split_subgroup_memo_is_not_a_field():
    # what a subgroup keeps beside its fields, the tail of gen over F_p
    # and the quotient ring's order over Z, leaves eq, hash, repr and
    # asdict as they were, and a subgroup built unchecked by a stream
    # equals the one the public constructor builds
    g = parse_semidirect("(x^-2 + x + 1, 2)", 2)
    N = FpSplitSubgroup(2, 4, parse_laurent("x^2 + 1", 2))
    M = enumerate_split_subgroups_z(9)[-1]
    h = parse_semidirect("(x^-1 - 2*x^2, 2)", 0)
    before = [(repr(S), hash(S), dataclasses.asdict(S)) for S in (N, M)]
    assert quotient_class_key(g, N) == quotient_class_key(g, N)
    assert conjugate_in_split_quotient(h, h, M)
    assert [(repr(S), hash(S), dataclasses.asdict(S)) for S in (N, M)] == before
    assert N == FpSplitSubgroup(2, 4, parse_laurent("x^2 + 1", 2))
    assert M == ZSplitSubgroup(M.d, M.t0, M.vectors, M.t)


def test_mod_ideal_example():
    cert = mod_ideal_reduce(4, 6, 5)
    assert cert.g == 2 and verify_mod_ideal(cert)
    # membership checked directly in the 5^6-element ring (Z/5)[x]/(x^6 - 1)

    def vec6(P):
        out = [0] * 6
        for e, c in P.coeffs:
            out[e % 6] = (out[e % 6] + c) % 5
        return tuple(out)

    ideal_x4 = _close_vectors({vec6(xt_minus_1(0, 4))}, 5, 6)
    ideal_x2 = _close_vectors({vec6(xt_minus_1(0, 2))}, 5, 6)
    assert vec6(xt_minus_1(0, 4)) in ideal_x2
    assert vec6(xt_minus_1(0, 2)) in ideal_x4


def test_mod_ideal_exhaustive():
    for m in range(1, 13):
        for n in range(1, 13):
            for d in (2, 3, 4, 5):
                cert = mod_ideal_reduce(m, n, d)
                assert verify_mod_ideal(cert)
                assert cert.g == __import__("math").gcd(m, n)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_certificate_and_root_checks_survive_optimisation(flags):
    # both checks are explicit raises, not asserts, so python -O keeps them
    code = (
        "from wreathconj import laurent\n"
        "laurent.verify_mod_ideal = lambda c: False\n"
        "laurent.is_irreducible_fp = lambda P: False\n"
        "for call in (lambda: laurent.mod_ideal_reduce(4, 6), lambda: laurent.primitive_root_primes(2, 1)):\n"
        "    try:\n"
        "        call()\n"
        "    except laurent.ContractError as e:\n"
        "        print(e)\n"
    )
    out = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.splitlines() == [
        "gcd certificate for (4, 6) fails its own check",
        "1 + x + ... + x^2 is reducible over F2",
    ]


def test_psi_and_primitive_roots():
    assert psi_poly(3, 2) == parse_laurent("x^2 + x + 1", 2)
    with pytest.raises(ValueError):
        psi_poly(4)
    for q in (3, 5, 7):
        assert poly_mul(parse_laurent("x - 1", 0), psi_poly(q)) == xt_minus_1(0, q)
    assert primitive_root_primes(2, 3) == [3, 5, 11]
    assert primitive_root_primes(2, 1) == [3]
    assert primitive_root_primes(3, 2) == [5, 7]
    for p in (2, 3, 5, 7):
        # against the order of p mod q, found by repeated multiplication
        full = [q for q in range(p + 1, 60) if is_prime(q)
                and next(k for k in itertools.count(1) if pow(p, k, q) == 1) == q - 1]
        assert primitive_root_primes(p, len(full)) == full
    assert is_irreducible_fp(psi_poly(5, 2))
    assert not is_irreducible_fp(psi_poly(7, 2))  # ord_7(2) = 3 < 6
    assert is_irreducible_fp(psi_poly(7, 3))
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
