"""The witness path: coset keys against `solve_multiple`, the keyed
coset classes, twist solver and candidate match against the pairwise
versions they replaced, the coordinate-tuple arithmetic against the
element-level versions it replaced, and a frozen digest of the path's
outputs."""

import hashlib
import itertools
import random

import pytest

from wreathconj.abelian import (
    AbelianElement,
    AbelianGroup,
    element_order,
    parse_group,
    quotient_mod,
    solve_multiple,
)
from wreathconj.witness import WitnessContractError, full_witness
from wreathconj.wreath import (
    WreathElement,
    WreathGroup,
    _keyed_classes,
    _solve_twist,
    conjugate,
    conjugate_test,
    coset_key,
    element_to_json,
    extend_quotient_acting,
    extend_quotient_base,
    inverse,
    multiply,
    reduce,
    same_coset,
)

DIGEST_GROUPS = ["F2 wr Z", "Z wr Z", "Z/4 wr Z x Z/2", "Z wr Z^2", "Z/3 wr Z^2"]


def _random_base(rng, B, radius):
    return tuple(rng.randint(-radius, radius) for _ in range(B.free_rank)) + tuple(
        rng.randrange(n) for n in B.torsion
    )


def _random_lamp(rng, A):
    while True:
        c = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(A.free_rank))
        c += tuple(rng.randrange(n) for n in A.torsion)
        if any(c):
            return c


def _random_element(rng, W, points, radius):
    f = {_random_base(rng, W.base, radius): _random_lamp(rng, W.lamp) for _ in range(points)}
    return W.element(f, _random_base(rng, W.base, 3))


def _witness_path_lines():
    """One line per output of reduce, conjugate_test and full_witness on
    a seeded batch over the five groups of the witness benchmark. Acting
    parts are drawn freely, so zero and finite-order ones occur too."""
    rng = random.Random("witness-path-digest")
    for text in DIGEST_GROUPS:
        A, B = (parse_group(s) for s in text.split(" wr "))
        W = WreathGroup(A, B)
        for _ in range(32):
            g = _random_element(rng, W, rng.randint(0, 4), 3)
            r, z = reduce(g)
            yield f"reduce {element_to_json(r)} {element_to_json(z)}"
            h = conjugate(_random_element(rng, W, rng.randint(1, 3), 2), g)
            near = multiply(h, W.delta(_random_base(rng, B, 3), _random_lamp(rng, A)))
            other = _random_element(rng, W, rng.randint(0, 3), 3)
            for y in (h, near, other):
                w = conjugate_test(g, y)
                if w is not None:
                    yield f"conjugate {element_to_json(w)}"
                    continue
                try:
                    q = full_witness(g, y)
                except WitnessContractError as exc:
                    yield f"contract {exc}"
                    continue
                images = [
                    element_to_json(im) if isinstance(im, WreathElement) else str(im)
                    for im in (q.image1, q.image2)
                ]
                # the report less target_order: the target determines it,
                # and for a rank-two acting quotient it has millions of digits
                moduli = [pi.modulus if pi else None for pi in (q.acting_map, q.base_map)]
                yield f"witness {q.target} {moduli} {q.certificate} {q.transcript} {images}"


# SHA-256 of the lines above, joined by newlines. The pairwise coset
# solves that coset keys replaced gave the same lines, except that six
# rank-two pairs then ended in "contract modulus ... above the tracked
# bound ...": their first candidate modulus passed the acting stage's
# bound before it was rounded up to a multiple of the search's step.
WITNESS_PATH_DIGEST = "1ec2ea68da5165f29a2c0daeb1312c73a345a3254acec0c53575408c1b6a1e92"


def test_witness_path_frozen_digest():
    text = "\n".join(_witness_path_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_PATH_DIGEST


# ---------------------------------------------------------------------------
# coset keys against solve_multiple

KEY_CASES = [
    # (group, acting elements b, box radius for free coordinates)
    (AbelianGroup(1), [(0,), (1,), (3,), (-2,)], 7),
    (AbelianGroup(2), [(0, 0), (2, -1), (0, 3), (-3, 2)], 3),
    (AbelianGroup(1, (4,)), [(0, 0), (0, 2), (0, 1), (2, 1), (-1, 3)], 4),
    (AbelianGroup(0, (12, 18)), [(0, 0), (4, 6), (3, 0), (1, 1), (8, 15), (0, 9)], 0),
    (AbelianGroup(0, (2, 4, 3)), [(1, 2, 0), (0, 1, 1), (1, 0, 2)], 0),
    (AbelianGroup(1, (6, 4)), [(0, 3, 2), (0, 2, 0), (2, 5, 1)], 2),
]


def _box(group, radius):
    ranges = [range(-radius, radius + 1)] * group.free_rank
    ranges += [range(n) for n in group.torsion]
    return [AbelianElement(group, c) for c in itertools.product(*ranges)]


@pytest.mark.parametrize("group, acting, radius", KEY_CASES)
def test_coset_key_matches_solve_multiple(group, acting, radius):
    points = _box(group, radius)
    for coords in acting:
        b = AbelianElement(group, coords)
        key = coset_key(b)
        order = element_order(b)
        keyed = [key(x.coords) for x in points]
        for x, (rep, t) in zip(points, keyed):
            r = AbelianElement(group, rep)
            assert r.coords == rep and r + t * b == x
            if order is not None:
                assert 0 <= t < order
                # the least point of the orbit, found by listing it
                assert rep == min((x + s * b).coords for s in range(order))
        for (x, (kx, _)), (y, (ky, _)) in itertools.product(zip(points, keyed), repeat=2):
            assert (kx == ky) == (solve_multiple(x - y, b) is not None), (x, y, b)


# ---------------------------------------------------------------------------
# the pairwise versions the keyed ones replaced, kept as oracles


def _keyed_coset_classes(points, b):
    """`_keyed_classes` on the points' coordinates, read back as elements."""
    classes = _keyed_classes([p.coords for p in points], coset_key(b))
    return [[AbelianElement(b.group, p) for p, _ in cls] for cls in classes]


def _coords_map(d):
    return {k.coords: v.coords for k, v in d.items()}


def _pairwise_coset_classes(points, b):
    classes = []
    for p in sorted(points, key=lambda q: q.coords):
        for cls in classes:
            if same_coset(p, cls[0], b):
                cls.append(p)
                break
        else:
            classes.append([p])
    return classes


def _pairwise_solve_twist(d, b, zero_lamp):
    support = [k for k, v in d.items() if not v.is_zero()]
    if not support:
        return {}
    if b.is_zero():
        return None
    order = element_order(b)
    h = {}
    for cls in _pairwise_coset_classes(support, b):
        rep = cls[0]
        offsets = {}
        for p in cls:
            t = solve_multiple(p - rep, b)
            offsets[t if order is None else t % order] = d[p]
        acc = zero_lamp
        cells = []
        for t in range(min(offsets), max(offsets) + 1) if order is None else range(order):
            if t in offsets:
                acc = acc + offsets[t]
            cells.append((t, acc))
        if not acc.is_zero():
            return None
        for t, val in cells:
            if not val.is_zero():
                h[rep + t * b] = val
    return h


def _pairwise_f_difference(f2, f1_shifted, lamp):
    out = dict(f2)
    zero = lamp.zero()
    for k, v in f1_shifted.items():
        out[k] = out.get(k, zero) - v
    return {k: v for k, v in out.items() if not v.is_zero()}


def _pairwise_match(g1, g2):
    """conjugate_test's candidate match loop with a pairwise coset test."""
    if g1.b != g2.b:
        return None
    r1, z1 = reduce(g1)
    r2, z2 = reduce(g2)
    b = r1.b
    f1, f2 = r1.f_map(), r2.f_map()
    s1, s2 = list(r1.support()), list(r2.support())
    if len(s1) != len(s2):
        return None
    if not s1:
        return multiply(inverse(z2), z1)
    x0 = min(s1, key=lambda p: p.coords)
    for y in sorted(s2, key=lambda p: p.coords):
        c = y - x0
        shifted = {k + c: v for k, v in f1.items()}
        used = set()
        for x, v in shifted.items():
            match = None
            for cand in s2:
                if cand not in used and same_coset(x, cand, b):
                    match = cand
                    break
            if match is None or f2[match] != v:
                break
            used.add(match)
        else:
            d = _pairwise_f_difference(f2, shifted, g1.group.lamp)
            h = _pairwise_solve_twist(d, b, g1.group.lamp.zero())
            if h is not None:
                inner = WreathElement(g1.group, tuple(h.items()), c)
                w = multiply(inverse(z2), multiply(inner, z1))
                if conjugate(w, g1) == g2:
                    return w
    return None


ORACLE_GROUPS = DIGEST_GROUPS + ["Z/2 x Z/3 wr Z/12 x Z/18", "Z wr Z x Z/4", "Z/5 wr Z/6"]


def _oracle_groups():
    for text in ORACLE_GROUPS:
        A, B = (parse_group(s) for s in text.split(" wr "))
        yield WreathGroup(A, B)


def test_keyed_classes_and_twist_match_pairwise():
    rng = random.Random(90210)
    for W in _oracle_groups():
        for _ in range(40):
            points = {_random_base(rng, W.base, 4) for _ in range(rng.randint(1, 8))}
            points = [AbelianElement(W.base, p) for p in points]
            b = AbelianElement(W.base, _random_base(rng, W.base, 3))
            assert _keyed_coset_classes(points, b) == _pairwise_coset_classes(points, b)
            d = {p: AbelianElement(W.lamp, _random_lamp(rng, W.lamp)) for p in points}
            # with every coset sum cancelled, the twist exists
            for cls in _keyed_coset_classes(points, b):
                total = W.lamp.zero()
                for p in cls[:-1]:
                    total = total + d[p]
                d[cls[-1]] = -total
            # one value bumped: its coset sum is nonzero, so no twist exists
            bumped = dict(d)
            bumped[points[0]] = d[points[0]] + AbelianElement(W.lamp, _random_lamp(rng, W.lamp))
            zero = W.lamp.zero()
            assert _solve_twist(_coords_map(d), b, W.lamp) is not None
            assert _solve_twist(_coords_map(bumped), b, W.lamp) is None
            for dd in (d, bumped):
                h = _pairwise_solve_twist(dd, b, zero)
                expected = None if h is None else _coords_map(h)
                assert _solve_twist(_coords_map(dd), b, W.lamp) == expected


def test_conjugate_test_matches_pairwise_match():
    rng = random.Random(90211)
    for W in _oracle_groups():
        B = W.base
        for _ in range(30):
            g = _random_element(rng, W, rng.randint(0, 4), 3)
            h = conjugate(_random_element(rng, W, rng.randint(1, 3), 2), g)
            near = multiply(h, W.delta(_random_base(rng, B, 3), _random_lamp(rng, W.lamp)))
            for y in (h, near, W.element({}, g.b.coords)):
                assert conjugate_test(g, y) == _pairwise_match(g, y)


# ---------------------------------------------------------------------------
# the element-level arithmetic the coordinate-tuple versions replaced,
# kept as oracles: each merges with AbelianElement arithmetic and leaves
# merging, dropping zeros and sorting to the checking constructor


def _element_multiply(g1, g2):
    merged = dict(g1.pairs)
    for k, v in g2.pairs:
        k = k + g1.b
        merged[k] = merged[k] + v if k in merged else v
    return WreathElement(g1.group, tuple(merged.items()), g1.b + g2.b)


def _element_inverse(g):
    nb = -g.b
    return WreathElement(g.group, tuple((k + nb, -v) for k, v in g.pairs), nb)


def _element_conjugate(z, g):
    c, b = z.b, g.b
    merged = dict(z.pairs)
    for k, v in g.pairs:
        k = k + c
        merged[k] = merged[k] + v if k in merged else v
    for k, v in z.pairs:
        k = k + b
        merged[k] = merged[k] - v if k in merged else -v
    return WreathElement(z.group, tuple(merged.items()), b)


def _element_extend_quotient_acting(g, pi):
    target = WreathGroup(g.group.lamp, pi.target)
    acc = {}
    for k, v in g.pairs:
        kk = pi(k)
        acc[kk] = acc[kk] + v if kk in acc else v
    return WreathElement(target, tuple(acc.items()), pi(g.b))


def _element_extend_quotient_base(g, pi):
    target = WreathGroup(pi.target, g.group.base)
    return WreathElement(target, tuple((k, pi(v)) for k, v in g.pairs), g.b)


# torsion in the lamps, in the acting group or in both, so that sums
# wrap, cancel to zero and merge keys
TUPLE_ORACLE_GROUPS = ["Z/6 wr Z/4 x Z/6", "Z x Z/4 wr Z x Z/2", "Z/2 wr Z^3"]


def test_tuple_arithmetic_matches_element_oracles():
    rng = random.Random("tuple-arithmetic")
    for text in TUPLE_ORACLE_GROUPS:
        A, B = (parse_group(s) for s in text.split(" wr "))
        W = WreathGroup(A, B)
        for _ in range(120):
            g, h, z = (_random_element(rng, W, rng.randint(0, 6), 2) for _ in range(3))
            # a conjugator with no acting part, and factors without pairs
            unshifted = WreathElement(W, z.pairs, B.zero())
            for x, y in [(g, h), (z, g), (unshifted, g), (g, W.identity()), (W.element({}, h.b.coords), g)]:
                assert multiply(x, y) == _element_multiply(x, y)
                assert conjugate(x, y) == _element_conjugate(x, y)
            assert multiply(g, inverse(g)) == W.identity()
            for x in (g, h, unshifted):
                assert inverse(x) == _element_inverse(x)
            for m in (1, 2, 3, rng.randint(4, 12)):
                pi = quotient_mod(B, m)
                assert extend_quotient_acting(g, pi) == _element_extend_quotient_acting(g, pi)
                pi = quotient_mod(A, m)
                assert extend_quotient_base(g, pi) == _element_extend_quotient_base(g, pi)
