"""Wreath products A wr B of finitely generated abelian groups.

Elements are pairs (f, b): f a finitely supported map B -> A, b in B.
The acting copy of B translates supports, (b.f)(x) = f(x - b), so the
support of b.f is supp(f) + b. Multiplication is
(f1, b1)(f2, b2) = (f1 + b1.f2, b1 + b2), so (h, c)^{-1} = (-(-c).h, -c)
and conjugation is (h, c)(f, b)(h, c)^{-1} = (h + c.f - b.h, b).
A translate b.f has the lamp sum of f, so (f, b) -> (sum of f, b) is a
homomorphism onto the abelian group A x B, under which conjugates have
one image; `conjugate_test` answers nonconjugate when the two images
differ, without reducing either element.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import add, neg, sub
from typing import Iterable, Mapping, Optional

from .abelian import (
    AbelianElement,
    AbelianGroup,
    GroupMismatchError,
    _element,
    _reduced,
    element_order,
    format_group,
    parse_group,
    solve_multiple,
    word_length_abelian,
)


class ContractError(RuntimeError):
    """A construction failed its own re-check."""


@dataclass(frozen=True)
class WreathGroup:
    lamp: AbelianGroup
    base: AbelianGroup

    def identity(self) -> "WreathElement":
        return WreathElement(self, (), self.base.zero())

    def element(
        self,
        f: Mapping[AbelianElement, AbelianElement] | Iterable,
        b,
    ) -> "WreathElement":
        items = f.items() if isinstance(f, Mapping) else f
        pairs = []
        for k, v in items:
            if not isinstance(k, AbelianElement):
                k = self.base.element(k)
            if not isinstance(v, AbelianElement):
                v = self.lamp.element(v)
            pairs.append((k, v))
        if not isinstance(b, AbelianElement):
            b = self.base.element(b)
        return WreathElement(self, tuple(pairs), b)

    def delta(self, key, value, b=None) -> "WreathElement":
        """Single-lamp element; b defaults to the identity."""
        return self.element([(key, value)], b if b is not None else self.base.zero())

    def order(self) -> Optional[int]:
        na, nb = self.lamp.order(), self.base.order()
        if na is None or nb is None:
            return None
        return na**nb * nb

    def __str__(self) -> str:
        return f"{format_group(self.lamp)} wr {format_group(self.base)}"


def _canonical_pairs(group: WreathGroup, pairs) -> tuple:
    base, lamp = group.base, group.lamp
    merged: dict[AbelianElement, AbelianElement] = {}
    for k, v in pairs:
        if k.group is not base and k.group != base:
            raise GroupMismatchError("support key outside the base group")
        if v.group is not lamp and v.group != lamp:
            raise GroupMismatchError("lamp value outside the lamp group")
        merged[k] = merged[k] + v if k in merged else v
    out = [(k, v) for k, v in merged.items() if not v.is_zero()]
    out.sort(key=_key_coords)
    return tuple(out)


def _key_coords(kv) -> tuple:
    return kv[0].coords


@dataclass(frozen=True)
class WreathElement:
    group: WreathGroup
    pairs: tuple
    b: AbelianElement

    def __post_init__(self):
        object.__setattr__(self, "pairs", _canonical_pairs(self.group, self.pairs))
        if self.b.group != self.group.base:
            raise GroupMismatchError("acting coordinate outside the base group")

    def f_map(self) -> dict[AbelianElement, AbelianElement]:
        return dict(self.pairs)

    def support(self) -> tuple[AbelianElement, ...]:
        return tuple(k for k, _ in self.pairs)

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        return multiply(self, other)

    def inv(self) -> "WreathElement":
        return inverse(self)

    def __str__(self) -> str:
        lamp = " + ".join(f"{v}@{k}" for k, v in self.pairs) or "0"
        return f"({lamp}, {self.b})"


def _wreath(group: WreathGroup, pairs: tuple, b: AbelianElement) -> WreathElement:
    """An element from pairs already canonical (merged, nonzero, sorted
    by key, in the group's lamp and base) and b in the base; no checks."""
    g = _new(WreathElement)
    _set(g, "group", group)
    _set(g, "pairs", pairs)
    _set(g, "b", b)
    return g


_new = object.__new__
_set = object.__setattr__


def _check_same_group(g1: WreathElement, g2: WreathElement):
    if g1.group is not g2.group and g1.group != g2.group:
        raise GroupMismatchError("elements of different wreath products")


# multiply, inverse, conjugate and reduce run on coordinate tuples: keys
# and values are merged in a dict from key coordinates to value
# coordinates, and elements are built once, for the pairs of the result
# (`_pairs_from`). The factors are valid elements of one group, so only
# merging, dropping zeros and sorting are left to do. A factor without
# pairs adds only its acting part, and a translation by 0 keeps the
# pairs as they are.


def _pairs_from(group: WreathGroup, merged: dict) -> tuple:
    """Canonical pairs from a dict of key coordinates (reduced) to value
    coordinates (sums not yet reduced): each value reduced once, zeros
    dropped, sorted by key."""
    lamp = group.lamp
    items = []
    for k, v in merged.items():
        v = _reduced(lamp, v)
        if any(v):
            items.append((k, v))
    items.sort()
    return _elements(group, items)


def _elements(group: WreathGroup, items) -> tuple:
    """The pairs of elements for canonical coordinate items (distinct
    reduced keys in order, reduced nonzero values)."""
    base, lamp = group.base, group.lamp
    return tuple([(_element(base, k), _element(lamp, v)) for k, v in items])


def _merge_into(merged: dict, pairs, shift, base: AbelianGroup, op) -> None:
    """Adds (op = add) or subtracts (op = sub) the translate shift.f of
    the map with element pairs `pairs` into `merged`; shift is a
    coordinate tuple, or None for no translation."""
    for k, v in pairs:
        kc = k.coords if shift is None else _reduced(base, map(add, k.coords, shift))
        old = merged.get(kc)
        if old is None:
            merged[kc] = v.coords if op is add else tuple(map(neg, v.coords))
        else:
            merged[kc] = tuple(map(op, old, v.coords))


def multiply(g1: WreathElement, g2: WreathElement) -> WreathElement:
    _check_same_group(g1, g2)
    b1 = g1.b
    if not g2.pairs:
        return _wreath(g1.group, g1.pairs, b1 + g2.b)
    no_shift = b1.is_zero()
    if not g1.pairs and no_shift:
        return _wreath(g1.group, g2.pairs, g2.b)
    group = g1.group
    merged = {k.coords: v.coords for k, v in g1.pairs}
    _merge_into(merged, g2.pairs, None if no_shift else b1.coords, group.base, add)
    return _wreath(group, _pairs_from(group, merged), b1 + g2.b)


def inverse(g: WreathElement) -> WreathElement:
    nb = -g.b
    group = g.group
    base, lamp, shift = group.base, group.lamp, nb.coords
    items = [
        (_reduced(base, map(add, k.coords, shift)), _reduced(lamp, map(neg, v.coords)))
        for k, v in g.pairs
    ]
    items.sort()
    return _wreath(group, _elements(group, items), nb)


def conjugate(z: WreathElement, g: WreathElement) -> WreathElement:
    """z g z^{-1} = (h + c.f - b.h, b) for z = (h, c) and g = (f, b),
    merged in one pass."""
    _check_same_group(z, g)
    c, b = z.b, g.b
    no_shift = c.is_zero()
    if no_shift and not z.pairs:
        return g
    group = z.group
    base = group.base
    merged = {k.coords: v.coords for k, v in z.pairs}
    _merge_into(merged, g.pairs, None if no_shift else c.coords, base, add)
    _merge_into(merged, z.pairs, None if b.is_zero() else b.coords, base, sub)
    return _wreath(group, _pairs_from(group, merged), b)


# ---------------------------------------------------------------------------
# word length


def _walk_cost_line(points: list[int], end: int) -> int:
    lo = min(points + [0, end])
    hi = max(points + [0, end])
    return 2 * (hi - lo) - abs(end)


def _walk_cost_dp(points: list[AbelianElement], end: AbelianElement) -> int:
    # exact shortest walk 0 -> all points -> end, Held-Karp over <= 12 points
    pts = points
    n = len(pts)
    if n == 0:
        return word_length_abelian(end)
    dist0 = [word_length_abelian(p) for p in pts]
    dist = [[word_length_abelian(p - q) for q in pts] for p in pts]
    full = (1 << n) - 1
    best = [[None] * n for _ in range(1 << n)]
    for i in range(n):
        best[1 << i][i] = dist0[i]
    for mask in range(1, full + 1):
        row = best[mask]
        for last in range(n):
            cur = row[last]
            if cur is None or not (mask >> last) & 1:
                continue
            for nxt in range(n):
                if (mask >> nxt) & 1:
                    continue
                m2 = mask | (1 << nxt)
                cand = cur + dist[last][nxt]
                prev = best[m2][nxt]
                if prev is None or cand < prev:
                    best[m2][nxt] = cand
    return min(
        best[full][i] + word_length_abelian(end - pts[i]) for i in range(n)
    )


def _walk_cost_greedy(points: list[AbelianElement], end, zero) -> int:
    cur = zero
    remaining = sorted(points, key=lambda p: p.coords)
    total = 0
    while remaining:
        nxt = min(remaining, key=lambda p: (word_length_abelian(p - cur), p.coords))
        total += word_length_abelian(nxt - cur)
        cur = nxt
        remaining.remove(nxt)
    return total + word_length_abelian(end - cur)


def word_length_info(g: WreathElement) -> tuple[int, bool]:
    """(word length, exact flag).

    The walk part is exact on a free rank-one base for any support, and
    exact by dynamic programming up to 12 support points elsewhere;
    beyond that a nearest-neighbour upper bound is returned with the
    flag cleared.
    """
    base = g.group.base
    lamps = sum(word_length_abelian(v) for _, v in g.pairs)
    supp = list(g.support())
    if base.free_rank == 1 and not base.torsion:
        walk = _walk_cost_line([k.coords[0] for k in supp], g.b.coords[0])
        return walk + lamps, True
    if len(supp) <= 12:
        return _walk_cost_dp(supp, g.b) + lamps, True
    return _walk_cost_greedy(supp, g.b, base.zero()) + lamps, False


# ---------------------------------------------------------------------------
# coset bookkeeping along the cyclic subgroup generated by the acting part


def same_coset(x: AbelianElement, y: AbelianElement, b: AbelianElement) -> bool:
    return solve_multiple(x - y, b) is not None


def coset_key(b: AbelianElement):
    """The coset-key function of <b>: x -> (key, t) on the coordinate
    tuples x of b's group, where key is the coordinate tuple of one
    representative rep of x + <b>, the same for the whole coset, and
    x = rep + t*b, with t taken mod the order of b when that is finite.

    When b has a nonzero free coordinate, the first one, b_i, fixes
    t = x_i // b_i. Otherwise rep is the lexicographically least point
    of x + <b>, found by one gcd step per torsion coordinate: the
    shifts s still allowed form a class s0 + M*Z, along which the
    coordinate x_j + s*b_j runs through c + gcd(M*b_j, n_j)*Z mod n_j,
    so its least value is c mod that gcd and fixes s modulo
    M * n_j / gcd(M*b_j, n_j). The last such M is the order of b.
    """
    group, bc = b.group, b.coords
    k = group.free_rank
    pivot = next((i for i in range(k) if bc[i]), None)
    if pivot is not None:
        bi = bc[pivot]

        def free_key(xc: tuple) -> tuple[tuple, int]:
            t = xc[pivot] // bi
            return _reduced(group, [a - t * c for a, c in zip(xc, bc)]), t

        return free_key
    steps = []
    m = 1
    for j, n in enumerate(group.torsion, k):
        a = m * bc[j] % n
        d = math.gcd(a, n)
        if d < n:
            steps.append((j, bc[j], n, d, pow(a // d, -1, n // d), n // d, m))
            m *= n // d
    order = m

    def torsion_key(xc: tuple) -> tuple[tuple, int]:
        s = 0
        for j, bj, n, d, inv, nd, mj in steps:
            c = (xc[j] + s * bj) % n
            s += -(c // d) * inv % nd * mj  # brings coordinate j to c mod d
        if not s:
            return xc, 0
        return _reduced(group, [a + s * c for a, c in zip(xc, bc)]), order - s

    return torsion_key


def _keyed_classes(points, key) -> list[list[tuple[tuple, int]]]:
    """The points (coordinate tuples) grouped by coset, each as (point,
    t) pairs: points in coordinate order within a class, classes by
    their least point."""
    classes: dict = {}
    for p in sorted(points):
        rep, t = key(p)
        classes.setdefault(rep, []).append((p, t))
    return list(classes.values())


def _solve_twist(d: dict, b: AbelianElement, lamp: AbelianGroup) -> Optional[dict]:
    """h with h - b.h = d, or None when some coset sum is nonzero; d
    and h map key coordinates to reduced value coordinates."""
    support = [k for k, v in d.items() if any(v)]
    order = element_order(b)
    h: dict = {}
    for cls in _keyed_classes(support, coset_key(b)):
        pairs, total = _running_sums([(t, p, d[p]) for p, t in cls], b, order, lamp)
        if any(total):
            return None
        h.update(pairs)
    return h


def _running_sums(walk: list, b: AbelianElement, order, lamp: AbelianGroup) -> tuple:
    """The pairs (coordinate tuples) of h with h - b.h = d on one coset
    of <b>, and the sum of d over it (h exists iff that is 0), from
    walk = [(t, p, d(p))] for p = rep + t*b in coordinate order, with
    d(p) a value tuple that is all zeros iff d(p) = 0 (reduced, or a
    difference of two reduced tuples). h is the running sum of d along
    the coset, each sum reduced once; when b has finite order it starts
    at the first point of the walk where d is nonzero."""
    if order is not None:
        start = next(t for t, _, dv in walk if any(dv))
        walk = [((t - start) % order, p, dv) for t, p, dv in walk]
    walk.sort(key=_first)
    base, bc = b.group, b.coords
    out = []
    acc = (0,) * lamp.rank
    for (t, p, dv), (t_next, _, _) in zip(walk, walk[1:]):
        acc = _reduced(lamp, map(add, acc, dv))
        if any(acc):
            for _ in range(t_next - t):
                out.append((p, acc))
                p = _reduced(base, map(add, p, bc))
    return out, _reduced(lamp, map(add, acc, walk[-1][2]))


def _first(item):
    return item[0]


def _f_difference(f2: dict, f1_shifted: dict, lamp: AbelianGroup) -> dict:
    """f2 - f1_shifted on key coordinates, values reduced, zeros dropped."""
    out = dict(f2)
    for k, v in f1_shifted.items():
        old = out.get(k)
        out[k] = tuple(map(neg, v)) if old is None else tuple(map(sub, old, v))
    out = {k: _reduced(lamp, v) for k, v in out.items()}
    return {k: v for k, v in out.items() if any(v)}


# ---------------------------------------------------------------------------
# reduction to one support point per coset


def is_reduced(g: WreathElement) -> bool:
    key = coset_key(g.b)
    return len({key(k.coords)[0] for k, _ in g.pairs}) == len(g.pairs)


def reduce(g: WreathElement) -> tuple[WreathElement, WreathElement]:
    """Reduced conjugate plus a conjugator z with z g z^{-1} reduced.

    All lamp values inside one coset of <b> are accumulated onto the
    coset's least support point. Each support point is keyed once
    (`coset_key`); a coset of one point keeps its pair, as the same
    elements, and adds nothing to z. Otherwise z = (h, 0) with
    h - b.h = d, d the reduced minus the given lamp values, by running
    sums along each coset over the offsets the key returned
    (`_running_sums`), on coordinate tuples; elements are built for the
    coset sums and the pairs of h only.
    """
    b = g.b
    group = g.group
    lamp = group.lamp
    key = coset_key(b)
    classes: dict = {}
    for p, v in g.pairs:
        rep, t = key(p.coords)
        cls = classes.get(rep)
        if cls is None:
            classes[rep] = [(t, p, v)]
        else:
            cls.append((t, p, v))
    target, h = [], []
    # the pairs are in coordinate order, so the classes come in the
    # order of their least points and target needs no sort
    for cls in classes.values():
        t0, p0, v0 = cls[0]
        if len(cls) == 1:
            target.append((p0, v0))
            continue
        total = _reduced(lamp, map(sum, zip(*[v.coords for _, _, v in cls])))
        if any(total):
            target.append((p0, _element(lamp, total)))
        walk = [(t0, p0.coords, tuple(map(sub, total, v0.coords)))]
        walk += [(t, p.coords, tuple(map(neg, v.coords))) for t, p, v in cls[1:]]
        h += _running_sums(walk, b, element_order(b), lamp)[0]
    h.sort()
    z = _wreath(group, _elements(group, h), group.base.zero())
    reduced = _wreath(group, tuple(target), b)
    if conjugate(z, g) != reduced:
        raise ContractError("reduced conjugate fails its own check")
    return reduced, z


# ---------------------------------------------------------------------------
# translation of finite subsets of the base group


def all_translators(xs, ys) -> set[AbelianElement]:
    """All c with c + X = Y. Raises on empty input sets."""
    xs, ys = set(xs), set(ys)
    if not xs or not ys:
        raise ValueError("translator search needs nonempty sets")
    if len(xs) != len(ys):
        return set()
    x0 = min(xs, key=lambda p: p.coords)
    out = set()
    for y in ys:
        c = y - x0
        if {x + c for x in xs} == ys:
            out.add(c)
    return out


# ---------------------------------------------------------------------------
# conjugacy


def conjugate_test(g1: WreathElement, g2: WreathElement) -> Optional[WreathElement]:
    """A conjugating element, or None when g1 and g2 are not conjugate.

    For equal acting parts the criterion is: some translation c matches
    the coset-sum maps of the reduced lamp configurations, after which
    the leftover difference has vanishing coset sums and lifts to an
    explicit corrector. Candidate translations only matter modulo <b>,
    so they are read off support point differences, and none is tried
    when the reduced lamp values of g1 and g2 differ as multisets. Every
    witness w is re-checked, conjugate(w, g1) == g2, before it is
    returned.

    Neither element is reduced when the images of g1 and g2 in the
    abelianisation A x B differ: (f, b) -> (sum of f, b) is a
    homomorphism to an abelian group (the sum of c.f is the sum of f),
    so conjugates have equal acting parts and equal lamp sums.
    """
    _check_same_group(g1, g2)
    if g1.b != g2.b or _lamp_sum(g1) != _lamp_sum(g2):
        return None
    return conjugate_reduced(g1, g2, reduce(g1), reduce(g2))


def _lamp_sum(g: WreathElement) -> tuple:
    """The coordinates of the sum of g's lamp values in A."""
    lamp = g.group.lamp
    # the zero row gives the sum A's rank when g has no lamps
    return _reduced(lamp, map(sum, zip((0,) * lamp.rank, *(v.coords for _, v in g.pairs))))


def conjugate_reduced(
    g1: WreathElement, g2: WreathElement, red1, red2
) -> Optional[WreathElement]:
    """`conjugate_test(g1, g2)` from `red1 = reduce(g1)` and
    `red2 = reduce(g2)`, for callers that need the reduced forms too.
    Candidate translations are matched on coordinate tuples; elements
    are built only for a translation that passes the match."""
    _check_same_group(g1, g2)
    if g1.b != g2.b:
        return None
    r1, z1 = red1
    r2, z2 = red2
    b = r1.b
    if len(r1.pairs) != len(r2.pairs):
        return None
    if not r1.pairs:
        w = multiply(inverse(z2), z1)
        if conjugate(w, g1) != g2:
            raise ContractError("conjugator fails its own check")
        return w
    f1 = [(k.coords, v.coords) for k, v in r1.pairs]
    f2 = {k.coords: v.coords for k, v in r2.pairs}
    # a conjugating translation matches the reduced points one to one,
    # value for value, so the value multisets must agree
    if sorted(v for _, v in f1) != sorted(f2.values()):
        return None
    # both configurations are reduced: one support point per coset, so a
    # point of the translated r1 can only match the r2 point of its coset
    group = g1.group
    base, lamp = group.base, group.lamp
    key = coset_key(b)
    at = {key(y)[0]: y for y in f2}
    x0 = f1[0][0]
    for y in f2:
        c = _reduced(base, map(sub, y, x0))
        shifted = {_reduced(base, map(add, x, c)): v for x, v in f1}
        for x, v in shifted.items():
            match = at.get(key(x)[0])
            if match is None or f2[match] != v:
                break
        else:
            h = _solve_twist(_f_difference(f2, shifted, lamp), b, lamp)
            if h is not None:
                inner = _wreath(group, _elements(group, sorted(h.items())), _element(base, c))
                w = multiply(inverse(z2), multiply(inner, z1))
                if conjugate(w, g1) == g2:
                    return w
    return None


def brute_force_conjugate(
    g1: WreathElement, g2: WreathElement, budget: int = 10**6
) -> Optional[WreathElement]:
    """Exhaustive conjugator scan in a finite wreath product.

    Refuses when |A|^|B| * |B| exceeds the budget, or when the packed
    element kernel behind it refuses the group (`kernel.MAX_TABLE_ENTRIES`);
    the witness is decoded and re-verified.
    """
    from . import kernel

    _check_same_group(g1, g2)
    order = g1.group.order()
    if order is None:
        raise ValueError("brute force needs a finite wreath product")
    if order > budget:
        raise ValueError(f"group order {order} exceeds budget {budget}")
    kern = kernel.kernel_for(g1.group)
    zid = kern.find_conjugator(kernel.encode(kern, g1), kernel.encode(kern, g2))
    if zid is None:
        return None
    z = kernel.decode(kern, g1.group, zid)
    if conjugate(z, g1) != g2:
        raise ContractError("brute-force conjugator fails its own check")
    return z


# ---------------------------------------------------------------------------
# quotients at the wreath level


def extend_quotient_acting(g: WreathElement, pi) -> WreathElement:
    """Apply a base-group quotient to keys and acting part, summing
    fibers on coordinate tuples."""
    acting = pi(g.b)  # checks that g's base is pi's source
    target = WreathGroup(g.group.lamp, pi.target)
    image = pi.image_coords
    merged: dict = {}
    for k, v in g.pairs:
        kc = image(k.coords)
        old = merged.get(kc)
        merged[kc] = v.coords if old is None else tuple(map(add, old, v.coords))
    return _wreath(target, _pairs_from(target, merged), acting)


def extend_quotient_base(g: WreathElement, pi) -> WreathElement:
    """Apply a lamp-group quotient to every value; the keys are kept."""
    lamp = g.group.lamp
    if lamp is not pi.source and lamp != pi.source:
        raise GroupMismatchError("element does not belong to the source group")
    target = WreathGroup(pi.target, g.group.base)
    image = pi.image_coords
    pairs = []
    for k, v in g.pairs:
        vc = image(v.coords)
        if any(vc):
            pairs.append((k, _element(pi.target, vc)))
    return _wreath(target, tuple(pairs), g.b)


# ---------------------------------------------------------------------------
# JSON encoding


def element_to_json(g: WreathElement) -> str:
    doc = {
        "A": format_group(g.group.lamp),
        "B": format_group(g.group.base),
        "f": [[list(k.coords), list(v.coords)] for k, v in g.pairs],
        "b": list(g.b.coords),
    }
    return json.dumps(doc, separators=(",", ":"))


def element_from_json(text: str | dict) -> WreathElement:
    doc = json.loads(text) if isinstance(text, str) else text
    if not isinstance(doc, dict):
        raise ValueError("an element is a JSON object")
    for field in ("A", "B", "f", "b"):
        if field not in doc:
            raise ValueError(f"missing field {field!r}")
    for field in ("A", "B"):
        if not isinstance(doc[field], str):
            raise ValueError(f"field {field!r} must be a group descriptor string")
    if not isinstance(doc["f"], list):
        raise ValueError("field 'f' must be a list of [key, value] pairs")
    lamp = parse_group(doc["A"])
    base = parse_group(doc["B"])
    group = WreathGroup(lamp, base)
    seen = set()
    pairs = []
    for entry in doc["f"]:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValueError("support entries must be [key, value] pairs")
        k = AbelianElement(base, entry[0])
        v = AbelianElement(lamp, entry[1])
        if k in seen:
            raise ValueError(f"duplicate support key {k}")
        if v.is_zero():
            raise ValueError(f"zero lamp value at {k}")
        seen.add(k)
        pairs.append((k, v))
    return WreathElement(group, tuple(pairs), AbelianElement(base, doc["b"]))
