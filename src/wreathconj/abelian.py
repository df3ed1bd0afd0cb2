"""Finitely generated abelian groups with exact integer arithmetic.

A group is Z^k plus a list of cyclic torsion factors, stored as given
(no Smith normalization; structural equality is intentional). Elements
are coordinate tuples; torsion coordinates live in [0, n).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from operator import add, mod, neg, sub
from typing import Iterator, Optional


class GroupMismatchError(ValueError):
    """Raised when elements of different groups are combined."""


@dataclass(frozen=True)
class AbelianGroup:
    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be >= 0")
        if not isinstance(self.torsion, tuple):
            object.__setattr__(self, "torsion", tuple(self.torsion))
        for n in self.torsion:
            if n < 2:
                raise ValueError("torsion orders must be >= 2")

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> Optional[int]:
        """Group order, or None when the group is infinite."""
        if self.free_rank > 0:
            return None
        return math.prod(self.torsion)

    def torsion_exponent(self) -> int:
        # lcm of the torsion orders; 1 when there is no torsion
        return math.lcm(*self.torsion) if self.torsion else 1

    def zero(self) -> "AbelianElement":
        return _element(self, (0,) * self.rank)

    def element(self, coords) -> "AbelianElement":
        if isinstance(coords, int):
            coords = (coords,)
        return AbelianElement(self, tuple(coords))

    def elements(self) -> Iterator["AbelianElement"]:
        """Iterate the whole group. Finite groups only."""
        if not self.is_finite():
            raise ValueError("cannot enumerate an infinite group")
        for coords in itertools.product(*(range(n) for n in self.torsion)):
            yield AbelianElement(self, coords)

    def __str__(self) -> str:
        return format_group(self)


@dataclass(frozen=True)
class AbelianElement:
    group: AbelianGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        g = self.group
        if not isinstance(self.coords, tuple):
            try:
                object.__setattr__(self, "coords", tuple(self.coords))
            except TypeError:
                raise ValueError(f"coordinates {self.coords!r} are not a list") from None
        for c in self.coords:
            if type(c) is not int:  # also rejects bool
                raise ValueError(f"coordinate {c!r} is not an integer")
        if len(self.coords) != g.rank:
            raise ValueError(
                f"expected {g.rank} coordinates, got {len(self.coords)}"
            )
        k = g.free_rank
        reduced = self.coords[:k] + tuple(
            c % n for c, n in zip(self.coords[k:], g.torsion)
        )
        if reduced != self.coords:
            object.__setattr__(self, "coords", reduced)

    # Equality and hashing: an element is its group and its coordinates,
    # and the hash uses the coordinates only, so sets and dicts of one
    # group's elements never hash the group.
    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not AbelianElement:
            return NotImplemented
        return self.coords == other.coords and (
            self.group is other.group or self.group == other.group
        )

    def __hash__(self):
        return hash(self.coords)

    def _check(self, other: "AbelianElement"):
        if self.group is not other.group and self.group != other.group:
            raise GroupMismatchError(
                f"elements of {self.group} and {other.group} cannot be combined"
            )

    # The arithmetic below builds its results with `_element`, which skips
    # `__post_init__`: the coordinates are already a tuple of the right
    # length, and torsion coordinates are reduced here.
    def __add__(self, other: "AbelianElement") -> "AbelianElement":
        self._check(other)
        g = self.group
        return _element(g, _reduced(g, map(add, self.coords, other.coords)))

    def __neg__(self) -> "AbelianElement":
        g = self.group
        return _element(g, _reduced(g, map(neg, self.coords)))

    def __sub__(self, other: "AbelianElement") -> "AbelianElement":
        self._check(other)
        g = self.group
        return _element(g, _reduced(g, map(sub, self.coords, other.coords)))

    def __mul__(self, n: int) -> "AbelianElement":
        if not isinstance(n, int):
            return NotImplemented
        g = self.group
        return _element(g, _reduced(g, (n * a for a in self.coords)))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coords)

    def free_part(self) -> tuple[int, ...]:
        return self.coords[: self.group.free_rank]

    def torsion_part(self) -> tuple[int, ...]:
        return self.coords[self.group.free_rank :]

    def __str__(self) -> str:
        return format_element(self)


def _element(group: AbelianGroup, coords: tuple) -> AbelianElement:
    """An element from coordinates already of the group's rank, with
    torsion coordinates already reduced; no checks."""
    x = _new(AbelianElement)
    _set(x, "group", group)
    _set(x, "coords", coords)
    return x


def _reduced(group: AbelianGroup, values) -> tuple:
    """The coordinates `values` (one per coordinate of the group) with
    torsion coordinates reduced into [0, n)."""
    if not group.torsion:
        return tuple(values)
    k = group.free_rank
    if not k:
        return tuple(map(mod, values, group.torsion))
    coords = tuple(values)
    return coords[:k] + tuple(map(mod, coords[k:], group.torsion))


_new = object.__new__
_set = object.__setattr__


def word_length_abelian(x: AbelianElement) -> int:
    """Word length over the standard generators.

    Free coordinates contribute |c|, torsion coordinates the cyclic
    distance min(c, n - c).
    """
    g = x.group
    total = sum(abs(c) for c in x.free_part())
    for c, n in zip(x.torsion_part(), g.torsion):
        total += min(c, n - c)
    return total


@dataclass(frozen=True)
class QuotientMap:
    """Reduction of every free coordinate mod m, identity on torsion.

    m = 1 collapses the free part entirely, so the target is the torsion
    subgroup. For m >= 2 the target has no free part and picks up one Z/m
    factor per free coordinate of the source.
    """

    source: AbelianGroup
    modulus: int
    target: AbelianGroup = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        # one group object per map, so its images share it
        torsion = self.source.torsion
        if self.modulus > 1:
            torsion = (self.modulus,) * self.source.free_rank + torsion
        object.__setattr__(self, "target", AbelianGroup(0, torsion))

    def image_coords(self, coords: tuple) -> tuple:
        """The coordinates of the image of the source element with
        coordinates `coords`; no group check."""
        if self.modulus == 1:
            return coords[self.source.free_rank :]
        return _reduced(self.target, coords)

    def __call__(self, x: AbelianElement) -> AbelianElement:
        if x.group is not self.source and x.group != self.source:
            raise GroupMismatchError("element does not belong to the source group")
        return _element(self.target, self.image_coords(x.coords))


def quotient_mod(group: AbelianGroup, m: int) -> QuotientMap:
    return QuotientMap(group, m)


def _xgcd2(u: int, v: int) -> tuple[int, int, int]:
    """g, s, t with s*u + t*v = g = gcd(u, v), |s| minimized."""
    if u == 0 and v == 0:
        return 0, 0, 0
    if u == 0:
        return abs(v), 0, 1 if v > 0 else -1
    if v == 0:
        return abs(u), 1 if u > 0 else -1, 0
    g = math.gcd(u, v)
    uq, vq = u // g, v // g
    va = abs(vq)
    if va == 1:
        s = 0
    else:
        s = pow(uq % va, -1, va)
        if s > va // 2:
            s -= va
    t = (g - s * u) // v
    return g, s, t


def _crt_merge(r1: int, m1: int, r2: int, m2: int) -> Optional[tuple[int, int]]:
    # solve t = r1 (mod m1), t = r2 (mod m2); None when incompatible
    g = math.gcd(m1, m2)
    if (r2 - r1) % g != 0:
        return None
    l = m1 // g * m2
    step = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g)
    return (r1 + m1 * step) % l, l


def solve_multiple(s: AbelianElement, b: AbelianElement) -> Optional[int]:
    """Integer t with t*b == s, or None.

    When b has infinite order the solution is unique; otherwise the
    smallest nonnegative solution is returned.
    """
    s._check(b)
    g = s.group
    k = g.free_rank

    t_free: Optional[int] = None
    for i in range(k):
        bi, si = b.coords[i], s.coords[i]
        if bi == 0:
            if si != 0:
                return None
            continue
        if si % bi != 0:
            return None
        t = si // bi
        if t_free is None:
            t_free = t
        elif t != t_free:
            return None

    # congruences from the torsion coordinates
    r, m = 0, 1
    for j in range(len(g.torsion)):
        n = g.torsion[j]
        bj, sj = b.coords[k + j], s.coords[k + j]
        gj = math.gcd(bj, n)
        if sj % gj != 0:
            return None
        nj = n // gj
        rj = (sj // gj * pow(bj // gj, -1, nj)) % nj if nj > 1 else 0
        merged = _crt_merge(r, m, rj, nj)
        if merged is None:
            return None
        r, m = merged

    if t_free is not None:
        return t_free if (t_free - r) % m == 0 else None
    return r


def element_order(b: AbelianElement) -> Optional[int]:
    """Order of b; None when infinite."""
    if any(c != 0 for c in b.free_part()):
        return None
    order = 1
    k = b.group.free_rank
    for j, n in enumerate(b.group.torsion):
        c = b.coords[k + j]
        order = math.lcm(order, n // math.gcd(n, c))
    return order


_FACTOR_RE = re.compile(r"^(?:1|Z(?:\^(\d+))?|Z/(\d+)|F(\d+))$")


def parse_group(text: str) -> AbelianGroup:
    """Parse descriptors like "Z", "Z^2 x Z/4", "Z/3", "F2", "1"."""
    free = 0
    torsion: list[int] = []
    for raw in re.split(r"\s*x\s*", text.strip()):
        tok = raw.strip()
        m = _FACTOR_RE.match(tok)
        if not m:
            raise ValueError(f"cannot parse group factor {tok!r}")
        if tok == "1":
            continue
        if m.group(1) is not None:
            free += int(m.group(1))
        elif tok == "Z":
            free += 1
        elif m.group(2) is not None:
            torsion.append(int(m.group(2)))
        else:
            # F<p> is shorthand for the cyclic group Z/p
            torsion.append(int(m.group(3)))
    return AbelianGroup(free, tuple(torsion))


def format_group(group: AbelianGroup) -> str:
    parts = []
    if group.free_rank == 1:
        parts.append("Z")
    elif group.free_rank > 1:
        parts.append(f"Z^{group.free_rank}")
    parts.extend(f"Z/{n}" for n in group.torsion)
    return " x ".join(parts) if parts else "1"


def format_element(x: AbelianElement) -> str:
    return "[" + ",".join(str(c) for c in x.coords) + "]"
