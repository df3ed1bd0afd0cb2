"""Finite-group kernel: packed elements of a finite wreath product.

Elements are packed into one integer: id = f_code * |B| + b_index with
f_code the little-endian base-|A| encoding of the lamp row. The kernel
backs `verify.criterion_5` and the brute-force oracle
`wreath.brute_force_conjugate`.
"""

from __future__ import annotations

import math

from .abelian import AbelianElement, AbelianGroup
from .wreath import WreathElement, WreathGroup

# The only backend; perfbench records it in each result's environment line.
BACKEND = "pure"

MAX_TABLE_ENTRIES = 1 << 12


def _mixed_radix_tables(orders: tuple[int, ...]):
    n = math.prod(orders)
    coords = []
    for i in range(n):
        rest = i
        c = []
        for m in orders:
            c.append(rest % m)
            rest //= m
        coords.append(tuple(c))
    add = [[0] * n for _ in range(n)]
    neg = [0] * n
    for i in range(n):
        for j in range(n):
            idx = 0
            mul = 1
            for (a, b), m in zip(zip(coords[i], coords[j]), orders):
                idx += ((a + b) % m) * mul
                mul *= m
            add[i][j] = idx
        idx = 0
        mul = 1
        for a, m in zip(coords[i], orders):
            idx += ((m - a) % m) * mul
            mul *= m
        neg[i] = idx
    return n, add, neg


class FiniteWreathKernel:
    """Addition tables of A and B and the conjugation action on packed ids.

    Refuses, with ValueError and before building any table, a group whose
    tables would hold |A|^2 + |B|^2 > MAX_TABLE_ENTRIES entries. The
    largest group any caller uses has |A| <= 3 and |B| <= 4, 25 entries.
    The cap is a constant, not an option: the kernel is a brute-force
    oracle for small groups, and a larger cap would only let a caller
    allocate tables quadratic in |A| (2^80 entries for (Z/2)^40).
    """

    def __init__(self, a_orders, b_orders):
        self.a_orders = tuple(int(x) for x in a_orders)
        self.b_orders = tuple(int(x) for x in b_orders)
        entries = math.prod(self.a_orders) ** 2 + math.prod(self.b_orders) ** 2
        if entries > MAX_TABLE_ENTRIES:
            raise ValueError(
                f"kernel tables need {entries} entries, above {MAX_TABLE_ENTRIES}"
            )
        self.na, self.add_a, self.neg_a = _mixed_radix_tables(self.a_orders)
        self.nb, self.add_b, self.neg_b = _mixed_radix_tables(self.b_orders)
        self.sub_b = [
            [self.add_b[x][self.neg_b[y]] for y in range(self.nb)]
            for x in range(self.nb)
        ]
        self.order = self.na**self.nb * self.nb

    def _digits(self, code: int) -> list[int]:
        out = []
        for _ in range(self.nb):
            code, d = divmod(code, self.na)
            out.append(d)
        return out

    def conjugate(self, gid: int, zid: int) -> int:
        """Packed id of z g z^{-1}."""
        nb = self.nb
        fcode, b = divmod(gid, nb)
        hcode, c = divmod(zid, nb)
        f = self._digits(fcode)
        h = self._digits(hcode)
        add_a, neg_a, sub = self.add_a, self.neg_a, self.sub_b
        out = 0
        mul = 1
        for x in range(nb):
            row = sub[x]
            val = add_a[h[x]][add_a[f[row[c]]][neg_a[h[row[b]]]]]
            out += val * mul
            mul *= self.na
        return out * nb + b

    def find_conjugator(self, g1: int, g2: int):
        if g1 % self.nb != g2 % self.nb:
            return None
        for zid in range(self.order):
            if self.conjugate(g1, zid) == g2:
                return zid
        return None

    def conjugacy_class_table(self) -> list[int]:
        """class representative (least member id) for every element id."""
        table = [-1] * self.order
        for g in range(self.order):
            if table[g] >= 0:
                continue
            table[g] = g
            for z in range(self.order):
                h = self.conjugate(g, z)
                if table[h] < 0:
                    table[h] = g
        return table


def kernel_for(group: WreathGroup) -> FiniteWreathKernel:
    if group.lamp.free_rank or group.base.free_rank:
        raise ValueError("kernel needs a finite wreath product")
    return FiniteWreathKernel(group.lamp.torsion, group.base.torsion)


def abelian_index(x: AbelianElement) -> int:
    idx, mul = 0, 1
    for c, n in zip(x.coords, x.group.torsion):
        idx += c * mul
        mul *= n
    return idx


def abelian_from_index(group: AbelianGroup, idx: int) -> AbelianElement:
    coords = []
    for n in group.torsion:
        idx, c = divmod(idx, n)
        coords.append(c)
    return AbelianElement(group, tuple(coords))


def encode(kern, g: WreathElement) -> int:
    fmap = g.f_map()
    fcode, mul = 0, 1
    for pos in range(kern.nb):
        key = abelian_from_index(g.group.base, pos)
        v = fmap.get(key)
        if v is not None:
            fcode += abelian_index(v) * mul
        mul *= kern.na
    return fcode * kern.nb + abelian_index(g.b)


def decode(kern, group: WreathGroup, eid: int) -> WreathElement:
    fcode, bidx = divmod(eid, kern.nb)
    pairs = []
    for pos in range(kern.nb):
        fcode, digit = divmod(fcode, kern.na)
        if digit:
            pairs.append(
                (
                    abelian_from_index(group.base, pos),
                    abelian_from_index(group.lamp, digit),
                )
            )
    return WreathElement(group, tuple(pairs), abelian_from_index(group.base, bidx))
