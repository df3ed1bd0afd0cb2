"""Integer lattice kernels and bounded Bezout certificates.

Everything here is exact. The three public functions share one contract
style: the returned object is checked against its stated bound before it
leaves the function, so a violated bound raises `ContractError` instead
of propagating.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .abelian import _xgcd2
from .wreath import ContractError


def _vec_key(a: Sequence[int]) -> tuple[int, int]:
    return max(abs(x) for x in a), sum(abs(x) for x in a)


def _greedy_reduce(a: list[int], b: Sequence[int]) -> list[int]:
    # push coefficients toward the half-max box using two-coordinate
    # kernel moves (b_j, -b_i)/gcd; only strict improvements are taken
    k = len(b)
    best = _vec_key(a)
    improved = True
    while improved:
        improved = False
        for i in range(k):
            for j in range(k):
                if i == j or b[j] == 0:
                    continue
                gij = math.gcd(abs(b[i]), abs(b[j]))
                bj, bi = b[j] // gij, b[i] // gij
                base = round(a[i] / bj)
                for t in (base - 1, base, base + 1):
                    if t == 0:
                        continue
                    cand = list(a)
                    cand[i] -= t * bj
                    cand[j] += t * bi
                    key = _vec_key(cand)
                    if key < best:
                        a, best, improved = cand, key, True
    return a


def _dp_box_search(b: Sequence[int], target: int, box: int) -> list[int] | None:
    """Exact search for a with |a_i| <= box and a.b = target, or None.

    Reachable partial sums are tracked as bitmasks over [-R, R].
    """
    k = len(b)
    r = box * sum(abs(x) for x in b) + abs(target)
    width = 2 * r + 1
    clip = (1 << width) - 1
    levels = [1 << r]
    for i in range(k):
        mask = levels[-1]
        acc = 0
        for v in range(-box, box + 1):
            shift = v * b[i]
            acc |= (mask << shift if shift >= 0 else mask >> -shift) & clip
        levels.append(acc)
    pos = target + r
    if pos < 0 or pos >= width or not (levels[k] >> pos) & 1:
        return None
    coeffs = [0] * k
    for i in range(k - 1, -1, -1):
        for v in sorted(range(-box, box + 1), key=abs):
            prev = pos - v * b[i]
            if 0 <= prev < width and (levels[i] >> prev) & 1:
                coeffs[i] = v
                pos = prev
                break
        else:
            return None
    return coeffs


def ext_gcd_bounded(b: Sequence[int]) -> tuple[int, ...]:
    """Bezout vector a with sum(a_i*b_i) = gcd(b).

    For gcd(b) = 1 and k >= 2 every entry satisfies
    |a_i| <= max(1, max|b_i| // 2); that bound is checked on return.
    """
    b = tuple(int(x) for x in b)
    if not b:
        raise ValueError("empty vector")
    g = math.gcd(*b)
    if g == 0:
        return (0,) * len(b)

    a = _greedy_reduce(_bezout_chain(b)[-1][1], b)

    if g == 1 and len(b) >= 2:
        bound = max(1, max(abs(x) for x in b) // 2)
        if max(abs(x) for x in a) > bound:
            found = _dp_box_search(b, g, bound)
            if found is None:
                raise ArithmeticError(
                    f"no Bezout vector for {b} inside the half-max box"
                )
            a = found
        if max(abs(x) for x in a) > bound:
            raise ContractError(f"Bezout vector for {b} outside the half-max box")
    if sum(x * y for x, y in zip(a, b)) != g:
        raise ContractError(f"Bezout vector for {b} fails its own check")
    return tuple(a)


def _bezout_chain(b: Sequence[int]) -> list[tuple[int, list[int]]]:
    # prefix gcds G_i with Bezout coefficient vectors, one per prefix
    out = []
    acc, coeffs = 0, []
    for x in b:
        acc2, s, t = _xgcd2(acc, x)
        coeffs = [s * c for c in coeffs] + [t]
        acc = acc2
        out.append((acc, list(coeffs)))
    return out


def kernel_basis(b: Sequence[int]) -> list[tuple[int, ...]]:
    """Basis of the full integer kernel of x -> x.b, len(b) - 1 vectors.

    Every basis vector has 1-norm at most 2^(k-1) * ||b||_1. Coordinates
    where b vanishes contribute unit vectors; the rest is built one
    coordinate at a time, each new vector reduced into the parallelepiped
    of its predecessors before it is kept.
    """
    b = tuple(int(x) for x in b)
    k = len(b)
    if all(x == 0 for x in b):
        raise ValueError("kernel of the zero vector is not of rank k - 1")
    norm_b = sum(abs(x) for x in b)
    bound = (1 << (k - 1)) * norm_b

    idx = [i for i in range(k) if b[i] != 0]
    sub = [b[i] for i in idx]
    s = len(sub)

    lams: list[list[int]] = []
    if s >= 2:
        g12 = math.gcd(abs(sub[0]), abs(sub[1]))
        lam = [-sub[1] // g12, sub[0] // g12] + [0] * (s - 2)
        lams.append(lam)
        chain = _bezout_chain(sub)
        for i in range(2, s):
            gi = chain[i - 1][0]
            gnext = math.gcd(gi, sub[i])
            h = gi // gnext
            factor = -h * sub[i] // gi
            v = [factor * c for c in chain[i - 1][1]] + [h] + [0] * (s - 1 - i)
            # subtract integer parts of the coefficients over the previous
            # vectors; the i-th coordinate h is untouched by construction
            beta = Fraction(h, sub[i - 1])
            w = [Fraction(v[j]) for j in range(s)]
            w[i - 1] -= beta * -sub[i]
            w[i] -= beta * sub[i - 1]
            for j in range(i - 2, -1, -1):
                alpha = w[j + 1] / lams[j][j + 1]
                fl = math.floor(alpha)
                for p in range(j + 2):
                    v[p] -= fl * lams[j][p]
                    w[p] -= alpha * lams[j][p]
            lams.append(v)

    result = []
    for lam in lams:
        full = [0] * k
        for pos, val in zip(idx, lam):
            full[pos] = val
        result.append(tuple(full))
    for i in range(k):
        if b[i] == 0:
            unit = [0] * k
            unit[i] = 1
            result.append(tuple(unit))

    if len(result) != k - 1:
        raise ContractError(f"kernel basis of {b} has {len(result)} vectors, not {k - 1}")
    for v in result:
        if sum(x * y for x, y in zip(v, b)):
            raise ContractError(f"kernel vector {v} of {b} fails its own check")
        if sum(abs(x) for x in v) > bound:
            raise ContractError(f"kernel vector {v} of {b} above the 1-norm bound {bound}")
    return result


def unimodular_transform(b: Sequence[int]) -> list[tuple[int, ...]]:
    """Integer matrix T with T.b = (gcd(b), 0, ..., 0) and |det T| = 1.

    First row is the bounded Bezout vector, the rest a kernel basis;
    all entries are at most 2^(k-1) * ||b||_1 in absolute value.
    """
    b = tuple(int(x) for x in b)
    k = len(b)
    rows = [ext_gcd_bounded(b)]
    if k >= 2:
        rows.extend(kernel_basis(b))
    g = math.gcd(*b)
    bound = (1 << (k - 1)) * sum(abs(x) for x in b)

    image = [sum(r[i] * b[i] for i in range(k)) for r in rows]
    if image != [g] + [0] * (k - 1):
        raise ContractError(f"unimodular transform of {b} fails its own check")
    if any(abs(e) > bound for r in rows for e in r):
        raise ContractError(f"unimodular transform of {b} has an entry above {bound}")
    if abs(int_det(rows)) != 1:
        raise ContractError(f"transform of {b} is not unimodular")
    return rows


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    n = len(rows)
    m = [list(map(int, r)) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[col][col] * m[r][c] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def kernel_gram_det(basis: Sequence[Sequence[int]]) -> int:
    """det(M M^T) for the stacked basis rows; completeness certificate.

    A kernel sublattice of index j inflates this determinant by j^2, so
    equality with ||b/gcd(b)||_2^2 proves the basis spans the whole kernel.
    """
    rows = [list(map(int, r)) for r in basis]
    gram = [
        [sum(x * y for x, y in zip(r1, r2)) for r2 in rows] for r1 in rows
    ]
    return int_det(gram)
