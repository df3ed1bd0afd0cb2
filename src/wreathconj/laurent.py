"""Laurent polynomial model of R wr Z for R = Z or F_p.

An element (f, b) of R wr Z is stored as the pair (P, m) with
P = sum f(k) x^k and m = b; multiplication matches
(P1, m1)(P2, m2) = (P1 + x^{m1} P2, m1 + m2). Conjugacy classes,
cofinite ideals, and the finite quotients by split normal subgroups
J x| tZ are all handled in exact arithmetic.

Ring tags are integers: 0 for Z, a prime p for F_p.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

from .abelian import AbelianGroup, _xgcd2
from .wreath import ContractError, WreathElement, WreathGroup


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int, bound: Optional[int] = None) -> list[int]:
    """The primes dividing n, ascending; with a bound, those up to it,
    so trial division stops at min(sqrt(n), bound)."""
    bound = n if bound is None else bound
    out = []
    f = 2
    while f * f <= n and f <= bound:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    # what is left is 1, a prime, or a product of primes past the bound
    if 1 < n <= bound:
        out.append(n)
    return out


def _divisors(n: int, bound: int) -> list[int]:
    """The divisors of n up to bound, and 1."""
    out = [1]
    for q in _prime_factors(n, bound):
        for d in list(out):
            m = n
            while m % q == 0 and d * q <= bound:
                d, m = d * q, m // q
                out.append(d)
    return out


def _check_ring(ring: int):
    if ring != 0 and not is_prime(ring):
        raise ValueError(f"ring tag must be 0 (for Z) or a prime, got {ring}")


def parse_ring(text: str) -> int:
    s = text.strip().lower()
    if s == "z":
        return 0
    m = re.fullmatch(r"f(\d+)", s)
    if m and is_prime(int(m.group(1))):
        return int(m.group(1))
    raise ValueError(f"unknown ring {text!r}; use 'z' or 'f<p>' with p prime")


def format_ring(ring: int) -> str:
    return "z" if ring == 0 else f"f{ring}"


# ---------------------------------------------------------------------------
# Laurent polynomials


@dataclass(frozen=True)
class LaurentPoly:
    ring: int
    coeffs: tuple = ()

    def __post_init__(self):
        _check_ring(self.ring)
        acc: dict[int, int] = {}
        for e, c in self.coeffs:
            acc[e] = acc.get(e, 0) + c
        if self.ring:
            acc = {e: c % self.ring for e, c in acc.items()}
        object.__setattr__(
            self, "coeffs", tuple(sorted((e, c) for e, c in acc.items() if c))
        )

    @classmethod
    def _canonical(cls, ring: int, coeffs: tuple) -> "LaurentPoly":
        """The polynomial whose coefficients are already as `__post_init__`
        leaves them: sorted by exponent, reduced mod the ring, none zero.
        It checks nothing."""
        P = object.__new__(cls)
        P.__dict__.update(ring=ring, coeffs=coeffs)
        return P

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Optional[int]:
        return self.coeffs[-1][0] if self.coeffs else None

    @property
    def low(self) -> Optional[int]:
        return self.coeffs[0][0] if self.coeffs else None

    def coeff(self, e: int) -> int:
        for exp, c in self.coeffs:
            if exp == e:
                return c
        return 0

    def __str__(self) -> str:
        return format_laurent(self)


def zero_poly(ring: int) -> LaurentPoly:
    return LaurentPoly(ring)


def one_poly(ring: int) -> LaurentPoly:
    return LaurentPoly(ring, ((0, 1),))


def x_power(ring: int, e: int, c: int = 1) -> LaurentPoly:
    return LaurentPoly(ring, ((e, c),))


def xt_minus_1(ring: int, t: int) -> LaurentPoly:
    return LaurentPoly(ring, ((t, 1), (0, -1)))


def _same_ring(a: LaurentPoly, b: LaurentPoly):
    if a.ring != b.ring:
        raise ValueError(f"ring mismatch: {format_ring(a.ring)} vs {format_ring(b.ring)}")


def poly_add(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    _same_ring(a, b)
    return LaurentPoly(a.ring, a.coeffs + b.coeffs)


def poly_sub(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    return poly_add(a, poly_neg(b))


def poly_neg(a: LaurentPoly) -> LaurentPoly:
    return LaurentPoly(a.ring, tuple((e, -c) for e, c in a.coeffs))


def poly_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    _same_ring(a, b)
    acc: dict[int, int] = {}
    for e1, c1 in a.coeffs:
        for e2, c2 in b.coeffs:
            e = e1 + e2
            acc[e] = acc.get(e, 0) + c1 * c2
    return LaurentPoly(a.ring, tuple(acc.items()))


def poly_shift(a: LaurentPoly, m: int) -> LaurentPoly:
    """Multiply by x^m."""
    return LaurentPoly(a.ring, tuple((e + m, c) for e, c in a.coeffs))


# ---------------------------------------------------------------------------
# dense helpers; coefficient lists indexed from exponent 0, top entry nonzero


def _trim(cs: list[int], p: int) -> list[int]:
    if p:
        cs = [c % p for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _normalize(P: LaurentPoly) -> tuple[int, list[int]]:
    """(a, cs) with P = x^a * cs-polynomial and cs[0] != 0; zero -> (0, [])."""
    if not P.coeffs:
        return 0, []
    lo, hi = P.coeffs[0][0], P.coeffs[-1][0]
    cs = [0] * (hi - lo + 1)
    for e, c in P.coeffs:
        cs[e - lo] = c
    return lo, cs


def _from_dense(ring: int, a: int, cs) -> LaurentPoly:
    return LaurentPoly(ring, tuple((a + i, c) for i, c in enumerate(cs)))


def _dmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out, p)


def _dsub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out, p)


def _ddivmod(num, den, p):
    num = _trim(list(num), p)
    den = _trim(list(den), p)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    lead = den[-1]
    if p:
        inv = pow(lead, -1, p)
    elif lead not in (1, -1):
        raise ValueError("integer polynomial division needs leading coefficient 1 or -1")
    q = [0] * max(0, len(num) - len(den) + 1)
    # only den's nonzero terms: dividing by x^m - 1 is then linear in num
    terms = [(j, dc) for j, dc in enumerate(den) if dc]
    for i in range(len(num) - len(den), -1, -1):
        cur = num[i + len(den) - 1] % p if p else num[i + len(den) - 1]
        if not cur:
            continue
        f = cur * inv % p if p else cur * lead
        q[i] = f
        for j, dc in terms:
            num[i + j] -= f * dc
    return _trim(q, p), _trim(num[: len(den) - 1], p)


def _dgcd(a, b, p):
    a, b = _trim(list(a), p), _trim(list(b), p)
    while b:
        a, b = b, _ddivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


# Residues modulo a fixed polynomial of degree n >= 1 over F_p are tuples
# of n coefficients; the modulus enters through its tail, the n
# coefficients with x^n = sum tail[i] x^i modulo it.


def _dtail(mod, p) -> tuple:
    inv = pow(mod[-1], -1, p)
    return tuple(-c * inv % p for c in mod[:-1])


def _dreduce(cs: list, tail, p) -> tuple:
    """The residue of the dense polynomial cs, reduced in place."""
    n = len(tail)
    for k in range(len(cs) - 1, n - 1, -1):
        c = cs[k] % p
        if c:
            for i, tc in enumerate(tail, k - n):
                cs[i] += c * tc
    del cs[n:]
    return tuple([c % p for c in cs] + [0] * (n - len(cs)))


def _dtimes_x(r, tail, p) -> tuple:
    """x * r for a residue r: a shift and one multiple of the modulus."""
    top = r[-1]
    if not top:
        return (0, *r[:-1])
    return tuple([(a + top * tc) % p for a, tc in zip((0, *r[:-1]), tail)])


def _dmulmod(a, b, tail, p) -> tuple:
    """The residue of a * b for residues a, b."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] += ca * cb
    return _dreduce(prod, tail, p)


def _dpowmod(a, e: int, tail, p) -> tuple:
    """The residue of a^e, e >= 1, by square-and-multiply below the top
    bit."""
    result = a
    for bit in bin(e)[3:]:
        result = _dmulmod(result, result, tail, p)
        if bit == "1":
            result = _dmulmod(result, a, tail, p)
    return result


def _dpow_x(e: int, mod, p):
    """x^e reduced mod `mod` over F_p, by square-and-multiply from the
    top bit."""
    mod = _trim(list(mod), p)
    n = len(mod) - 1
    if n < 1:
        return []
    tail = _dtail(mod, p)
    result = (1,) + (0,) * (n - 1)
    for bit in bin(e)[2:]:
        result = _dmulmod(result, result, tail, p)
        if bit == "1":
            result = _dtimes_x(result, tail, p)
    return _trim(list(result), p)


def _dirreducible(g, p) -> bool:
    g = _trim(list(g), p)
    n = len(g) - 1
    if n < 1:
        return False
    x = _ddivmod([0, 1], g, p)[1]
    if _dsub(_dpow_x(p**n, g, p), x, p):
        return False
    for r in _prime_factors(n):
        h = _dsub(_dpow_x(p ** (n // r), g, p), x, p)
        if len(_dgcd(g, h, p)) != 1:
            return False
    return True


def is_irreducible_fp(P: LaurentPoly) -> bool:
    if P.ring == 0:
        raise ValueError("irreducibility test works over F_p only")
    _, cs = _normalize(P)
    return _dirreducible(cs, P.ring)


def _laurent_div(D: LaurentPoly, E: LaurentPoly) -> Optional[LaurentPoly]:
    """Exact quotient D / E in the Laurent ring, or None if E does not divide D."""
    _same_ring(D, E)
    if D.is_zero():
        return zero_poly(D.ring)
    aD, nD = _normalize(D)
    aE, nE = _normalize(E)
    if not nE:
        return None
    q, r = _ddivmod(nD, nE, D.ring)
    if r:
        return None
    return _from_dense(D.ring, aD - aE, q)


# ---------------------------------------------------------------------------
# text format: `c*x^e` terms joined by + and -


_TERM_RE = re.compile(r"(?:(\d+)\*?)?x(?:\^(~?\d+))?")


def parse_laurent(text: str, ring: int) -> LaurentPoly:
    s = text.replace(" ", "").replace("**", "^").replace("^+", "^").replace("^-", "^~")
    if not s:
        raise ValueError("empty polynomial")
    tokens = re.findall(r"[+-]?[^+-]+", s)
    if "".join(tokens) != s:
        raise ValueError(f"cannot parse polynomial {text!r}")
    pairs = []
    for tok in tokens:
        sign = -1 if tok[0] == "-" else 1
        body = tok.lstrip("+-")
        m = _TERM_RE.fullmatch(body)
        if m:
            c = int(m.group(1)) if m.group(1) else 1
            es = m.group(2)
            e = 1 if es is None else (-int(es[1:]) if es[0] == "~" else int(es))
        elif body.isdigit():
            c, e = int(body), 0
        else:
            raise ValueError(f"cannot parse term {tok!r} in {text!r}")
        pairs.append((e, sign * c))
    return LaurentPoly(ring, tuple(pairs))


def format_laurent(P: LaurentPoly) -> str:
    if P.is_zero():
        return "0"
    parts = []
    for e, c in sorted(P.coeffs, reverse=True):
        mag, sign = abs(c), "-" if c < 0 else "+"
        if e == 0:
            body = str(mag)
        else:
            xs = "x" if e == 1 else f"x^{e}"
            body = xs if mag == 1 else f"{mag}*{xs}"
        parts.append((sign, body))
    head_sign, head = parts[0]
    out = head if head_sign == "+" else "-" + head
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# the semidirect product R[x, x^-1] x| Z


@dataclass(frozen=True)
class SemidirectElement:
    poly: LaurentPoly
    shift: int

    def inv(self) -> "SemidirectElement":
        return semidirect_inv(self)


def semidirect_identity(ring: int) -> SemidirectElement:
    return SemidirectElement(zero_poly(ring), 0)


def semidirect_mul(a: SemidirectElement, b: SemidirectElement) -> SemidirectElement:
    return SemidirectElement(
        poly_add(a.poly, poly_shift(b.poly, a.shift)), a.shift + b.shift
    )


def semidirect_inv(a: SemidirectElement) -> SemidirectElement:
    return SemidirectElement(poly_neg(poly_shift(a.poly, -a.shift)), -a.shift)


def semidirect_conjugate(z: SemidirectElement, g: SemidirectElement) -> SemidirectElement:
    return semidirect_mul(semidirect_mul(z, g), semidirect_inv(z))


def parse_semidirect(text: str, ring: int) -> SemidirectElement:
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if "," not in s:
        raise ValueError(f"expected '(P, m)', got {text!r}")
    left, right = s.rsplit(",", 1)
    return SemidirectElement(parse_laurent(left, ring), int(right.strip()))


def format_semidirect(g: SemidirectElement) -> str:
    return f"({format_laurent(g.poly)}, {g.shift})"


def wreath_group_for_ring(ring: int) -> WreathGroup:
    _check_ring(ring)
    lamp = AbelianGroup(1) if ring == 0 else AbelianGroup(0, (ring,))
    return WreathGroup(lamp, AbelianGroup(1))


def ring_of_wreath_group(W: WreathGroup) -> int:
    if W.base != AbelianGroup(1):
        raise ValueError("acting group must be Z")
    if W.lamp == AbelianGroup(1):
        return 0
    if (
        W.lamp.free_rank == 0
        and len(W.lamp.torsion) == 1
        and is_prime(W.lamp.torsion[0])
    ):
        return W.lamp.torsion[0]
    raise ValueError("lamp group must be Z or Z/p with p prime")


def from_wreath(g: WreathElement) -> SemidirectElement:
    ring = ring_of_wreath_group(g.group)
    return SemidirectElement(
        LaurentPoly(ring, tuple((k.coords[0], v.coords[0]) for k, v in g.pairs)),
        g.b.coords[0],
    )


def to_wreath(s: SemidirectElement) -> WreathElement:
    W = wreath_group_for_ring(s.poly.ring)
    return W.element([((e,), (c,)) for e, c in s.poly.coeffs], (s.shift,))


# ---------------------------------------------------------------------------
# conjugacy in R[x, x^-1] x| Z

# Conjugating (P, m) by (Q, c) gives (x^c P + (1 - x^m) Q, m), so the
# class of (P, m) is { (x^l P + (x^m - 1) Q, m) : l in Z, Q arbitrary }
# and l may be reduced mod |m| when m is nonzero.


def same_conjugacy_class(
    g1: SemidirectElement, g2: SemidirectElement
) -> Optional[tuple[int, LaurentPoly]]:
    """Certificate (l, Q) with P2 = x^l P1 + (x^m - 1) Q, or None."""
    _same_ring(g1.poly, g2.poly)
    if g1.shift != g2.shift:
        return None
    ring = g1.poly.ring
    m = g1.shift
    if m == 0:
        if g1.poly.is_zero() and g2.poly.is_zero():
            return 0, zero_poly(ring)
        if g1.poly.is_zero() or g2.poly.is_zero():
            return None
        a1, n1 = _normalize(g1.poly)
        a2, n2 = _normalize(g2.poly)
        if n1 == n2:
            return a2 - a1, zero_poly(ring)
        return None
    # x^l P1 and P2 differ by a multiple of x^m - 1 exactly when they
    # agree mod x^|m| - 1
    ell = _rotation(g1.poly, g2.poly, abs(m))
    if ell is None:
        return None
    E = xt_minus_1(ring, m)
    Q = _laurent_div(poly_sub(g2.poly, poly_shift(g1.poly, ell)), E)
    if Q is None or poly_add(poly_shift(g1.poly, ell), poly_mul(E, Q)) != g2.poly:
        raise ContractError("conjugacy certificate fails its own check")
    return ell, Q


def _rotation(P1: LaurentPoly, P2: LaurentPoly, M: int) -> Optional[int]:
    """The least l in [0, M) with x^l P1 = P2 mod x^M - 1, or None: the
    coefficients of P1 summed by exponent mod M, rotated by l, are those
    of P2."""
    f1, f2 = _fold(P1, M), _fold(P2, M)
    if len(f1) != len(f2):
        return None
    if not f1:
        return 0
    e1 = min(f1)
    # a rotation maps P1's least folded exponent onto one of P2's
    for ell in sorted((e2 - e1) % M for e2, c2 in f2.items() if c2 == f1[e1]):
        if all(f2.get((e + ell) % M) == c for e, c in f1.items()):
            return ell
    return None


def _fold(P: LaurentPoly, M: int) -> dict:
    """The nonzero coefficients of P mod x^M - 1, by exponent mod M."""
    acc: dict[int, int] = {}
    for e, c in P.coeffs:
        acc[e % M] = acc.get(e % M, 0) + c
    if P.ring:
        return {e: c % P.ring for e, c in acc.items() if c % P.ring}
    return {e: c for e, c in acc.items() if c}


# ---------------------------------------------------------------------------
# split normal subgroups J x| tZ


@dataclass(frozen=True)
class FpSplitSubgroup:
    """Subgroup (P) x| tZ of F_p[x, x^-1] x| Z, P monic, P(0) != 0 and
    P | x^t - 1. The constructor checks that; the streams build their
    divisors so that it holds and make them by `_from_divisor`, which
    checks nothing. `_mod`, the tail of P, is not a field."""

    p: int
    t: int
    gen: LaurentPoly

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("p must be prime")
        if self.t < 1:
            raise ValueError("t must be positive")
        g = self.gen
        if g.ring != self.p:
            raise ValueError("generator ring mismatch")
        if g.is_zero():
            raise ValueError("generator must be nonzero")
        if g.low != 0:
            raise ValueError("generator needs a nonzero constant term")
        if g.coeffs[-1][1] != 1:
            raise ValueError("generator must be monic")
        _, gd = _normalize(g)
        if len(gd) > 1 and _dpow_x(self.t, gd, self.p) != [1]:
            raise ValueError("x^t - 1 must lie in the ideal")
        object.__setattr__(self, "_mod", _dtail(gd, self.p))

    @classmethod
    def _from_divisor(cls, p: int, t: int, D: list) -> "FpSplitSubgroup":
        """(D) x| tZ for a dense monic D | x^t - 1 with D(0) != 0, its
        coefficients reduced mod p."""
        gen = LaurentPoly._canonical(p, tuple((i, a) for i, a in enumerate(D) if a))
        N = object.__new__(cls)
        N.__dict__.update(p=p, t=t, gen=gen, _mod=_dtail(D, p))
        return N

    def _tail(self, m: int) -> tuple:
        """Tail of the monic g0 = gcd(gen, x^m - 1), the modulus of the
        quotient test at shift residue m. As gen divides x^t - 1, g0 is
        gcd(gen, x^k - 1) with k = gcd(m, t): gen itself when k = t, and
        1 when gen is; otherwise it is worked out on the spot."""
        k = math.gcd(m, self.t)
        if k == self.t or not self._mod:
            return self._mod
        _, g0 = _normalize(self.gen)
        xk = _dsub(_dpow_x(k, g0, self.p), [1], self.p)
        return _dtail(_dgcd(g0, xk, self.p), self.p)

    @property
    def ring(self) -> int:
        return self.p

    @property
    def quotient_ring_order(self) -> int:
        return self.p**self.gen.degree

    @property
    def index(self) -> int:
        return self.t * self.quotient_ring_order

    @property
    def listing_key(self) -> tuple:
        """The order of `enumerate_split_subgroups_fp`."""
        return self.index, self.t, self.gen.degree, self.gen.coeffs

    def contains(self, P: LaurentPoly) -> bool:
        # x is a unit mod gen, so the factor x^low of P is dropped
        return not any(_dreduce(_normalize(P)[1], self._tail(0), self.p))


def _rotate(vec: tuple) -> tuple:
    return (vec[-1],) + vec[:-1]


def _rotations(vec: tuple):
    """vec and its rotations: the coefficient vectors of x^l P, l < t0."""
    for _ in range(len(vec)):
        yield vec
        vec = _rotate(vec)


# An ideal J of Z[x]/(x^t0 - 1) of finite co-index is a lattice L in
# Z^t0, coefficient vectors indexed by exponent mod t0, closed under the
# rotation v -> x v. L is held as its Hermite normal form: rows h_0 ..
# h_{t0-1}, row i zero before column i, pivot h_ii > 0, and
# 0 <= h_ri < h_ii above each pivot. The form is unique, so equal ideals
# have equal bases, and [Z^t0 : L] = |Z[x]/(x^t0 - 1, J)| is the product
# of the pivots. Reducing v by the rows in turn leaves 0 <= v_i < h_ii:
# the least vector of v + L in lexicographic order, and 0 iff v is in L.
# As L is rotation-closed, every unit vector has the order of the last,
# h_{t0-1,t0-1}, in Z^t0 / L, so that pivot is the characteristic.


def _hnf(rows, d: int, t0: int) -> tuple:
    """The Hermite normal form of the lattice spanned by rows and d Z^t0.

    Column by column, the rows with a nonzero entry there are folded
    into one pivot row, starting from d e_j, by extended gcds; each fold
    leaves the other row zero in that column. Entries are kept mod d,
    which d Z^t0 allows."""
    rows = [[c % d for c in r] for r in rows]
    basis = []
    for j in range(t0):
        piv = [0] * t0
        piv[j] = d
        rest = []
        for r in rows:
            a, b = r[j], piv[j]
            if a and b % a:
                g, s, u = _xgcd2(b, a)
                piv, r = (
                    [(s * x + u * y) % d for x, y in zip(piv, r)],
                    [(a // g * x - b // g * y) % d for x, y in zip(piv, r)],
                )
            elif a:
                piv, r = r, [(x - b // a * y) % d for x, y in zip(piv, r)]
            if any(r):
                rest.append(r)
        basis.append(piv)
        rows = rest
    for i in range(1, t0):
        h = basis[i]
        for r in basis[:i]:
            q = r[i] // h[i]
            if q:
                for k in range(i, t0):
                    r[k] -= q * h[k]
    return tuple(tuple(r) for r in basis)


def _reduce(basis: tuple, v) -> tuple:
    """The least vector of v + L in lexicographic order; 0 iff v is in L."""
    v = list(v)
    for j, h in enumerate(basis):
        q = v[j] // h[j]
        if q:
            for k in range(j, len(v)):
                v[k] -= q * h[k]
    return tuple(v)


def _coords(basis: tuple, v) -> list:
    """a with v = sum a_j h_j, for v in L: the quotients of the reduction."""
    v, a = list(v), []
    for j, h in enumerate(basis):
        q = v[j] // h[j]
        a.append(q)
        if q:
            for k in range(j, len(v)):
                v[k] -= q * h[k]
    return a


def _coindex(basis: tuple) -> int:
    return math.prod(h[j] for j, h in enumerate(basis))


def _elements(basis: tuple, d: int):
    """The vectors of L in [0, d)^t0, in lexicographic order: column j
    runs over its residue mod h_jj, and each value is completed by the
    rows below."""
    t0 = len(basis)

    def rec(j, v):
        if j == t0:
            yield tuple(v)
            return
        h = basis[j]
        q = v[j] // h[j]
        v = [(a - q * b) % d for a, b in zip(v, h)]
        for _ in range(d // h[j]):
            yield from rec(j + 1, v)
            v = [(a + b) % d for a, b in zip(v, h)]

    return rec(0, [0] * t0)


@dataclass(frozen=True, init=False)
class ZSplitSubgroup:
    """Subgroup J x| tZ of Z[x, x^-1] x| Z.

    J is the preimage of the ideal spanned by `vectors` inside
    (Z/d)[x]/(x^t0 - 1); coefficient vectors are indexed by exponent
    mod t0. It is held as `basis`, the Hermite normal form of the
    lattice of J's vectors, which holds d Z^t0; `vectors`, the vectors
    of that lattice in [0, d)^t0, is built only when read. The
    characteristic d = 1 encodes the unit ideal. The shift t must be a
    multiple of t0 so that x^t - 1 lies in J. The constructor checks
    its data; the streams build rotation-closed lattices in Hermite
    form and make them by `_from_basis`, which checks nothing.
    """

    d: int
    t0: int
    basis: tuple
    t: int

    def __init__(self, d: int, t0: int, vectors, t: int):
        if d < 1 or t0 < 1 or t < 1:
            raise ValueError("d, t0, t must be positive")
        if t % t0:
            raise ValueError("shift must be a multiple of the ideal period")
        vs = frozenset(tuple(c % d for c in v) for v in vectors)
        if any(len(v) != t0 for v in vs):
            raise ValueError("vector width must equal the ideal period")
        basis = _hnf(vs, d, t0)
        self.__dict__.update(d=d, t0=t0, basis=basis, t=t)
        closed = not any(any(_reduce(basis, _rotate(h))) for h in basis)
        if not closed or len(vs) != d**t0 // self.quotient_ring_order:
            raise ValueError("ideal data must be closed under sums and x-shifts")

    @classmethod
    def _from_basis(cls, d: int, t0: int, basis: tuple, t: int) -> "ZSplitSubgroup":
        """The subgroup whose lattice has Hermite normal form `basis`."""
        N = object.__new__(cls)
        N.__dict__.update(d=d, t0=t0, basis=basis, t=t)
        return N

    @functools.cached_property
    def vectors(self) -> frozenset:
        return frozenset(_elements(self.basis, self.d))

    def _reachable(self, m: int) -> tuple:
        """J + (x^m - 1) as a basis. J holds x^t0 - 1, so this is
        J + (x^k - 1) with k = gcd(m, t0): J itself when k = t0, else
        reduced on the spot."""
        k = math.gcd(m, self.t0)
        if k == self.t0:
            return self.basis
        extra = _rotations(self.vec(xt_minus_1(0, k)))
        return _hnf([*self.basis, *extra], self.d, self.t0)

    @property
    def ring(self) -> int:
        return 0

    @functools.cached_property
    def quotient_ring_order(self) -> int:
        return _coindex(self.basis)

    @property
    def index(self) -> int:
        return self.t * self.quotient_ring_order

    @property
    def listing_key(self) -> tuple:
        """The order of `enumerate_split_subgroups_z`."""
        return self.index, self.d, self.t0, self.t, self.basis[::-1]

    def vec(self, P: LaurentPoly) -> tuple:
        if P.ring != 0:
            raise ValueError("ring mismatch")
        out = [0] * self.t0
        for e, c in P.coeffs:
            out[e % self.t0] = (out[e % self.t0] + c) % self.d
        return tuple(out)

    def contains(self, P: LaurentPoly) -> bool:
        return not any(_reduce(self.basis, self.vec(P)))


def first_unit_shifts(shifts) -> list[int]:
    """The shifts t at which the unit ideal, (1) x| tZ, can be the first
    subgroup to separate two classes whose shifts lie in shifts, sorted:
    for each nonzero difference d of two of them, the least t >= 2 not
    dividing d. The class key at (1) x| tZ is the shift mod t, so it
    separates shifts a1, a2 exactly when t does not divide a1 - a2; at
    any larger t that least t, of smaller index, has already split them."""
    values = set(shifts)
    gaps = {a - b for a in values for b in values if a > b}
    return sorted({next(t for t in itertools.count(2) if d % t) for d in gaps})


def split_subgroup_stream(
    ring: int,
    max_index: int,
    shifts,
    g: int,
    may_separate: Optional[Callable[[int], bool]] = None,
):
    """The split subgroups of index <= max_index over F_p (ring p) or Z
    (ring 0) that can be the first to separate two classes whose shifts
    lie in shifts, in the order `enumerate_split_subgroups_fp` and
    `enumerate_split_subgroups_z` list them, each built only when read:
    every ideal J != (1) whose least period t0 divides g (every J when
    g = 0) once, as J x| t0Z, and the unit ideal (1) x| tZ at each t of
    `first_unit_shifts(shifts)`. For one pair of shifts a1, a2, g is
    gcd(a1, a2); for classes of several shifts, 0.

    No other subgroup of the listing is the first to separate such a
    pair. The whole group, (1) x| 1Z of index 1, has the trivial
    quotient and separates nothing. The test at J x| tZ reads the shifts
    mod t and J' = J + (x^(a1 mod t) - 1). If t divides a1 - a2, J' holds
    x^t - 1 and so x^gcd(a1, t) - 1, and gcd(a1, t) divides a2, hence
    g: so t0(J') divides g and t, and J' x| t0(J')Z, of no larger index,
    gives the same test (with a1 = a2 = 0, J' = J). This uses only that
    R[x] is commutative, so it holds over Z and F_p alike. Otherwise the
    shifts alone separate, and a unit ideal does so exactly at the t not
    dividing a1 - a2; the one at the least such t, of index at most t,
    separates the pair too, so only that one can be the first.

    The subgroups wait on one heap, keyed in the order of the listing,
    and each one, once yielded, files those that follow it. The whole
    group is the heap's first entry, the root of what is filed, and is
    read without being yielded. New ideals are generated only when the
    stream reaches a lower bound on their index, so every entry filed
    lies above each index read, and the heap yields the listing's order.
    Reading a unit ideal files the one at the next shift.

    may_separate, if given, is a predicate on periods t0 > 1: over Z the
    ideals of least period t0 are built and yielded only where it holds;
    over F_p it is not read. A depth query passes "the pair is not
    conjugate mod x^t0 - 1", which drops no separator: for t0 | g both
    shifts are 0 mod t0, so a pair conjugate mod x^t0 - 1 is conjugate
    modulo the normal subgroup (x^t0 - 1) x| t0Z, which lies in every
    J x| t0Z of least period t0, and so modulo each of those. Sweeps
    and the full listings pass none."""
    if max_index < 1:
        raise ValueError("max_index must be positive")
    _check_ring(ring)
    units = iter(first_unit_shifts(shifts))
    if ring:
        return _fp_stream(ring, g, max_index, units)
    return _z_stream(g, max_index, units, may_separate)


def enumerate_split_subgroups_fp(p: int, max_index: int) -> list[FpSplitSubgroup]:
    """Every (t, monic P | x^t - 1, P(0) != 0) with t * p^deg P <= max_index,
    sorted by nondecreasing index, then by t, deg P and the coefficients
    of P: (1) x| tZ at every t, and each (P) x| t0Z of
    `split_subgroup_stream` with no shifts and g = 0, t0 the order of P,
    at every multiple of t0."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    subs = [FpSplitSubgroup._from_divisor(p, t, [1]) for t in range(1, max_index + 1)]
    subs += [
        N if t == N.t else FpSplitSubgroup._from_divisor(p, t, _normalize(N.gen)[1])
        for N in split_subgroup_stream(p, max_index, (), 0)
        for t in range(N.t, max_index // N.quotient_ring_order + 1, N.t)
    ]
    return sorted(subs, key=lambda N: N.listing_key)


# ---------------------------------------------------------------------------
# the F_p split subgroups: divisors of x^g - 1, or of every x^t - 1


def _orders(p: int, n: int, d: int, bound: int) -> list[int]:
    """The orders e <= bound, ascending, of the irreducible factors of
    degree d of x^n - 1 over F_p, or of any x^t - 1 when n = 0.

    A monic irreducible f != x of order e divides x^n - 1 exactly when e
    divides n (Lidl and Niederreiter, Finite Fields, 3.6); it is a factor
    of Phi_e, of degree ord_e(p) (ibid., 2.47). ord_e(p) = d exactly
    when e divides p^d - 1 and no p^(d/r) - 1, r a prime factor of d.
    As p^d - 1 is prime to p, the e are the divisors of gcd(n, p^d - 1)
    that divide no p^(d/r) - 1."""
    m = math.gcd(n, p**d - 1)
    if m == 1:
        # only e = 1, of degree 1: the usual case for a pair, kept cheap
        return [1] if d == 1 and bound >= 1 else []
    lower = [p ** (d // r) - 1 for r in _prime_factors(d)]
    return sorted(e for e in _divisors(m, bound) if e <= bound and all(q % e for q in lower))


def _split_equal_degree(f, d: int, p: int, k: int = 1) -> list:
    """The irreducible factors of a monic squarefree f over F_p whose
    irreducible factors all have degree d, split by the traces T_k =
    x^k + x^(kp) + ... + x^(k p^(d-1)) mod f. Modulo a factor with root
    b, T_k is Tr(b^k) in F_p, so f is the product of the gcd(f, T_k - c),
    c in F_p. The sequence k -> Tr(b^k) has the factor as its minimal
    polynomial, and two factors' sequences both satisfy the recurrence of
    their product, of degree 2d, so two factors whose traces agree for
    k = 1..2d are equal (Lidl and Niederreiter, Finite Fields, 2.47 and
    ch. 8); Tr(b^(pk)) = Tr(b^k), so the k that p divides are skipped.
    Each part is split from k + 1 on, as its factors agree up to k."""
    if len(f) - 1 == d:
        return [f]
    tail = _dtail(f, p)
    x = (0, 1) + (0,) * (len(tail) - 2)
    for k in range(k, 2 * d + 1):
        if k % p:
            trace = power = _dpowmod(x, k, tail, p)
            for _ in range(d - 1):
                power = _dpowmod(power, p, tail, p)
                trace = tuple([(a + b) % p for a, b in zip(trace, power)])
            parts = [h for c in range(p) if len(h := _dgcd(f, (trace[0] - c, *trace[1:]), p)) > 1]
            if len(parts) > 1:
                return [g for h in parts for g in _split_equal_degree(h, d, p, k + 1)]
    raise ContractError(f"no trace of x^k, k <= {2 * d}, splits f of degree {len(f) - 1} over F{p}")


def _at_power(cs: list, k: int) -> list:
    """cs(x^k), dense."""
    out = [0] * (k * (len(cs) - 1) + 1)
    out[::k] = cs
    return out


def _cyclotomic(p: int, e: int) -> list:
    """Phi_e over F_p, dense, for p not dividing e. From Phi_1 = x - 1,
    the identity Phi_nq(x) = Phi_n(x^q) / Phi_n(x), for a prime q not
    dividing n, taken over the primes of e in turn gives Phi_r, r the
    product of those primes; then Phi_e(x) = Phi_r(x^(e/r)), as every
    prime of e/r divides r. Each division is exact over Z by a monic
    divisor, so also mod p."""
    phi, r = [-1 % p, 1], 1
    for q in _prime_factors(e):
        phi, r = _ddivmod(_at_power(phi, q), phi, p)[0], r * q
    return _at_power(phi, e // r)


def _cyclotomic_factors(p: int, e: int, deg: int) -> list:
    """The irreducible factors of Phi_e over F_p, p not dividing e,
    sorted; each has degree deg = ord_e(p). Phi_e is kept whole when it
    is irreducible, and otherwise split deterministically by the traces
    of x^k, k <= 2 deg, in `_split_equal_degree`; the factors are
    multiplied back to Phi_e as a check. Any other deg raises at once:
    ord_e(p) is the deg with e | p^deg - 1 and e dividing no
    p^(deg/r) - 1, r a prime factor of deg."""
    lower = (pow(p, deg // r, e) for r in _prime_factors(deg))
    if deg < 1 or pow(p, deg, e) != 1 % e or 1 % e in lower:
        raise ContractError(f"Phi_{e} over F{p} has no factors of degree {deg}")
    phi = _cyclotomic(p, e)
    if len(phi) - 1 == deg:
        return [phi]
    factors = sorted(_split_equal_degree(phi, deg, p))
    product = [1]
    for f in factors:
        product = _dmul(product, f, p)
    if product != phi:
        raise ContractError(f"factors of Phi_{e} over F{p} do not multiply back")
    return factors


def _fp_stream(p: int, g: int, max_index: int, units):
    """(D) x| tZ of index <= max_index for the monic D | x^g - 1, or
    every monic D with D(0) != 0 when g = 0, in the order of
    `enumerate_split_subgroups_fp`, each built only when read: for D != 1
    at t the order t0(D) of D, and for D = 1 at each t of units, an
    increasing iterator of shifts above 1.

    With g = p^a * g', p not dividing g', x^g - 1 = (x^g' - 1)^(p^a), and
    x^g' - 1 is the product of the cyclotomic polynomials Phi_e, e | g'.
    Over F_p, Phi_e is the product of phi(e) / ord_e(p) irreducibles of
    degree ord_e(p), all of order e (Lidl and Niederreiter, Finite
    Fields, 2.47). The order of D = prod f^k, f of order e, is the lcm
    of the e times the least power of p that is at least every k (ibid.,
    3.8), so a divisor holding a factor of order e and degree d has
    index at least L(e) = e * p^d. The orders are listed by degree, by
    `_orders`: those of degree d once the stream reaches p^d, a lower
    bound on their L(e), and for g != 0 no further than ord_g'(p). Phi_e
    is split, by `_cyclotomic_factors` and deterministically, only when
    the stream reaches L(e), before anything of index L(e) or more is
    read, so the factors and the stream's order are the same on every
    run.

    The subgroups wait on one heap, keyed by (index, t, deg D, the
    coefficients of D), the order of the enumeration. The factors are
    numbered as they are split, and each divisor D != 1 is D' f with f
    its last factor. Reading D at t0(D) files D f for each factor f
    split so far from the last factor of D on, each power capped at
    p^a, or uncapped when g = 0; splitting Phi_e files D f, for each of
    its factors f, only for the divisors D read so far. So each divisor
    is built once, when both its parent is read and its last factor is
    split, and its index is above all read so far. Reading (1) x| tZ
    files (1) x| t'Z, t' the next shift of units. An entry is read only
    after it is yielded, when the reader asks for the next, so nothing
    is multiplied out past the last subgroup the reader takes; the root
    (1) x| 1Z, the whole group, is read and not yielded."""
    if g:
        cap = 1
        while g % (cap * p) == 0:
            cap *= p
    else:
        # f^k has index at least p^k > k, so the budget alone caps k
        cap = max_index
    d = 1  # the least degree whose orders are not listed yet
    listed = False  # whether no degree from d on holds an order
    splits: list = []  # heap of (L(e), e, degree) for the orders listed, not yet split
    factors: list = []  # (e, dense f) for the factors split so far, in split order
    read: list = []  # the divisors read so far
    # (index, t, deg D, coefficients of D, divisor); a divisor is (lcm of
    # the orders e, power of p, position of its last factor, that
    # factor's power, dense D), and t0(D) is the product of the first
    # two; 1 is the 0th power of the first factor
    heap: list = []

    def file(t, div):
        D = div[-1]
        if (index := t * p ** (len(D) - 1)) <= max_index:
            sparse = tuple((i, a) for i, a in enumerate(D) if a)
            heapq.heappush(heap, (index, t, len(D), sparse, div))

    def grow(div, first):
        # file D f for the factors f from position first on; the index
        # is known from the degrees, so D f is multiplied only if it fits
        lcm_e, power, last, n, D = div
        for j in range(first, len(factors)):
            order, f = factors[j]
            n1, power1 = (n + 1, power * p if power == n else power) if j == last else (1, power)
            lcm1 = math.lcm(lcm_e, order)
            if n1 <= cap and lcm1 * power1 * p ** (len(D) + len(f) - 2) <= max_index:
                file(lcm1 * power1, (lcm1, power1, j, n1, _dmul(D, f, p)))

    file(1, (1, 1, 0, 0, [1]))
    while True:
        k = heap[0][0] if heap else max_index + 1
        while not listed and p**d <= min(k, splits[0][0] if splits else k):
            for e in _orders(p, g, d, max_index // p**d):
                heapq.heappush(splits, (e * p**d, e, d))
            # the orders divide g' = g / cap, so their degrees divide
            # ord_g'(p), the least d with g' | p^d - 1
            listed = bool(g) and (p**d - 1) % (g // cap) == 0
            d += 1
        if splits and splits[0][0] <= k:
            _, order, deg = heapq.heappop(splits)
            first = len(factors)
            factors += [(order, f) for f in _cyclotomic_factors(p, order, deg)]
            for div in read:
                grow(div, first)
            continue
        if not heap:
            return
        index, t, _, _, div = heapq.heappop(heap)
        lcm_e, power, last, _, D = div
        if index > 1:
            yield FpSplitSubgroup._from_divisor(p, t, D)
        if t == lcm_e * power:
            read.append(div)
            grow(div, last)
        if len(D) == 1 and (later := next(units, None)):
            file(later, div)


# ---------------------------------------------------------------------------
# the split subgroups over Z: rotation-closed lattices, grown by simple steps


def _nullspace_mod(rows, p: int, n: int) -> list[list]:
    """A basis of {y in F_p^n : r . y = 0 for every r in rows}, read off
    the reduced row echelon form of rows."""
    pivots = []
    for r in rows:
        r = [c % p for c in r]
        for col, pr in pivots:
            if r[col]:
                f = r[col]
                r = [(a - f * b) % p for a, b in zip(r, pr)]
        col = next((c for c in range(n) if r[c]), None)
        if col is None:
            continue
        inv = pow(r[col], -1, p)
        r = [a * inv % p for a in r]
        for k, (c, pr) in enumerate(pivots):
            if pr[col]:
                f = pr[col]
                pivots[k] = (c, [(a - f * b) % p for a, b in zip(pr, r)])
        pivots.append((col, r))
    pivot_cols = {col for col, _ in pivots}
    out = []
    for free in range(n):
        if free not in pivot_cols:
            y = [0] * n
            y[free] = 1
            for col, pr in pivots:
                y[col] = -pr[free] % p
            out.append(y)
    return out


def _apply(T, y, p: int) -> tuple:
    return tuple(sum(a * b for a, b in zip(row, y)) % p for row in T)


def _matpoly(g, T, p: int) -> list:
    """g(T) mod p, by Horner's rule; g monic and dense, lowest
    coefficient first."""
    n = len(T)
    G = [[int(i == j) for j in range(n)] for i in range(n)]
    for c in reversed(g[:-1]):
        G = [
            [(sum(a * T[k][j] for k, a in enumerate(row)) + c * (i == j)) % p for j in range(n)]
            for i, row in enumerate(G)
        ]
    return G


def _times(g, v) -> list:
    """g(x) v for a coefficient vector v mod x^t0 - 1; g dense, lowest
    coefficient first."""
    t0 = len(v)
    out = [0] * t0
    for k, c in enumerate(g):
        if c:
            for i, a in enumerate(v):
                out[(i + k) % t0] += c * a
    return out


def _simple_steps(H: tuple, g, p: int) -> list:
    """Every lattice L' < L = span(H) with L / L' isomorphic to
    F_p[x]/(g), g a monic irreducible factor of x^t0 - 1 over F_p.

    Such an L' holds K = pL + g(x)L, and L / K is a vector space over
    F_p[x]/(g) = F_{p^f}, f = deg g, of some dimension r; the L' are the
    preimages of its hyperplanes. For r <= 1 that is nothing or K. For
    r >= 2, in coordinates over H, where x acts on L / pL by the matrix
    T, a hyperplane is the annihilator of a line of ker g(T) acting on
    functionals: the line spanned by y, Ty, ..., T^(f-1) y for any of
    its nonzero y, met once through the first of its vectors."""
    t0, f = len(H), len(g) - 1
    d = H[-1][-1]
    pH = [[p * x for x in h] for h in H]
    K = _hnf(pH + [_times(g, h) for h in H], d * p, t0)
    step = _coindex(K) // _coindex(H)
    if step <= p**f:
        return [K] if step > 1 else []
    T = [_coords(H, _rotate(h)) for h in H]
    ker = _nullspace_mod(_matpoly(g, T, p), p, t0)
    out, covered = [], set()
    for cs in itertools.product(range(p), repeat=len(ker)):
        y = tuple(sum(c * k[i] for c, k in zip(cs, ker)) % p for i in range(t0))
        if y in covered or not any(y):
            continue
        U = [y]
        while len(U) < f:
            U.append(_apply(T, U[-1], p))
        covered.update(
            tuple(sum(c * u[i] for c, u in zip(cu, U)) % p for i in range(t0))
            for cu in itertools.product(range(p), repeat=f)
        )
        rows = pH + [
            [sum(a * h[k] for a, h in zip(A, H)) for k in range(t0)]
            for A in _nullspace_mod(U, p, t0)
        ]
        out.append(_hnf(rows, d * p, t0))
    return out


def _period(basis: tuple) -> int:
    """The least s with x^s - 1 in L."""
    t0 = len(basis)
    for s in range(1, t0):
        if t0 % s == 0 and not any(_reduce(basis, [-1] + [int(i == s) for i in range(1, t0)])):
            return s
    return t0


def _p_lattices(p: int, t0: int, bound: int) -> list[tuple]:
    """(co-index, least period, basis) for every rotation-closed lattice
    L of Z^t0 whose co-index is a power of p with 1 < p^k <= bound.

    Z^t0 / L is a module over Z[x]/(x^t0 - 1) of order p^k. Its
    composition series has simple factors F_p[x]/(g), g an irreducible
    factor of x^t0 - 1 over F_p, so L is reached from Z^t0 by the steps
    of `_simple_steps`, never past the bound. The g are the factors of
    degree d with p^d <= bound, listed by degree, of the orders
    `_orders` gives."""
    factors = [
        f
        for d in itertools.takewhile(lambda d: p**d <= bound, itertools.count(1))
        for e in _orders(p, t0, d, t0)
        for f in _cyclotomic_factors(p, e, d)
    ]
    root = tuple(tuple(int(i == j) for j in range(t0)) for i in range(t0))
    found = {root: 1}
    queue = [root]
    while queue:
        H = queue.pop()
        for g in factors:
            c = found[H] * p ** (len(g) - 1)
            if c > bound:
                break
            for child in _simple_steps(H, g, p):
                if child not in found:
                    found[child] = c
                    queue.append(child)
    return [(c, _period(H), H) for H, c in found.items() if c > 1]


def _crt_join(A: tuple, B: tuple) -> tuple:
    """The intersection of two lattices of coprime co-indices P and Q:
    Q L_A + P L_B, which lies in both, and holds every v of both as
    v = uPv + wQv with uP + wQ = 1."""
    P, Q = _coindex(A), _coindex(B)
    rows = [[Q * c for c in h] for h in A] + [[P * c for c in h] for h in B]
    return _hnf(rows, A[-1][-1] * B[-1][-1], len(A))


def _lattices_of_period(t0: int, bound: int) -> list[tuple]:
    """The basis of every ideal of Z[x]/(x^t0 - 1), t0 > 1, with least
    period t0 and co-index in 2..bound. The quotient ring is the product
    of its p-parts, so the lattice is the intersection of one of p-power
    co-index per prime. Combinations of parts are listed while the
    product of the co-indices stays within bound, and their parts are
    joined only when the lcm of their periods is t0."""
    combos = [(1, 1, ())]
    for p in range(2, bound + 1):
        if is_prime(p):
            combos += [
                (Q * Qp, math.lcm(s, sp), parts + (Hp,))
                for Qp, sp, Hp in _p_lattices(p, t0, bound)
                for Q, s, parts in combos
                if Q * Qp <= bound
            ]
    return [functools.reduce(_crt_join, parts) for _, s, parts in combos if s == t0]


def enumerate_split_subgroups_z(max_index: int) -> list[ZSplitSubgroup]:
    """Every subgroup J x| tZ of Z[x, x^-1] x| Z of index <= max_index,
    each exactly once, sorted by nondecreasing index, then by d, t0, t
    and the sorted tuple of the ideal's vectors in [0, d)^t0.

    The last key is read off the Hermite basis, compared from its last
    row up. The vectors whose first j coordinates are 0 are spanned by
    rows j.. and form a prefix of the sorted tuple; the least of them
    with coordinate j nonzero is row j, since the entries right of a
    pivot lie below that column's pivot. So two tuples first differ
    where the lowest differing rows do, and compare as those rows do.

    The list is Z x| tZ at every t, and each J x| t0Z of
    `split_subgroup_stream` with no shifts and g = 0, t0 the least period
    of J, at every multiple of t0."""
    subs = [ZSplitSubgroup._from_basis(1, 1, ((1,),), t) for t in range(1, max_index + 1)]
    subs += [
        N if t == N.t else ZSplitSubgroup._from_basis(N.d, N.t0, N.basis, t)
        for N in split_subgroup_stream(0, max_index, (), 0)
        for t in range(N.t, max_index // N.quotient_ring_order + 1, N.t)
    ]
    return sorted(subs, key=lambda N: N.listing_key)


def _z_stream(g: int, max_index: int, units, may_separate):
    """The Z split subgroups of `split_subgroup_stream`, in the order of
    `enumerate_split_subgroups_z`, off one heap keyed by the
    `listing_key` of the subgroup each entry builds: every ideal J != Z
    at its least period t0, if t0 divides g (every J when g = 0) and
    t0 = 1 or may_separate is None or holds at t0, and the unit ideal at
    each t of units, an increasing iterator of shifts above 1. A period
    the predicate rejects costs one call of it and builds no lattice.

    Each ideal is built as a lattice in Hermite normal form, with t0 its
    least period and d its characteristic, and only if its co-index c is
    at most max_index // t0; the cost grows with the ideals returned,
    not with d^t0. It is filed once, at t0 * c, as (J, t0). For t0 = 1
    the ideals are the dZ: reading (dZ, 1) files ((d + 1)Z, 1), and
    reading the unit ideal (Z, t) files (Z, t'), t' the next shift of
    units; an entry is read after it is yielded, and the first, (Z, 1),
    the whole group, is read and not yielded. A quotient ring of least
    period t0 > 1 holds 0 and t0 distinct powers of x, so its order is
    at least t0 + 1: the lattices
    of period t0 are built, for t0 | g only, when the stream reaches
    index t0 (t0 + 1), the least they can have, before anything there is
    read. The dZ run to d = max_index, so the heap holds an entry of
    index at most max_index until every lattice that fits is built.
    """
    heap = [(1, 1, 1, 1, ((1,),))]  # (index, d, t0, t, basis rows from the last up)
    t0 = 2
    while heap:
        while t0 * (t0 + 1) <= heap[0][0]:
            if g % t0 == 0 and (may_separate is None or may_separate(t0)):
                for H in _lattices_of_period(t0, max_index // t0):
                    heapq.heappush(heap, (t0 * _coindex(H), H[-1][-1], t0, t0, H[::-1]))
            t0 += 1
        index, d, s0, t, R = heapq.heappop(heap)
        if index > 1:
            yield ZSplitSubgroup._from_basis(d, s0, R[::-1], t)
        if t == 1 and d < max_index:
            heapq.heappush(heap, (d + 1, d + 1, 1, 1, ((d + 1,),)))
        if d == 1 and (later := next(units, max_index + 1)) <= max_index:
            heapq.heappush(heap, (later, 1, 1, later, R))


# ---------------------------------------------------------------------------
# conjugacy in the quotient by a split subgroup


def conjugate_in_split_quotient(
    g1: SemidirectElement, g2: SemidirectElement, N
) -> bool:
    """Whether the images of g1 and g2 are conjugate in the finite
    quotient by N.

    The image criterion: shifts agree mod t, and P2 - x^l P1 lies in
    J + (x^{m mod t} - 1) for some l. Over F_p that ideal is (g0), so
    P2 mod g0 must lie in the x-orbit of P1 mod g0: the orbit of P1 is
    walked from P1 until it meets P2 or comes back to P1, as x is a unit
    mod g0 (the two class keys of `quotient_class_key` agree exactly
    then). Over Z, l runs over the period t0.
    """
    if g1.poly.ring != N.ring or g2.poly.ring != N.ring:
        raise ValueError("ring mismatch")
    if (g1.shift - g2.shift) % N.t:
        return False
    m = g1.shift % N.t
    if isinstance(N, FpSplitSubgroup):
        p, tail = N.p, N._tail(m)
        start = r = _dreduce(_normalize(g1.poly)[1], tail, p)
        target = _dreduce(_normalize(g2.poly)[1], tail, p)
        while r != target:
            if (r := _dtimes_x(r, tail, p)) == start:
                return False
        return True
    R = N._reachable(m)
    target = _reduce(R, N.vec(g2.poly))
    return any(_reduce(R, w) == target for w in _rotations(N.vec(g1.poly)))


def quotient_class_key(s: SemidirectElement, N):
    """Canonical conjugacy-class label of the image in the split
    quotient: two elements map to conjugate images exactly when their
    keys agree. The label is the shift mod t with the least residue of
    the x-orbit (F_p) or the least vector of the rotated cosets (Z)."""
    if s.poly.ring != N.ring:
        raise ValueError("ring mismatch")
    m = s.shift % N.t
    if isinstance(N, FpSplitSubgroup):
        p, tail = N.p, N._tail(m)
        if not tail:
            # g0 = 1: the quotient ring is zero, every residue is ()
            return m, ()
        least = start = r = _dreduce(_normalize(s.poly)[1], tail, p)
        while (r := _dtimes_x(r, tail, p)) != start:
            if r < least:
                least = r
        return m, least
    R = N._reachable(m)
    return m, min(_reduce(R, w) for w in _rotations(N.vec(s.poly)))


def image_in_split_quotient(g: SemidirectElement, N):
    """Canonical image of g in the quotient by N.

    Over F_p: (remainder of P mod the generator, shift mod t), using
    x^t = 1 to clear negative exponents. Over Z: (least coset vector,
    shift mod t).
    """
    if g.poly.ring != N.ring:
        raise ValueError("ring mismatch")
    if isinstance(N, FpSplitSubgroup):
        dense = [0] * N.t
        for e, c in _fold(g.poly, N.t).items():
            dense[e] = c
        rep = _dreduce(dense, N._tail(0), N.p)
        return _from_dense(N.p, 0, rep), g.shift % N.t
    return _reduce(N.basis, N.vec(g.poly)), g.shift % N.t


# ---------------------------------------------------------------------------
# gcd reduction certificates for ideals (x^m - 1, x^n - 1, d)


@dataclass(frozen=True)
class ModIdealCertificate:
    """Exact witnesses u, w, v for
    x^m - 1 = u (x^g - 1)  and  x^g - 1 = w (x^m - 1) + v (x^n - 1)
    with g = gcd(m, n) = t m + s n."""

    m: int
    n: int
    d: int
    g: int
    t: int
    s: int
    u: LaurentPoly
    w: LaurentPoly
    v: LaurentPoly


def _unit_cofactor(a: int, k: int) -> LaurentPoly:
    """C with x^{a k} - 1 = (x^a - 1) C, valid for either sign of k."""
    if k >= 0:
        return LaurentPoly(0, tuple((a * i, 1) for i in range(k)))
    pos = LaurentPoly(0, tuple((a * i, 1) for i in range(-k)))
    return poly_shift(poly_neg(pos), a * k)


def mod_ideal_reduce(m: int, n: int, d: int = 0) -> ModIdealCertificate:
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    g, t, s = _xgcd2(m, n)
    u = _unit_cofactor(g, m // g)
    w = _unit_cofactor(m, t)
    v = poly_shift(_unit_cofactor(n, s), t * m)
    cert = ModIdealCertificate(m, n, d, g, t, s, u, w, v)
    if not verify_mod_ideal(cert):
        raise ContractError(f"gcd certificate for ({m}, {n}) fails its own check")
    return cert


def verify_mod_ideal(c: ModIdealCertificate) -> bool:
    first = xt_minus_1(0, c.m) == poly_mul(c.u, xt_minus_1(0, c.g))
    second = xt_minus_1(0, c.g) == poly_add(
        poly_mul(c.w, xt_minus_1(0, c.m)), poly_mul(c.v, xt_minus_1(0, c.n))
    )
    return first and second and c.g == math.gcd(c.m, c.n) == c.t * c.m + c.s * c.n


# ---------------------------------------------------------------------------
# the cyclic-quotient polynomials 1 + x + ... + x^{q-1}


def psi_poly(q: int, ring: int = 0) -> LaurentPoly:
    if not is_prime(q):
        raise ValueError("q must be prime")
    return LaurentPoly(ring, tuple((i, 1) for i in range(q)))


def primitive_root_primes(p: int, count: int) -> list[int]:
    """First `count` primes q > p with p a primitive root mod q; the
    polynomial 1 + x + ... + x^{q-1} is then irreducible over F_p."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    out = []
    q = p
    while len(out) < count:
        q += 1
        if is_prime(q) and all(pow(p, (q - 1) // r, q) != 1 for r in _prime_factors(q - 1)):
            if not is_irreducible_fp(psi_poly(q, p)):
                raise ContractError(f"1 + x + ... + x^{q - 1} is reducible over F{p}")
            out.append(q)
    return out
