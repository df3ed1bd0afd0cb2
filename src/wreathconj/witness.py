"""Finite quotients that witness nonconjugacy in A wr B.

Given a nonconjugate pair, build an explicit finite quotient separating
their conjugacy classes: first a modulus on the acting group that keeps
the reduced supports and their coset structure intact, then (for an
infinite lamp group) a modulus on the lamp group that keeps every range
value and every distinguishing value difference alive. Every quotient
is re-verified by running the conjugacy decision on the images.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from operator import add, sub
from typing import Optional, Union

from .abelian import (
    AbelianElement,
    AbelianGroup,
    QuotientMap,
    _reduced,
    format_group,
    quotient_mod,
    # not called here; bound so that callers tracing or timing the coset
    # solves as this module's names find them
    solve_multiple,
    word_length_abelian,
)
from .wreath import (
    ContractError,
    WreathElement,
    WreathGroup,
    _keyed_classes,
    all_translators,
    conjugate_reduced,
    conjugate_test,
    coset_key,
    element_to_json,
    extend_quotient_acting,
    extend_quotient_base,
    is_reduced,
    reduce,
)


class WitnessContractError(ContractError):
    """The inputs violate a nonconjugacy precondition, or a verified
    construction failed its own re-check."""


@dataclass(frozen=True)
class WitnessQuotient:
    """A finite quotient with verified nonconjugate images.

    `target` is either a finite wreath product or, for the shortcut when
    the acting parts already differ, a finite abelian group.
    """

    g1: WreathElement
    g2: WreathElement
    acting_map: Optional[QuotientMap]
    base_map: Optional[QuotientMap]
    target: Union[WreathGroup, AbelianGroup]
    image1: object
    image2: object
    certificate: str
    transcript: tuple = ()

    @property
    def order(self) -> int:
        n = self.target.order()
        if n is None:
            raise WitnessContractError("witness target is infinite")
        return n

    def _reported_order(self) -> Union[int, str]:
        """The order for the report: exact while its decimal form has at
        most `sys.get_int_max_str_digits()` digits, else the text
        "|A|^|B|*|B|". A wreath target's order |A|^|B| |B| has
        floor(|B| log10 |A| + log10 |B|) + 1 digits, so that estimate
        decides before any power is computed; an order within a digit of
        the limit is computed and compared exactly."""
        # 0, no limit, also on the Python 3.10 releases without one
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit or not isinstance(self.target, WreathGroup):
            return self.order
        na, nb = self.target.lamp.order(), self.target.base.order()
        if na is None or nb is None:
            return self.order  # raises: the target is infinite
        log_order = nb * math.log10(na) + math.log10(nb)
        if log_order < limit + 1:
            n = self.order
            if log_order < limit - 1 or n < 10**limit:
                return n
        return f"{na}^{nb}*{nb}"

    def report(self) -> dict:
        target = (
            format_group(self.target)
            if isinstance(self.target, AbelianGroup)
            else str(self.target)
        )
        return {
            "input": [
                json.loads(element_to_json(self.g1)),
                json.loads(element_to_json(self.g2)),
            ],
            "acting_modulus": self.acting_map.modulus if self.acting_map else None,
            "base_modulus": self.base_map.modulus if self.base_map else None,
            "target": target,
            "target_order": self._reported_order(),
            "certificate": self.certificate,
            "transcript": list(self.transcript),
        }


def _difference_set(B: AbelianGroup, points) -> list[tuple]:
    """The differences s - t of the points, coordinate tuples of B, each
    once and as a coordinate tuple."""
    pts = list(points)
    return list({_reduced(B, map(sub, s, t)) for s in pts for t in pts})


def _verify_modulus(pi: QuotientMap, b: AbelianElement, diffs) -> bool:
    """Whether pi is injective on `diffs`, coordinate tuples of pi's
    source, and keeps each one's membership of <b>. A point lies in <b>
    iff its coset key is the key of 0, read with one key function above
    the quotient and one below. Membership above implies membership
    below, so only a difference whose image lies in <pi(b)> is keyed
    above."""
    image = pi.image_coords
    images = [image(d) for d in diffs]
    if len(set(images)) != len(diffs):
        return False
    up, down = coset_key(b), coset_key(pi(b))
    zero_up = up((0,) * b.group.rank)[0]
    zero_down = down((0,) * pi.target.rank)[0]
    return all(
        up(d)[0] == zero_up
        for d, im in zip(diffs, images)
        if down(im)[0] == zero_down
    )


def _search_start(b: AbelianElement, ell: int) -> tuple[int, int]:
    """(threshold, step) of the modulus search for an acting part b of
    infinite order at radius ell: `translation_preserving_modulus(ell)`
    and lcm(|phi_1|, e) for free rank one, k*2^k*(2*ell)^2 and
    lcm(gcd(phi), e) for free rank k >= 2, phi the free part of b and e
    the exponent of the torsion."""
    B = b.group
    k = B.free_rank
    phi = b.free_part()
    e = B.torsion_exponent()
    if k == 1:
        return translation_preserving_modulus(ell), math.lcm(abs(phi[0]), e)
    return k * 2**k * (2 * ell) ** 2, math.lcm(math.gcd(*phi), e)


def separating_modulus(B: AbelianGroup, b: AbelianElement, supports, ell: int) -> int:
    """Least modulus m whose quotient is injective on the difference set
    of `supports` and preserves <b>-coset membership of every difference.

    The search starts at the threshold of `_search_start`, rounded up to
    a multiple of its step, runs over multiples of that step, and
    verifies both postconditions exhaustively before returning.
    """
    if b.group != B:
        raise ValueError("b must lie in B")
    if ell < 1:
        raise ValueError("ell must be positive")
    if not any(b.free_part()):
        raise ValueError("b must have infinite-order free projection")
    supports = list(supports)
    for s in supports:
        if s.group != B:
            raise ValueError("support points must lie in B")
        if word_length_abelian(s) > ell:
            raise ValueError(f"support point {s.coords} outside Ball({ell})")
    threshold, step = _search_start(b, ell)
    m = -(-threshold // step) * step
    diffs = _difference_set(B, [s.coords for s in supports])
    for _ in range(1000):
        if _verify_modulus(quotient_mod(B, m), b, diffs):
            return m
        m += step
    raise WitnessContractError("no verified separating modulus found")


def translation_preserving_modulus(ell: int) -> int:
    """Modulus below which translation equivalence of subsets of
    Ball(ell) in Z is neither created nor destroyed."""
    if ell < 1:
        raise ValueError("ell must be positive")
    return 4 * ell


def rf_quotient(A: AbelianGroup, r: AbelianElement) -> QuotientMap:
    """Smallest quotient that keeps r alive.

    A nonzero torsion coordinate already survives the free collapse
    (modulus 1); otherwise the least m >= 2 with r nonzero mod m is
    found by direct search.
    """
    if r.group != A:
        raise ValueError("r must lie in A")
    if r.is_zero():
        raise ValueError("r must be nonzero")
    return quotient_mod(A, _rf_modulus(A, r.coords))


def _rf_modulus(A: AbelianGroup, rc: tuple) -> int:
    """The modulus of `rf_quotient` for the nonzero element of A with
    coordinates rc, read off the coordinates."""
    k = A.free_rank
    if any(rc[k:]):
        if not any(quotient_mod(A, 1).image_coords(rc)):
            raise WitnessContractError("torsion part collapsed by the free quotient")
        return 1
    m = 2
    while not any(c % m for c in rc[:k]):
        m += 1
    return m


def _certificate_kind(r1: WreathElement, r2: WreathElement) -> str:
    s1, s2 = set(r1.support()), set(r2.support())
    if len(s1) != len(s2):
        return "support-size"
    if s1 and not all_translators(s1, s2):
        return "non-translate"
    return "value-mismatch"


def witness_acting_quotient(g1: WreathElement, g2: WreathElement) -> WitnessQuotient:
    """Quotient the acting group to a finite one keeping the images
    nonconjugate; when the lamp group is infinite the lamp quotient is
    composed on top so the returned target is always finite."""
    if g1.group != g2.group:
        raise ValueError("elements must share a group")
    red1, red2 = reduce(g1), reduce(g2)
    if conjugate_reduced(g1, g2, red1, red2) is not None:
        raise WitnessContractError("inputs are conjugate; no witness exists")
    r1, r2 = red1[0], red2[0]
    if r1.b != r2.b:
        raise ValueError("acting parts differ; use full_witness")
    B = g1.group.base
    A = g1.group.lamp
    b = r1.b
    kind = _certificate_kind(r1, r2)
    transcript = [f"reduced pair shares acting part b = {b.coords}"]

    # both branches leave h1, h2 verified nonconjugate: the reduced pair
    # by conjugate_reduced above, the acting quotient's images by the
    # conjugacy test that ends _acting_stage's search
    if B.order() is not None:
        acting_map = None
        h1, h2 = r1, r2
        transcript.append("acting group already finite; identity quotient")
    else:
        acting_map, h1, h2 = _acting_stage(r1, r2, transcript)
    transcript.append(f"images verified nonconjugate in {h1.group}")

    if A.order() is not None:
        return WitnessQuotient(
            g1, g2, acting_map, None, h1.group, h1, h2, kind, tuple(transcript)
        )

    transcript.append("lamp group infinite; composing lamp quotient")
    base_map, h1, h2 = _lamp_stage(h1, h2, transcript)
    return WitnessQuotient(
        g1, g2, acting_map, base_map, h1.group, h1, h2, kind, tuple(transcript)
    )


def _acting_stage(r1: WreathElement, r2: WreathElement, transcript: list):
    """Finite acting quotient keeping a reduced nonconjugate pair
    (shared acting part, infinite acting group) nonconjugate.

    The fed radius covers the support points and the acting part; the
    verification inside the modulus search still runs over the full
    difference set. A verified modulus can in rare cases still merge a
    shifted-support point with a support point, so the image pair is
    re-tested and the modulus bumped until the test fails again.

    The modulus `separating_modulus` returns is verified on this same
    difference set (its postcondition), so it is not verified again:
    the difference set is built, and a modulus verified, only once the
    loop moves the modulus up, or for the coordinate-range fallback of a
    finite-order acting part, which no search has verified.

    For an acting part of infinite order the modulus found is checked
    against a tracked bound, read off `_search_start` rather than off
    the modulus the search returns: 2e times the search's start
    threshold for free rank one (8 ell e), e times it for free rank
    k >= 2 (k 2^(k+2) ell^2 e), e the exponent of the torsion. The
    search visits only multiples of its step, so the bound is rounded up
    to a multiple of the step: unrounded, it failed a first candidate
    that the rounding up of the threshold had pushed just past it.
    """
    B = r1.group.base
    b = r1.b
    support = {k.coords: k for k, _ in r1.pairs + r2.pairs}
    points = [support[c] for c in sorted(support)]
    ell = max(
        1,
        word_length_abelian(b),
        max((word_length_abelian(p) for p in points), default=1),
    )
    k = B.free_rank
    verified = None
    if any(b.free_part()):
        m = verified = separating_modulus(B, b, points, ell)
        threshold, step = _search_start(b, ell)
        bound = threshold * (2 if k == 1 else 1) * B.torsion_exponent()
        bound = -(-bound // step) * step
        transcript.append(f"separating modulus m = {m} at radius {ell}")
    else:
        # b is pure torsion inside an infinite acting group: a modulus
        # past twice every coordinate in sight separates exactly
        maxc = max((abs(c) for p in points for c in p.coords), default=0)
        m, step, bound = 1 + 2 * maxc, 1, None
        transcript.append("finite-order acting part; coordinate-range fallback")
    diffs = None
    for _ in range(1000):
        pi = quotient_mod(B, m)
        if m != verified:
            if diffs is None:
                diffs = _difference_set(B, [p.coords for p in points]) or [(0,) * B.rank]
            if not _verify_modulus(pi, b, diffs):
                m += step
                continue
        h1 = extend_quotient_acting(r1, pi)
        h2 = extend_quotient_acting(r2, pi)
        if conjugate_test(h1, h2) is None:
            break
        m += step
    else:
        raise WitnessContractError("no modulus kept the images nonconjugate")
    if bound is not None and m > bound:
        raise WitnessContractError(f"modulus {m} above the tracked bound {bound}")
    size = pi.target.order()
    if size is None or size > m**k * math.prod(B.torsion):
        raise WitnessContractError(f"acting quotient of order {size} above m^k |T(B)|")
    transcript.append(f"acting modulus m = {m}, quotient target of order {size}")
    return pi, h1, h2


def _coset_value_mismatch_moduli(
    r1: WreathElement, r2: WreathElement, transcript: list
) -> list[int]:
    """For every candidate translation, find a coset where the value
    multisets disagree and keep all values there separated: the moduli
    of `rf_quotient` for their differences, on coordinate tuples."""
    if not r1.pairs or not r2.pairs:
        return []
    A, B = r1.group.lamp, r1.group.base
    f1 = [(k.coords, v.coords) for k, v in r1.pairs]
    f2 = {k.coords: v.coords for k, v in r2.pairs}
    key = coset_key(r1.b)
    x0 = f1[0][0]
    out = []
    for y in f2:
        c = _reduced(B, map(sub, y, x0))
        shifted = {_reduced(B, map(add, x, c)): v for x, v in f1}
        for cls in _keyed_classes(shifted.keys() | f2.keys(), key):
            m1 = sorted(shifted[p] for p, _ in cls if p in shifted)
            m2 = sorted(f2[p] for p, _ in cls if p in f2)
            if m1 == m2:
                continue
            values = sorted(set(m1) | set(m2))
            for i, a in enumerate(values):
                for a2 in values[i + 1 :]:
                    out.append(_rf_modulus(A, _reduced(A, map(sub, a, a2))))
            transcript.append(
                f"translation c = {c}: value multisets differ on the coset"
                f" of {cls[0][0]} ({len(values)} values kept separated)"
            )
            break
    return out


def witness_base_quotient(g1: WreathElement, g2: WreathElement) -> WitnessQuotient:
    """Quotient the lamp group to a finite one keeping reduced,
    nonconjugate inputs over a finite acting group nonconjugate.

    Every range value is kept alive, and for each candidate translation
    the values on one distinguishing coset stay pairwise separated, so
    the failing value comparison still fails downstairs. Conjugate
    inputs stay conjugate in every quotient, so the final test of the
    images rejects them.
    """
    if g1.group != g2.group:
        raise ValueError("elements must share a group")
    if g1.group.base.order() is None:
        raise ValueError("acting group must be finite here")
    if g1.b != g2.b:
        raise ValueError("acting parts differ; use full_witness")
    transcript: list[str] = []
    base_map, h1, h2 = _lamp_stage(g1, g2, transcript)
    kind = _certificate_kind(g1, g2)
    return WitnessQuotient(
        g1, g2, None, base_map, h1.group, h1, h2, kind, tuple(transcript)
    )


def _lamp_stage(g1: WreathElement, g2: WreathElement, transcript: list):
    """The lamp quotient of `witness_base_quotient` for a pair over a
    finite acting group with a shared acting part, its steps appended to
    the transcript: (base_map, h1, h2), the images verified
    nonconjugate. The inputs must be reduced."""
    if not (is_reduced(g1) and is_reduced(g2)):
        raise ValueError("inputs must be reduced")
    A = g1.group.lamp
    moduli = [_rf_modulus(A, v.coords) for _, v in g1.pairs + g2.pairs]
    transcript.append(f"range values kept alive by moduli {sorted(set(moduli))}")
    moduli += _coset_value_mismatch_moduli(g1, g2, transcript)
    m = math.lcm(1, *moduli)
    base_map = quotient_mod(A, m)
    h1 = extend_quotient_base(g1, base_map)
    h2 = extend_quotient_base(g2, base_map)
    transcript.append(f"lamp quotient modulus m = {m}")
    if conjugate_test(h1, h2) is not None:
        raise WitnessContractError("lamp quotient failed to separate")
    transcript.append(f"images verified nonconjugate in {h1.group}")
    return base_map, h1, h2


def full_witness(g1: WreathElement, g2: WreathElement) -> WitnessQuotient:
    """End-to-end separating quotient for a nonconjugate pair.

    Distinct acting parts are separated inside an abelian quotient of
    the acting group alone; otherwise the acting quotient (and, for an
    infinite lamp group, the composed lamp quotient) does the work.
    """
    if g1.group != g2.group:
        raise ValueError("elements must share a group")
    if g1.b != g2.b:
        diff = g1.b - g2.b
        pi = rf_quotient(g1.group.base, diff)
        i1, i2 = pi(g1.b), pi(g2.b)
        if i1 == i2:
            raise WitnessContractError("acting parts merged in the quotient")
        transcript = (
            f"acting parts differ by {diff.coords};"
            f" separated in {format_group(pi.target)}",
        )
        return WitnessQuotient(
            g1, g2, pi, None, pi.target, i1, i2, "acting-element", transcript
        )
    return witness_acting_quotient(g1, g2)
