"""`reduce` in one keyed pass and acting moduli verified once by coset
keys: frozen outputs of `reduce`, its path for reduced inputs and its
self-check, the count of modulus verifications, and `_verify_modulus`
against the `solve_multiple` oracle."""

import hashlib
import os
import random
import subprocess
import sys

import pytest

from test_witness import check_modulus_postconditions
from test_witness_path import DIGEST_GROUPS, _random_base, _random_element
from wreathconj import witness, wreath
from wreathconj.abelian import AbelianElement, AbelianGroup, parse_group, quotient_mod
from wreathconj.laurent import parse_semidirect, to_wreath
from wreathconj.witness import _verify_modulus, full_witness
from wreathconj.wreath import (
    ContractError,
    WreathGroup,
    element_from_json,
    element_to_json,
    reduce,
)


# ---------------------------------------------------------------------------
# reduce: frozen outputs, reduced inputs, the self-check

REDUCE_GROUPS = DIGEST_GROUPS + ["Z wr Z/8", "Z/6 wr Z/4 x Z/6"]

# Z wr Z/8 with b = 6 (order 4): the coset {0, 2, 4, 6} holds 0 -> 1,
# 2 -> 1, 6 -> -1, so the reduced form keeps 1 at 0, and the difference
# d = reduced - given is 0 at the least point 0. The running sum along
# the coset starts at 2, the least point where d is nonzero; starting
# at 0 gives another conjugator.
ZERO_START = ({(0,): (1,), (2,): (1,), (6,): (-1,)}, (6,))
ZERO_START_Z = {(0,): (-1,), (2,): (-1,)}


def _reduce_lines():
    """One line per reduce(g) (g, its reduced form and z) on seeded
    elements of the groups above, acting parts drawn freely, then on
    ZERO_START and on one like it over Z/6 wr Z/4 x Z/6."""
    rng = random.Random("reduce-digest")
    elements = []
    for text in REDUCE_GROUPS:
        A, B = (parse_group(s) for s in text.split(" wr "))
        W = WreathGroup(A, B)
        elements += [_random_element(rng, W, rng.randint(0, 7), 2) for _ in range(48)]
    elements.append(WreathGroup(parse_group("Z"), parse_group("Z/8")).element(*ZERO_START))
    W = WreathGroup(parse_group("Z/6"), parse_group("Z/4 x Z/6"))
    # b = (1, 2) of order 12: (0, 2) = 4b and (3, 0) = 3b, so d is 0 at
    # (0, 0), and the sum starts at (0, 2), past (3, 0) along the coset
    elements.append(W.element({(0, 0): (2,), (0, 2): (1,), (3, 0): (5,)}, (1, 2)))
    for g in elements:
        r, z = reduce(g)
        yield f"{element_to_json(g)} {element_to_json(r)} {element_to_json(z)}"


# SHA-256 of the lines above, joined by newlines, recorded with the
# reduce that solved the twist with `_solve_twist` after `_f_difference`
REDUCE_DIGEST = "301704bdcf519e55040b47e6611e93ff12301a47b6035d5efd0d564caaeac6ca"


def test_reduce_frozen_digest():
    W = WreathGroup(parse_group("Z"), parse_group("Z/8"))
    r, z = reduce(W.element(*ZERO_START))
    assert r == W.element({(0,): (1,)}, (6,))
    assert z == W.element(ZERO_START_Z, (0,))
    text = "\n".join(_reduce_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == REDUCE_DIGEST


def _reduced_inputs(seed):
    rng = random.Random(seed)
    for text in REDUCE_GROUPS:
        A, B = (parse_group(s) for s in text.split(" wr "))
        W = WreathGroup(A, B)
        for _ in range(12):
            yield reduce(_random_element(rng, W, rng.randint(0, 6), 3))[0]


def test_reduce_returns_reduced_input_with_identity():
    for g in _reduced_inputs(4401):
        r, z = reduce(g)
        assert r.pairs == g.pairs and r.b == g.b
        assert z == g.group.identity()


def test_reduce_checks_reduced_input(monkeypatch):
    # the self-check runs on an input already reduced too
    inputs = [g for g in _reduced_inputs(4402) if g.pairs]
    monkeypatch.setattr(wreath, "conjugate", lambda z, h: h.group.identity())
    for g in inputs:
        with pytest.raises(ContractError):
            reduce(g)


# nonreduced inputs over torsion in the acting group, in the lamps and in
# neither, as (A, B, f, b); the running sums give each a conjugator with
# pairs
NONREDUCED = [
    ("Z", "Z/8", *ZERO_START),
    ("Z/6", "Z/4 x Z/6", {(0, 0): (2,), (0, 2): (1,), (3, 0): (5,)}, (1, 2)),
    ("Z", "Z", {(-2,): (1,), (1,): (3,), (4,): (-1,)}, (3,)),
    ("Z/3", "Z^2", {(0, 0): (1,), (2, 2): (2,), (1, 2): (1,)}, (1, 1)),
]

def test_reduce_check_reaches_the_running_sums():
    # a conjugator corrupted where the running sums build it (the last
    # pair of each coset's dropped), on inputs that are not reduced,
    # fails reduce's check; python -O keeps it
    for A, B, f, b in NONREDUCED:
        g = WreathGroup(parse_group(A), parse_group(B)).element(f, b)
        assert not wreath.is_reduced(g) and reduce(g)[1].pairs
    code = (
        "from wreathconj import wreath\n"
        "from wreathconj.abelian import parse_group\n"
        "sums = wreath._running_sums\n"
        "def dropped(*args):\n"
        "    out, total = sums(*args)\n"
        "    return out[:-1], total\n"
        "wreath._running_sums = dropped\n"
        f"for A, B, f, b in {NONREDUCED!r}:\n"
        "    g = wreath.WreathGroup(parse_group(A), parse_group(B)).element(f, b)\n"
        "    try:\n"
        "        wreath.reduce(g)\n"
        "        print('unchecked')\n"
        "    except wreath.ContractError as exc:\n"
        "        print(exc)\n"
    )
    for flags in ([], ["-O"]):
        out = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.splitlines() == ["reduced conjugate fails its own check"] * len(NONREDUCED)


def test_reduce_checks_nonreduced_input(monkeypatch):
    # seeded nonreduced inputs, the running sums corrupted in process
    rng = random.Random(4404)
    inputs = []
    for text in REDUCE_GROUPS:
        A, B = (parse_group(s) for s in text.split(" wr "))
        W = WreathGroup(A, B)
        for _ in range(12):
            g = _random_element(rng, W, rng.randint(2, 7), 1)
            if reduce(g)[1].pairs:
                inputs.append(g)
    assert len(inputs) >= 30
    sums = wreath._running_sums

    def dropped(*args):
        out, total = sums(*args)
        return out[:-1], total

    monkeypatch.setattr(wreath, "_running_sums", dropped)
    for g in inputs:
        with pytest.raises(ContractError):
            reduce(g)


# ---------------------------------------------------------------------------
# acting moduli: each verified once, by coset keys


# BOUND_X / BOUND_Y of the command-line tests: the search returns its
# first candidate, 801
BOUND_PAIR = (
    '{"A": "Z/3", "B": "Z^2", "f": [[[2, 1], [1]]], "b": [0, -3]}',
    '{"A": "Z/3", "B": "Z^2", "f": [[[0, 3], [1]], [[2, -2], [1]], [[2, 1], [2]],'
    ' [[3, -2], [1]]], "b": [0, -3]}',
)
# a finite-order acting part in an infinite acting group: the
# coordinate-range fallback starts at 5 and the loop moves m up to 7
FALLBACK_PAIR = (
    '{"A":"Z/2","B":"Z x Z/2","f":[[[-1,0],[1]],[[0,0],[1]]],"b":[0,1]}',
    '{"A":"Z/2","B":"Z x Z/2","f":[[[2,0],[1]]],"b":[0,1]}',
)


def _verified_moduli(monkeypatch, pair):
    moduli = []
    verify = witness._verify_modulus

    def counted(pi, b, diffs):
        moduli.append(pi.modulus)
        return verify(pi, b, diffs)

    monkeypatch.setattr(witness, "_verify_modulus", counted)
    q = full_witness(*(element_from_json(text) for text in pair))
    return moduli, q.acting_map.modulus


def test_acting_stage_verifies_each_modulus_once(monkeypatch):
    moduli, m = _verified_moduli(monkeypatch, BOUND_PAIR)
    assert moduli == [801] and m == 801
    moduli, m = _verified_moduli(monkeypatch, FALLBACK_PAIR)
    assert moduli == [5, 6, 7] and m == 7
    # an infinite-order acting part whose images are taken as conjugate at
    # the searched modulus: the loop moves m up, verifying only the new m
    test = witness.conjugate_test
    calls = []
    monkeypatch.setattr(
        witness, "conjugate_test", lambda h1, h2: calls.append(1) or (len(calls) == 1 or test(h1, h2))
    )
    pair = [
        element_to_json(to_wreath(parse_semidirect(s, 2)))
        for s in ("(x^3-1, 3)", "(x-1+x^3-1, 3)")
    ]
    moduli, m = _verified_moduli(monkeypatch, pair)
    assert len(calls) == 2 and moduli[-1] == m
    assert moduli == list(range(moduli[0], m + 1, 3)) and len(moduli) >= 2


ORACLE_BASES = [AbelianGroup(1), AbelianGroup(2), AbelianGroup(1, (2,)), AbelianGroup(1, (3,))]


def test_verify_modulus_matches_solve_multiple_oracle():
    rng = random.Random(4403)
    agree = {True: 0, False: 0}
    for B in ORACLE_BASES:
        for _ in range(150):
            b = AbelianElement(B, _random_base(rng, B, 3))
            points = {_random_base(rng, B, 4) for _ in range(rng.randint(1, 5))}
            points = [AbelianElement(B, p) for p in points]
            diffs = sorted({s - t for s in points for t in points}, key=lambda d: d.coords)
            m = rng.randint(1, 20)
            try:
                check_modulus_postconditions(B, b, points, m)
                expected = True
            except AssertionError:
                expected = False
            diffs = [d.coords for d in diffs]
            assert _verify_modulus(quotient_mod(B, m), b, diffs) == expected, (B, b, points, m)
            agree[expected] += 1
    assert min(agree.values()) > 50
