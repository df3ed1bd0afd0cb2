import itertools
import math
import os
import random
import subprocess
import sys

import pytest

from wreathconj import lattice
from wreathconj.lattice import (
    ext_gcd_bounded,
    int_det,
    kernel_basis,
    kernel_gram_det,
    unimodular_transform,
)


def test_ext_gcd_examples():
    assert ext_gcd_bounded((2, 3)) == (-1, 1)
    a = ext_gcd_bounded((5, 7))
    assert 5 * a[0] + 7 * a[1] == 1
    assert max(abs(x) for x in a) <= 3
    assert ext_gcd_bounded((1, 0)) == (1, 0)
    assert ext_gcd_bounded((4, 6)) == (-1, 1)


def test_ext_gcd_bound_randomized():
    rng = random.Random(31001)
    count = 0
    while count < 1000:
        k = rng.randint(2, 5)
        b = tuple(rng.randint(-50, 50) for _ in range(k))
        if math.gcd(*b) != 1:
            continue
        count += 1
        a = ext_gcd_bounded(b)
        assert sum(x * y for x, y in zip(a, b)) == 1
        assert max(abs(x) for x in a) <= max(1, max(abs(x) for x in b) // 2)


def test_ext_gcd_box_search_fallback(monkeypatch):
    # the greedy pass leaves this Bezout vector outside the half-max box
    # 457, so the exact box search runs, once, and supplies the answer
    calls = []
    search = lattice._dp_box_search
    monkeypatch.setattr(
        lattice, "_dp_box_search", lambda *args: calls.append(args) or search(*args)
    )
    assert ext_gcd_bounded((524, -914, 887)) == (61, 34, -1)
    assert calls == [((524, -914, 887), 1, 457)]


def test_ext_gcd_degenerate():
    assert ext_gcd_bounded((0, 0)) == (0, 0)
    assert ext_gcd_bounded((7,)) == (1,)
    assert ext_gcd_bounded((-7,)) == (-1,)
    with pytest.raises(ValueError):
        ext_gcd_bounded(())


def test_kernel_basis_examples():
    assert kernel_basis((2, 3)) == [(-3, 2)]
    assert kernel_basis((1, 0)) == [(0, 1)]
    basis = kernel_basis((2, 4, 5))
    assert len(basis) == 2
    norm_b = 11
    for v in basis:
        assert sum(x * y for x, y in zip(v, (2, 4, 5))) == 0
        assert sum(abs(x) for x in v) <= 4 * norm_b
    with pytest.raises(ValueError):
        kernel_basis((0, 0, 0))


def _in_span(basis, v):
    # exact membership of v in the integer row span of basis (rank = len(basis))
    k = len(v)
    rows = [list(r) for r in basis]
    if len(rows) == 1:
        lam = rows[0]
        pivot = next(i for i in range(k) if lam[i] != 0)
        if v[pivot] % lam[pivot]:
            return False
        t = v[pivot] // lam[pivot]
        return all(t * lam[i] == v[i] for i in range(k))
    assert len(rows) == 2
    for p, q in itertools.combinations(range(k), 2):
        d = rows[0][p] * rows[1][q] - rows[0][q] * rows[1][p]
        if d == 0:
            continue
        xn = v[p] * rows[1][q] - v[q] * rows[1][p]
        yn = rows[0][p] * v[q] - rows[0][q] * v[p]
        if xn % d or yn % d:
            return False
        x, y = xn // d, yn // d
        return all(x * rows[0][i] + y * rows[1][i] == v[i] for i in range(k))
    return False


def test_kernel_basis_box_completeness_small():
    # every kernel vector inside the norm box is generated by the basis
    rng = random.Random(31002)
    vectors = [(2, 3), (1, 0), (4, 6), (2, 4, 5), (3, 5, 7), (6, 10, 15)]
    for _ in range(40):
        k = rng.randint(2, 3)
        v = tuple(rng.randint(-10, 10) for _ in range(k))
        if any(v):
            vectors.append(v)
    for b in vectors:
        k = len(b)
        basis = kernel_basis(b)
        bound = 2 ** (k - 1) * sum(abs(x) for x in b)
        bound = min(bound, 30)  # keep the module-level check quick
        if k == 2:
            points = (
                (x, y)
                for x in range(-bound, bound + 1)
                for y in range(-bound + abs(x), bound - abs(x) + 1)
            )
        else:
            points = (
                (x, y, z)
                for x in range(-bound, bound + 1)
                for y in range(-(bound - abs(x)), bound - abs(x) + 1)
                for z in range(-(bound - abs(x) - abs(y)), bound - abs(x) - abs(y) + 1)
            )
        for p in points:
            if sum(x * y for x, y in zip(p, b)) == 0:
                assert _in_span(basis, p), (b, p)


def test_kernel_basis_covolume_randomized():
    rng = random.Random(31003)
    for _ in range(500):
        k = rng.randint(2, 5)
        b = tuple(rng.randint(-50, 50) for _ in range(k))
        if not any(b):
            continue
        g = math.gcd(*b)
        basis = kernel_basis(b)
        assert kernel_gram_det(basis) == sum((x // g) ** 2 for x in b)


def test_unimodular_examples():
    assert unimodular_transform((2, 3)) == [(-1, 1), (-3, 2)]
    assert unimodular_transform((1, 0)) == [(1, 0), (0, 1)]
    t = unimodular_transform((3, 5, 7))
    assert abs(int_det(t)) == 1
    assert all(abs(e) <= 60 for row in t for e in row)
    img = [sum(r[i] * v for i, v in enumerate((3, 5, 7))) for r in t]
    assert img == [1, 0, 0]


def test_unimodular_randomized():
    rng = random.Random(31004)
    count = 0
    while count < 300:
        k = rng.randint(2, 5)
        b = tuple(rng.randint(-50, 50) for _ in range(k))
        if not any(b):
            continue
        count += 1
        t = unimodular_transform(b)
        g = math.gcd(*b)
        img = [sum(r[i] * b[i] for i in range(k)) for r in t]
        assert img == [g] + [0] * (k - 1)
        assert abs(int_det(t)) == 1
        bound = 2 ** (k - 1) * sum(abs(x) for x in b)
        assert all(abs(e) <= bound for row in t for e in row)


def test_int_det():
    assert int_det([[2]]) == 2
    assert int_det([[1, 2], [3, 4]]) == -2
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    m = [[3, 1, 0, 2], [0, 2, 1, 1], [5, 0, 2, 0], [1, 1, 1, 1]]
    expected = (
        3 * int_det([[2, 1, 1], [0, 2, 0], [1, 1, 1]])
        - 1 * int_det([[0, 1, 1], [5, 2, 0], [1, 1, 1]])
        - 2 * int_det([[0, 2, 1], [5, 0, 2], [1, 1, 1]])
    )
    assert int_det(m) == expected


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_lattice_contracts_survive_optimisation(flags):
    # the returned objects are checked by explicit raises, not asserts, so
    # python -O keeps the checks; each patch breaks one construction
    code = (
        "from wreathconj import lattice\n"
        "def attempt(call):\n"
        "    try:\n"
        "        call()\n"
        "    except lattice.ContractError as e:\n"
        "        print(e)\n"
        "greedy = lattice._greedy_reduce\n"
        "lattice._greedy_reduce = lambda a, b: [0] * len(b)\n"
        "attempt(lambda: lattice.ext_gcd_bounded((4, 6)))\n"
        "lattice._greedy_reduce = greedy\n"
        "lattice._bezout_chain = lambda b: [(1, [1] * (i + 1)) for i in range(len(b))]\n"
        "attempt(lambda: lattice.kernel_basis((2, 3, 5)))\n"
        "lattice.int_det = lambda rows: 2\n"
        "attempt(lambda: lattice.unimodular_transform((0, 1)))\n"
    )
    out = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.splitlines() == [
        "Bezout vector for (4, 6) fails its own check",
        "kernel vector (-11, -1, 1) of (2, 3, 5) fails its own check",
        "transform of (0, 1) is not unimodular",
    ]


def test_int_det_rejects_a_non_square_matrix():
    with pytest.raises(ValueError):
        int_det([(1, 2), (3,)])
