import json
import os
import subprocess
import sys

import pytest

from wreathconj import witness
from wreathconj.cli import main, parse_wreath_group
from wreathconj.laurent import parse_semidirect, to_wreath
from wreathconj.verify import CriterionResult
from wreathconj.wreath import conjugate, conjugate_test, element_from_json, element_to_json


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_conj_test_nonconjugate_example(capsys):
    rc, out, _ = run(
        capsys,
        "conj-test", "--group", "F2 wr Z",
        "--x", "(x^3-1, 3)", "--y", "(x-1+x^3-1, 3)",
    )
    assert rc == 0
    assert out == "nonconjugate\n"


def test_conj_test_identity_witness(capsys):
    rc, out, _ = run(
        capsys,
        "conj-test", "--group", "F2 wr Z",
        "--x", "(x^3-1, 3)", "--y", "(x^3-1, 3)",
    )
    assert rc == 0
    assert out == "conjugate\nwitness: identity\n"


def test_conj_test_witness_roundtrip(capsys):
    # (x^5 + x^2, 3) collapses to the bare shift: 5 and 2 share a coset
    rc, out, _ = run(
        capsys,
        "conj-test", "--group", "F2 wr Z",
        "--x", "(x^5+x^2, 3)", "--y", "(0, 3)",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "conjugate"
    text = lines[1].removeprefix("witness: ")
    z = to_wreath(parse_semidirect(text, 2))
    g1 = to_wreath(parse_semidirect("(x^5+x^2, 3)", 2))
    g2 = to_wreath(parse_semidirect("(0, 3)", 2))
    assert conjugate(z, g1) == g2


def test_conj_test_json_format(capsys):
    rc, out, _ = run(
        capsys,
        "conj-test", "--group", "F2 wr Z",
        "--x", "(x^3-1, 3)", "--y", "(x-1+x^3-1, 3)",
        "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"result": "nonconjugate", "witness": None}


def test_conj_test_general_group_json_elements(capsys):
    W = parse_wreath_group("Z/4 wr Z x Z/2")
    g1 = W.element({(1, 0): (1,), (0, 1): (3,)}, (2, 1))
    z = W.element({(0, 0): (2,)}, (1, 1))
    g2 = conjugate(z, g1)
    rc, out, _ = run(
        capsys,
        "conj-test", "--group", "Z/4 wr Z x Z/2",
        "--x", element_to_json(g1), "--y", element_to_json(g2),
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "conjugate"
    w = element_from_json(lines[1].removeprefix("witness: "))
    assert conjugate(w, g1) == g2


def test_family_lamplighter_json(capsys):
    rc, out, _ = run(
        capsys,
        "family", "--tag", "lamplighter", "--p", "2", "--i", "1",
        "--budget", "64",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["lower"] == 8
    assert doc["upper"] == 12
    assert doc["split_depth"] == 12


def test_family_lamplighter_p2_i8(capsys):
    # q = 53: the depth is the family's upper bound 53 * 2^52
    rc, out, _ = run(capsys, "family", "--tag", "lamplighter", "--p", "2", "--i", "8")
    assert rc == 0
    doc = json.loads(out)
    assert doc["q"] == 53
    assert doc["split_depth"] == doc["upper"] == 238690780250636288


def test_family_budget_exceeded_exit_2(capsys):
    rc, out, _ = run(
        capsys, "family", "--tag", "zwrz", "--i", "2", "--budget", "3"
    )
    assert rc == 2
    assert json.loads(out)["split_depth"] == "exceeds budget"


def test_reduce_roundtrip(capsys):
    rc, out, _ = run(
        capsys, "reduce", "--group", "F2 wr Z", "--x", "(x^5+x^2, 3)"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "(0, 3)"
    z = to_wreath(parse_semidirect(lines[1].removeprefix("conjugator: "), 2))
    g = to_wreath(parse_semidirect("(x^5+x^2, 3)", 2))
    assert conjugate(z, g) == to_wreath(parse_semidirect("(0, 3)", 2))


def test_witness_json_report(capsys):
    rc, out, _ = run(
        capsys,
        "witness", "--group", "F2 wr Z",
        "--x", "(x^3-1, 3)", "--y", "(x-1+x^3-1, 3)",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["separated"] is True
    assert doc["target_order"] >= 2
    im1 = element_from_json(doc["image1"])
    im2 = element_from_json(doc["image2"])
    assert conjugate_test(im1, im2) is None


# a Z wr Z^2 pair separated in Z/2 wr Z/2048 x Z/2048, whose order has
# more decimal digits than Python converts by default
RANK2_X = '{"A":"Z","B":"Z^2","f":[[[-3,-3],[-1]],[[0,3],[-1]],[[3,1],[-1]]],"b":[1,3]}'
RANK2_Y = (
    '{"A":"Z","B":"Z^2","f":[[[-3,-5],[-1]],[[-2,-1],[1]],[[-2,0],[-1]],[[-1,2],[-1]],'
    '[[-1,3],[1]],[[0,1],[-1]],[[1,6],[1]],[[3,-1],[-1]]],"b":[1,3]}'
)


def test_witness_large_target_order_as_text(capsys):
    rc, out, err = run(capsys, "witness", "--group", "Z wr Z^2", "--x", RANK2_X, "--y", RANK2_Y)
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["target"] == "Z/2 wr Z/2048 x Z/2048"
    assert doc["target_order"] == "2^4194304*4194304"
    assert doc["separated"] is True
    rc, out, _ = run(
        capsys, "witness", "--group", "Z wr Z^2", "--x", RANK2_X, "--y", RANK2_Y, "--format", "text"
    )
    assert rc == 0
    assert "order: 2^4194304*4194304\n" in out


def test_witness_conjugate_inputs_exit_1(capsys):
    rc, out, err = run(
        capsys,
        "witness", "--group", "F2 wr Z",
        "--x", "(x^3-1, 3)", "--y", "(x^3-1, 3)",
    )
    assert rc == 1
    assert out == ""
    assert "conjugate" in err


def test_witness_modulus_search_failure_exit_3(capsys, monkeypatch):
    # a modulus search that never verifies is a contract failure: exit 3
    # with one line on stderr, no traceback
    monkeypatch.setattr(witness, "_verify_modulus", lambda pi, b, diffs: False)
    rc, out, err = run(
        capsys,
        "witness", "--group", "F2 wr Z",
        "--x", "(x^3-1, 3)", "--y", "(x-1+x^3-1, 3)",
    )
    assert rc == 3
    assert out == ""
    assert err.startswith("internal error: no verified separating modulus found")
    assert "Traceback" not in err


# a Z/3 wr Z^2 pair whose acting modulus search ends at its first
# candidate, 801: one past the acting stage's tracked bound 800 before
# that bound was rounded up to a multiple of the search's step 3
BOUND_X = '{"A": "Z/3", "B": "Z^2", "f": [[[2, 1], [1]]], "b": [0, -3]}'
BOUND_Y = (
    '{"A": "Z/3", "B": "Z^2", "f": [[[0, 3], [1]], [[2, -2], [1]], [[2, 1], [2]],'
    ' [[3, -2], [1]]], "b": [0, -3]}'
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_wreath_and_witness_contracts_survive_optimisation(flags):
    # the contracts of reduce and of the acting stage are explicit raises,
    # not asserts, so python -O keeps them: exit 3, one stderr line each.
    # A search that starts past the tracked bound trips the acting stage's
    # check; a conjugation that returns its input trips reduce's.
    code = (
        "from wreathconj import cli, witness, wreath\n"
        "witness.separating_modulus = lambda B, b, points, ell: 804\n"
        f"rc = cli.main(['witness', '--group', 'Z/3 wr Z^2', '--x', {BOUND_X!r},"
        f" '--y', {BOUND_Y!r}])\n"
        "wreath.conjugate = lambda z, g: g\n"
        "rc2 = cli.main(['reduce', '--group', 'F2 wr Z', '--x', '(x^5+x^2, 3)'])\n"
        "print(rc, rc2)\n"
    )
    out = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout == "3 3\n"
    assert out.stderr.splitlines() == [
        "internal error: modulus 804 above the tracked bound 801",
        "internal error: reduced conjugate fails its own check",
    ]


def test_depth_text_output(capsys):
    rc, out, _ = run(
        capsys,
        "depth", "--group", "F2 wr Z",
        "--x", "(0, -2)", "--y", "(x^-1+x^-2, -2)",
    )
    assert rc == 0
    assert out == "split_depth: 8\nsubgroup: F2: t=2, gen=x^2 + 1\n"


def test_depth_budget_exceeded_exit_2(capsys):
    rc, out, _ = run(
        capsys,
        "depth", "--group", "F2 wr Z",
        "--x", "(0, -2)", "--y", "(x^-1+x^-2, -2)",
        "--budget", "6",
    )
    assert rc == 2
    assert out == "split_depth: exceeds budget\n"


def test_depth_large_shifts(capsys):
    # x^65536 - 1 = (x + 1)^65536 over F2 is factored only as far as the
    # default budget 64 reaches
    rc, out, _ = run(
        capsys,
        "depth", "--group", "F2 wr Z",
        "--x", "(0, 65536)", "--y", "(0, 131072)",
    )
    assert rc == 0
    assert out == "split_depth: 3\nsubgroup: F2: t=3, gen=1\n"


def test_depth_z_default_budget(capsys):
    rc, out, _ = run(
        capsys,
        "depth", "--group", "Z wr Z",
        "--x", "(2*x^2-2, 2)", "--y", "(2*x^2+2*x-4, 2)",
        "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["split_depth"] == 6
    assert doc["subgroup"].startswith("Z: d=3")


def test_depth_z_default_budget_past_18(capsys):
    # this pair exhausts budget 18; its depth 21 lies within the default 24
    pair = ("depth", "--group", "Z wr Z", "--x", "(1 - x^-1, 0)", "--y", "(-1 + x^-1, 0)")
    rc, out, _ = run(capsys, *pair, "--budget", "18")
    assert rc == 2
    assert out == "split_depth: exceeds budget\n"
    rc, out, _ = run(capsys, *pair)
    assert rc == 0
    assert out == "split_depth: 21\nsubgroup: Z: d=7, t0=3, |V|=49, t=3\n"


def test_depth_large_equal_shifts(capsys):
    # the conjugacy check folds once mod x^65536 - 1 instead of dividing
    # once per rotation
    rc, out, _ = run(
        capsys,
        "depth", "--group", "F2 wr Z",
        "--x", "(1, 65536)", "--y", "(0, 65536)",
    )
    assert rc == 0
    assert out == "split_depth: 2\nsubgroup: F2: t=1, gen=x + 1\n"


def test_depth_needs_laurent_group(capsys):
    rc, out, err = run(
        capsys,
        "depth", "--group", "Z/4 wr Z x Z/2",
        "--x", "(0, 1)", "--y", "(0, 2)",
    )
    assert rc == 1
    assert "Fp wr Z or Z wr Z" in err


def test_depth_accepts_identity(capsys):
    # read as (0, 0), as every command that takes an element reads it
    for x, y in (("identity", "(1, 0)"), ("(1, 0)", "identity")):
        rc, out, _ = run(capsys, "depth", "--group", "F2 wr Z", "--x", x, "--y", y)
        assert rc == 0
        assert out == "split_depth: 2\nsubgroup: F2: t=1, gen=x + 1\n"


FORMAT_ARGS = {
    "conj-test": ("--group", "F2 wr Z", "--x", "(x^3-1, 3)", "--y", "(x-1+x^3-1, 3)"),
    "reduce": ("--group", "F2 wr Z", "--x", "(x^5+x^2, 3)"),
    "witness": ("--group", "F2 wr Z", "--x", "(x^3-1, 3)", "--y", "(x-1+x^3-1, 3)"),
    "depth": ("--group", "F2 wr Z", "--x", "(0, 0)", "--y", "(1, 0)"),
    "family": ("--tag", "lamplighter", "--p", "2", "--i", "1"),
    "verify": ("--seed", "0"),
}


@pytest.mark.parametrize(
    "command, fmt",
    [(c, "csv") for c in ("conj-test", "reduce", "witness", "depth", "family")]
    + [("verify", f) for f in ("json", "csv", "text")],
)
def test_format_offers_only_what_the_command_prints(capsys, command, fmt):
    # only sweep prints csv, and verify prints its scorecard only
    rc, out, err = run(capsys, command, *FORMAT_ARGS[command], "--format", fmt)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and "--format" in err


def test_sweep_csv_shape_and_determinism(capsys):
    args = ("sweep", "--ring", "F2", "--n", "3", "--budget", "16")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args, "--jobs", "2")
    assert rc1 == rc2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "n,max_split_depth,witness_pair_id,subgroup_descriptor,elapsed_ms"
    assert len(lines) == 4
    assert all(line.endswith(",0") for line in lines[1:])


def test_sweep_budget_exceeded_exit_2(capsys):
    rc, out, _ = run(
        capsys, "sweep", "--ring", "F2", "--n", "2", "--budget", "2"
    )
    assert rc == 2
    assert "exceeds budget" in out


@pytest.mark.parametrize("ring", ["F0", "F1", "F4", "F9"])
def test_sweep_non_prime_ring_exit_1(capsys, ring):
    # rejected before any work: no Z wr Z sweep for F0, no class listing
    # ending in exit 2 for F4
    rc, out, err = run(capsys, "sweep", "--ring", ring, "--n", "16")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and ring in err


@pytest.mark.parametrize("ring, n, budget", [("F2", "40", "0"), ("Z", "9", "-1")])
def test_sweep_nonpositive_budget_exit_1(capsys, ring, n, budget):
    # rejected before the classes are listed: Ball(40) over F2 would
    # exceed the ball ceiling, and the Z classes would be listed before
    # the stream rejected the budget
    rc, out, err = run(capsys, "sweep", "--ring", ring, "--n", n, "--budget", budget)
    assert rc == 1
    assert out == ""
    assert err == "error: budget must be positive\n"


def test_sweep_ring_any_case(capsys):
    args = ("--n", "3", "--budget", "16")
    for upper, lower in (("Z", "z"), ("F2", "f2")):
        rc1, out1, _ = run(capsys, "sweep", "--ring", upper, *args)
        rc2, out2, _ = run(capsys, "sweep", "--ring", lower, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2


def test_out_flag_writes_identical_bytes(capsys, tmp_path):
    args = ("sweep", "--ring", "F2", "--n", "2", "--budget", "8")
    rc, out, _ = run(capsys, *args)
    assert rc == 0
    path = tmp_path / "rows.csv"
    rc = main([*args, "--out", str(path)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    data = path.read_bytes()
    assert data.decode("utf-8") == out
    assert b"\r" not in data


def test_bad_group_and_element_exit_1(capsys):
    rc, _, err = run(capsys, "conj-test", "--group", "Q8 wr Z", "--x", "(0,0)", "--y", "(0,0)")
    assert rc == 1 and "Q8" in err
    rc, _, err = run(capsys, "conj-test", "--group", "F2 wr Z", "--x", "(x^^3, 1)", "--y", "(0,0)")
    assert rc == 1 and "x^^3" in err
    rc, _, err = run(capsys, "conj-test", "--group", "F2 wr Z", "--x", "(0,0)")
    assert rc == 1 and "--y" in err
    # F<n> means F_p only: F4 is not read as Z/4
    doc = '{"A":"F4","B":"Z","f":[[[0],[1]]],"b":[1]}'
    rc, out, err = run(capsys, "conj-test", "--group", "F4 wr Z", "--x", doc, "--y", doc)
    assert rc == 1 and out == "" and "F4" in err


@pytest.mark.parametrize(
    "doc",
    [
        '{"A":"Z","B":"Z^2","f":[[[1,0],["a"]]],"b":[3,0]}',
        '{"A":"Z","B":"Z^2","f":[[[1,0],[1.5]]],"b":[3,0]}',
        '{"A":"Z","B":"Z^2","f":[[[1,0],[true]]],"b":[3,0]}',
        '{"A":"Z","B":"Z^2","f":[[[1,0],[1]]],"b":3}',
        '{"A":"Z","B":"Z^2","f":[[3,[1]]],"b":[3,0]}',
        '{"A":"Z","B":"Z^2","f":[[[1,0],1]],"b":[3,0]}',
        '{"A":"Z","B":"Z^2","f":3,"b":[3,0]}',
    ],
)
def test_malformed_element_json_exit_1(capsys, doc):
    rc, out, err = run(capsys, "reduce", "--group", "Z wr Z^2", "--x", doc)
    assert rc == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_element_group_mismatch_exit_1(capsys):
    W = parse_wreath_group("Z/2 wr Z/4")
    g = W.element({(0,): (1,)}, (1,))
    rc, _, err = run(
        capsys,
        "conj-test", "--group", "Z/2 wr Z/2",
        "--x", element_to_json(g), "--y", element_to_json(g),
    )
    assert rc == 1
    assert "different group" in err


def test_family_repeat_byte_identical(capsys):
    args = ("family", "--tag", "lamplighter", "--p", "2", "--i", "1")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_scorecard_known_red_only(capsys):
    rc, out, _ = run(capsys, "verify", "--seed", "0")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "11/11 criteria passed"
    assert [line for line in lines if ": FAIL" in line] == []


def test_verify_failing_criterion_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(
        "wreathconj.cli.run_all",
        lambda seed=0: [CriterionResult("1", True, "ok"), CriterionResult("2", False, "bad")],
    )
    rc, out, _ = run(capsys, "verify", "--seed", "0")
    assert rc == 3
    assert "criterion 2: FAIL - bad" in out.splitlines()
    assert out.splitlines()[-1] == "1/2 criteria passed"
