"""Acceptance scorecard, one test per criterion.

Each test prints its scorecard line (run with -s or look at captured
output on failure), asserts the pass flag and then asserts the whole
line, which is frozen here as `wreathconj verify` prints it. Criteria 4b
and 4c check two findings about the Z wr Z pair at q = 3: the separator
is the subgroup whose index is the displayed formula (the literal
reading is not a split subgroup), and the pair's depth is 6, below the
reference instance value 9.
"""

from wreathconj import verify


def _check(res, line):
    print(res.line())
    assert res.passed, res.detail
    assert res.line() == line


def test_criterion_1_family_depths_within_bounds():
    _check(
        verify.criterion_1(),
        "criterion 1: PASS - q=3: split_depth=12 in [8,12]; q=5:"
        " split_depth=80 in [32,80]",
    )


def test_criterion_2_conjugate_below_lower_bound():
    _check(
        verify.criterion_2(),
        "criterion 2: PASS - all 62 split quotients below the bounds leave"
        " the pairs conjugate",
    )


def test_criterion_3_explicit_quotient_images():
    _check(
        verify.criterion_3(),
        "criterion 3: PASS - order 12; pi(f)=(0, 0); pi(g)=(x + 1, 0)",
    )


def test_criterion_4a_zwrz_nonconjugate_both_criteria():
    _check(
        verify.criterion_4a(),
        "criterion 4a: PASS - nonconjugate: wreath criterion True, Laurent"
        " criterion True",
    )


def test_criterion_4b_claimed_separator():
    _check(
        verify.criterion_4b(),
        "criterion 4b: PASS - H = (3, x^2 - 1) x| 2Z has index 18"
        " (displayed formula 18, paper upper 18); f -> ((0, 0), 0), g ->"
        " ((1, 2), 0): separates True, quotient test agrees True; the"
        " literal reading (2, x^2 - 1) x| 3Z is not a split subgroup (shift"
        " must be a multiple of the ideal period)",
    )


def test_criterion_4c_conjugate_below_claimed_bound():
    _check(
        verify.criterion_4c(),
        "criterion 4c: PASS - all 10 split quotients of index <= 5 give"
        " equal images (0 do not); the index-6 quotient (3, x + 1) x| 2Z"
        " separates: True; quotient test agrees True; so the depth is 6,"
        " and the reference instance value 9 exceeds it",
    )


def test_criterion_4d_index_recomputation():
    _check(
        verify.criterion_4d(),
        "criterion 4d: PASS - index of H is 18; the displayed formula gives"
        " 18; the literal reading's index is 12",
    )


def test_criterion_5_finite_exhaustive_agreement():
    _check(
        verify.criterion_5(seed=0),
        "criterion 5: PASS - 14753 ordered pairs across 3 finite wreath"
        " products",
    )


def test_criterion_6_lemma_suite():
    _check(
        verify.criterion_6(seed=0),
        "criterion 6: PASS - kernel box 12360 vectors (True); stretch 1000"
        " (True); translate 1000 (True); coset 300 (True); mod-ideal 864"
        " (True)",
    )


def test_criterion_7_witness_success_and_size():
    _check(
        verify.criterion_7(seed=0),
        "criterion 7: PASS - 100 re-verified witnesses per group x 3"
        " groups; F2 wr Z witness order <= 2^(c n) with c = 3.12",
    )


def test_criterion_8_sweep_determinism_and_witnesses():
    _check(
        verify.criterion_8(),
        "criterion 8: PASS - maxima [3, 3, 4, 8, 12, 32]; repeat run"
        " (jobs=1, jobs=2; jobs has no effect) equal: True; every maximum"
        " re-verified: True",
    )
