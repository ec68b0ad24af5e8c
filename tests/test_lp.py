"""Exact LP feasibility: examples, witnesses, oracle and reference agreement."""

from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from ptfkit import PTF, FeasibilityResult, LinearConstraint, feasible, lp, ptf
from ptfkit import _simplex
from ptfkit.lp import feasible_le_int
from conftest import all_tables
from oracles import farkas_phase1_reference, find_integer_point, full_tableau_solve


def c(coeffs, relation, rhs):
    return LinearConstraint(tuple(Fraction(v) for v in coeffs), relation, Fraction(rhs))


def test_contradictory_bounds_infeasible():
    res = feasible([c([1], ">=", 1), c([1], "<=", 0)], 1)
    assert res == FeasibilityResult(False, None)


def test_interval_feasible():
    res = feasible([c([1], ">=", 1), c([1], "<=", 2)], 1)
    assert res.feasible
    (x,) = res.witness
    assert 1 <= x <= 2


def test_empty_system_is_feasible_with_zero_witness():
    res = feasible([], 3)
    assert res.feasible
    assert res.witness == (Fraction(0),) * 3


def test_and2_threshold_system():
    # weights w1, w2 and theta for the conjunction: one true row, three false
    rows = [
        c([-1, -1, 1], "<=", 0),   # w1 + w2 >= theta
        c([0, 0, -1], "<=", -1),   # 0 <= theta - 1
        c([1, 0, -1], "<=", -1),
        c([0, 1, -1], "<=", -1),
    ]
    res = feasible(rows, 3)
    assert res.feasible
    w1, w2, theta = res.witness
    assert w1 + w2 >= theta
    assert max(Fraction(0), w1, w2) <= theta - 1


def test_rational_coefficients_cleared_exactly():
    res = feasible([c([Fraction(1, 3), Fraction(1, 7)], ">=", Fraction(22, 21))], 2)
    assert res.feasible
    x, y = res.witness
    assert x / 3 + y / 7 >= Fraction(22, 21)


def test_scale_invariance_on_random_systems():
    rng = random.Random(1234)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [rng.randint(-4, 4) for _ in range(nvars)]
            rows.append(c(coeffs, rng.choice([">=", "<="]), rng.randint(-5, 5)))
        base = feasible(rows, nvars).feasible
        scaled = []
        for row in rows:
            s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled.append(
                LinearConstraint(tuple(s * v for v in row.coeffs), row.relation, s * row.rhs)
            )
        assert feasible(scaled, nvars).feasible == base


def test_agreement_with_integer_point_search():
    rng = random.Random(777)
    for _ in range(120):
        nvars = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [rng.randint(-3, 3) for _ in range(nvars)]
            rows.append(c(coeffs, rng.choice([">=", "<="]), rng.randint(-4, 4)))
        point = find_integer_point(rows, nvars, bound=6)
        res = feasible(rows, nvars)
        if point is not None:
            assert res.feasible, f"integer point {point} exists but LP said infeasible"
        if res.feasible:
            assert all(row.satisfied_by(res.witness) for row in rows)


def test_feasible_by_construction_systems():
    # constraints generated to hold at a known rational point must be feasible
    rng = random.Random(4242)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        point = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(nvars))
        rows = []
        for _ in range(rng.randint(1, 8)):
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(nvars)]
            value = sum(a * x for a, x in zip(coeffs, point))
            slack = Fraction(rng.randint(0, 6), rng.randint(1, 3))
            if rng.random() < 0.5:
                rows.append(LinearConstraint(tuple(coeffs), "<=", value + slack))
            else:
                rows.append(LinearConstraint(tuple(coeffs), ">=", value - slack))
        res = feasible(rows, nvars)
        assert res.feasible


def _random_systems(seed: int, count: int):
    rng = random.Random(seed)
    for k in range(count):
        nvars = rng.randint(1, 5)
        bound = 1 << 40 if k % 50 == 0 else 6
        rows = [
            [rng.randint(-bound, bound) for _ in range(nvars)] for _ in range(rng.randint(1, 10))
        ]
        rhs = [rng.randint(-7, 7) for _ in rows]
        yield np.array(rows, dtype=object), np.array(rhs, dtype=object)


def _realization_system(f, d):
    """The LP that ``realize_at_degree`` solves: one row per input, weights then theta."""
    mons, M = ptf._monomial_matrix(f.n, d)
    true_row = np.array(f.bits) == 1
    A = np.hstack([np.where(true_row[:, None], -M, M), np.where(true_row, 1, -1)[:, None]])
    return mons, A, np.where(true_row, 0, -1)


def _farkas_proof(A, b):
    """The Farkas phase 1's proof, scaled as the reference scales it."""
    feasible, proof = _simplex.solve_free_le(A, b)
    if feasible:
        x, t = proof
        return True, tuple(Fraction(v, t) for v in x)
    scale = -sum(int(v) * int(w) for v, w in zip(proof, b))
    return False, tuple(Fraction(v, scale) for v in proof)


def _reference_result(A, b, rule: str) -> FeasibilityResult:
    """The result the Farkas reference proves, checked against the primal's verdict."""
    feasible, proof = farkas_phase1_reference(A, b, rule)
    assert feasible == full_tableau_solve(A, b, A.shape[1])[0]
    return FeasibilityResult(feasible, proof if feasible else None)


def test_witnesses_match_full_tableau_reference_on_random_systems():
    # the Farkas phase 1 makes its reference's pivots, so every proof and
    # witness is equal, and its verdict is the independent primal's
    for A, b in _random_systems(31337, 400):
        # entries past the int64 guard start on the object rung, under Bland
        rule = "dantzig" if np.abs(A).max() <= _simplex._INT64_GUARD else "bland"
        expected = _reference_result(A, b, rule)
        assert feasible_le_int(A, b) == expected
        assert lp.decide(A, b) == expected.feasible
        assert _farkas_proof(A, b) == farkas_phase1_reference(A, b, rule)
        # solve hands out the kernel's proof once it has passed its check
        assert lp.solve(A, b) == _simplex.solve_free_le(A, b)


def test_witnesses_match_full_tableau_reference_on_every_n3_table():
    for f in all_tables(3):
        verdicts = []
        for d in range(4):
            mons, A, b = _realization_system(f, d)
            ref = _reference_result(A, b, "dantzig")
            w = ref.witness
            expected = PTF(3, dict(zip(mons, w)), w[-1]) if ref.feasible else None
            assert ptf.realize_at_degree(f, d) == expected
            assert lp.decide(A, b) == ref.feasible
            assert _farkas_proof(A, b) == farkas_phase1_reference(A, b, "dantzig")
            verdicts.append(expected)
        r = ptf.order(f)
        assert r == next(d for d, p in enumerate(verdicts) if p is not None)
        assert ptf.minimal_realization(f) == (r, verdicts[r])


@pytest.mark.parametrize(
    "A, b",
    [
        ([[1, 2, 6], [1, 1, 2], [3, -3, -4], [6, 2, 1], [4, 3, 6], [-4, -5, 1]],
         [-3, -5, -6, 1, 5, 7]),
        ([[1, 2], [-3, 1], [2, -5], [-1, 3], [1, 1]], [-4, -5, -6, -3, 2]),
    ],
    ids=["feasible", "infeasible"],
)
def test_farkas_overflow_mid_solve_restarts_on_object_dtype(A, b, monkeypatch):
    A, b = np.array(A), np.array(b)
    before = feasible_le_int(A, b)
    seen = []
    loop = _simplex._pivot_loop_numpy

    def spy(T, basis, dantzig):
        start = T.copy()
        status, delta = loop(T, basis, dantzig)
        seen.append((T.dtype, dantzig, status, not np.array_equal(T, start)))
        return status, delta

    # a guard the initial tableau meets but later pivots pass
    T0 = _simplex._build_tableau(A, b, np.int64)[0]
    monkeypatch.setattr(_simplex, "_INT64_GUARD", int(np.abs(T0).max()))
    monkeypatch.setattr(_simplex, "_pivot_loop_numpy", spy)
    after = feasible_le_int(A, b)
    status = _simplex.FEASIBLE if before.feasible else _simplex.INFEASIBLE
    assert seen == [
        (np.int64, True, _simplex.OVERFLOW, True),
        (np.int64, False, _simplex.OVERFLOW, True),
        (object, False, status, True),
    ]
    assert before == _reference_result(A, b, "dantzig")
    assert after == _reference_result(A, b, "bland")


# Reversing the rows of this n=7 table's degree-3 LP (its order is 3) makes
# plain Dantzig pricing cycle; the guard must switch to Bland's rule.
_CYCLING_LP = """
from ptfkit import TruthTable, lp, ptf
code = int("c493145e679b9e1ec0c29f21b234ae9c", 16)
f = TruthTable(7, tuple((code >> i) & 1 for i in range(128)))
_, A, b = ptf._realization_lp(f, 3)
print(lp.decide(A[::-1], b[::-1]))
"""


def test_repeated_basis_switches_dantzig_to_bland(subprocess_env):
    # a child with a timeout, so a missing cycle guard fails instead of hanging
    proc = subprocess.run(
        [sys.executable, "-c", _CYCLING_LP],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


# 0 <= x <= 1 is feasible; x <= 1 with x >= 2 is not (ray y = (1, 1))
_INTERVAL = (np.array([[1], [-1]]), np.array([1, 0]))
_GAP = (np.array([[1], [-1]]), np.array([1, -2]))


@pytest.mark.parametrize(
    "system, forged",
    [
        (_INTERVAL, {"solve_free_le": lambda A, b: (False, [1, 1])}),
        (_GAP, {"solve_free_le": lambda A, b: (True, ([2], 1))}),
        (_GAP, {"solve_free_le": lambda A, b: (True, ([0], 0))}),
    ],
    ids=["forged-ray", "forged-multipliers", "zero-multiplier-t"],
)
def test_bad_proofs_raise(system, forged, monkeypatch):
    A, b = system
    assert feasible_le_int(A, b).feasible == (system is _INTERVAL)
    for name, fake in forged.items():
        monkeypatch.setattr(_simplex, name, fake)
    for entry in (lp.solve, lp.decide, feasible_le_int):
        with pytest.raises(AssertionError):
            entry(A, b)


def test_overflow_falls_back_to_exact_path():
    # coefficients near 2**40 exceed the int64 pivot guard up front
    big = 1 << 40
    res = feasible([c([big, 1], ">=", big + 5), c([big, 1], "<=", big + 7)], 2)
    assert res.feasible
    x, y = res.witness
    assert big * x + y >= big + 5
    assert big * x + y <= big + 7
    res = feasible([c([big], ">=", 1), c([big], "<=", 0)], 1)
    assert not res.feasible


def test_systems_without_variables_compare_the_right_hand_side():
    assert feasible([c([], "<=", 1)], 0) == FeasibilityResult(True, ())
    assert feasible([c([], "<=", 1), c([], ">=", 2)], 0) == FeasibilityResult(False, None)


def test_validates_coefficient_count():
    with pytest.raises(ValueError):
        feasible([c([1, 2], "<=", 0)], 3)


def test_relation_validated():
    with pytest.raises(ValueError):
        LinearConstraint((Fraction(1),), "<", Fraction(0))
