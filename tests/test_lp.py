"""Exact LP feasibility: examples, witnesses, oracle and reference agreement."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from ptfkit import PTF, TruthTable, lp, parse_table, ptf
from ptfkit import _simplex
from conftest import all_tables
from oracles import farkas_phase1_reference, find_integer_point, full_tableau_solve


def _witness(res):
    """The point ``x / t`` of a feasible result, None for an infeasible one."""
    if not res.feasible:
        return None
    x, t = res.proof
    return tuple(Fraction(v, t) for v in x)


def _satisfies(A, b, point) -> bool:
    return all(sum(a * v for a, v in zip(row, point)) <= r for row, r in zip(A, b))


def _is_ray(A, b, y) -> bool:
    """``y >= 0``, ``A^T y = 0`` and ``b^T y < 0``, in Python ints."""
    cols = zip(*A)
    return (
        min(y) >= 0
        and all(sum(int(a) * v for a, v in zip(col, y)) == 0 for col in cols)
        and sum(int(r) * v for r, v in zip(b, y)) < 0
    )


def _checked(A, b):
    """``lp.feasible`` with its proof checked here too; returns the result."""
    A, b = np.array(A), np.array(b)
    res = lp.feasible(A, b)
    if res.feasible:
        assert _satisfies(A.tolist(), b.tolist(), _witness(res))
    else:
        assert _is_ray(A.tolist(), b.tolist(), res.proof)
    return res


def test_contradictory_bounds_infeasible():
    # x >= 1 and x <= 0
    ok, ray = _checked([[-1], [1]], [-1, 0])
    assert not ok
    assert ray == [1, 1]


def test_an_entering_column_without_a_leaving_row_raises(monkeypatch):
    # phase 1 minimizes a sum of nonnegative artificials, so a ratio test
    # that finds no row is a kernel bug, not an unbounded verdict
    monkeypatch.setattr(_simplex, "_leaving_row", lambda col, rhs, basis: -1)
    with pytest.raises(AssertionError, match="phase-1 simplex reported unbounded"):
        lp.feasible(np.array([[-1], [1]]), np.array([-1, 0]))


def test_interval_feasible():
    res = _checked([[-1], [1]], [-1, 2])
    assert res.feasible
    (x,) = _witness(res)
    assert 1 <= x <= 2


def test_empty_system_is_feasible_with_zero_witness():
    res = lp.feasible(np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert res == (True, ([0, 0, 0], 1))
    assert _witness(res) == (Fraction(0),) * 3


def test_and2_threshold_system():
    # weights w1, w2 and theta for the conjunction: one true row, three false
    A = [
        [-1, -1, 1],   # w1 + w2 >= theta
        [0, 0, -1],    # 0 <= theta - 1
        [1, 0, -1],
        [0, 1, -1],
    ]
    res = _checked(A, [0, -1, -1, -1])
    assert res.feasible
    w1, w2, theta = _witness(res)
    assert w1 + w2 >= theta
    assert max(Fraction(0), w1, w2) <= theta - 1


def _random_rows(rng, nvars, count, coeff, rhs):
    return [[rng.randint(-coeff, coeff) for _ in range(nvars)] for _ in range(count)], [
        rng.randint(-rhs, rhs) for _ in range(count)
    ]


def test_scale_invariance_on_random_systems():
    rng = random.Random(1234)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        A, b = _random_rows(rng, nvars, rng.randint(1, 6), 4, 5)
        base = _checked(A, b).feasible
        scales = [rng.randint(1, 9) for _ in b]
        scaled_A = [[s * v for v in row] for s, row in zip(scales, A)]
        scaled_b = [s * v for s, v in zip(scales, b)]
        assert _checked(scaled_A, scaled_b).feasible == base


def test_agreement_with_integer_point_search():
    rng = random.Random(777)
    for _ in range(120):
        nvars = rng.randint(1, 3)
        A, b = _random_rows(rng, nvars, rng.randint(1, 5), 3, 4)
        point = find_integer_point(A, b, bound=6)
        res = _checked(A, b)
        if point is not None:
            assert res.feasible, f"integer point {point} exists but LP said infeasible"


def test_feasible_by_construction_systems():
    # constraints generated to hold at a known rational point must be feasible
    rng = random.Random(4242)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        point = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(nvars)]
        A, b = [], []
        for _ in range(rng.randint(1, 8)):
            coeffs = [rng.randint(-5, 5) for _ in range(nvars)]
            value = sum(a * x for a, x in zip(coeffs, point))
            slack = Fraction(rng.randint(0, 6), rng.randint(1, 3))
            # a row below its value plus slack, or (negated) above its value minus slack
            sign = rng.choice((1, -1))
            rhs = sign * value + slack
            A.append([sign * rhs.denominator * a for a in coeffs])
            b.append(rhs.numerator)
        assert _satisfies(A, b, point)
        assert _checked(A, b).feasible


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
    feasible, proof, _ = _simplex.solve_free_le(A, b)
    if feasible:
        x, t = proof
        return True, tuple(Fraction(v, t) for v in x)
    scale = -sum(int(v) * int(w) for v, w in zip(proof, b))
    return False, tuple(Fraction(v, scale) for v in proof)


def _reference_result(A, b, rule: str):
    """The verdict and witness the Farkas reference proves, checked against the primal's verdict."""
    feasible, proof = farkas_phase1_reference(A, b, rule)
    assert feasible == full_tableau_solve(A, b, A.shape[1])[0]
    return feasible, proof if feasible else None


def test_witnesses_match_full_tableau_reference_on_random_systems():
    # the Farkas phase 1 makes its reference's pivots, so every proof and
    # witness is equal, and its verdict is the independent primal's
    for A, b in _random_systems(31337, 400):
        # entries past the int64 guard start on the object rung, under Bland
        rule = "dantzig" if np.abs(A).max() <= _simplex._INT64_GUARD else "bland"
        res = lp.feasible(A, b)
        assert (res.feasible, _witness(res)) == _reference_result(A, b, rule)
        assert _farkas_proof(A, b) == farkas_phase1_reference(A, b, rule)
        # feasible hands out the kernel's proof once it has passed its check
        assert res == _simplex.solve_free_le(A, b)[:2]


def test_witnesses_match_full_tableau_reference_on_every_n3_table():
    for f in all_tables(3):
        verdicts = []
        for d in range(4):
            mons, A, b = _realization_system(f, d)
            assert all(np.array_equal(u, v) for u, v in zip(ptf._realization_lp(f, d), (A, b)))
            ok, w = _reference_result(A, b, "dantzig")
            expected = PTF(3, dict(zip(mons, w)), w[-1]) if ok else None
            assert ptf.realize_at_degree(f, d) == expected
            assert lp.feasible(A, b).feasible == ok
            assert _farkas_proof(A, b) == farkas_phase1_reference(A, b, "dantzig")
            verdicts.append(expected)
        r, p = ptf.minimal_realization(f)
        assert r == ptf.order(f) == next(d for d, q in enumerate(verdicts) if q is not None)
        # the climb lifts each degree from the one below, so its witness may differ
        assert p.order <= r and ptf.truth_table(p) == f


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
    before = lp.feasible(A, b)
    seen = []
    loop = _simplex._pivot_loop_numpy

    def spy(T, basis, dantzig, delta=1):
        start = T.copy()
        status, delta = loop(T, basis, dantzig, delta)
        seen.append((T.dtype, dantzig, status, not np.array_equal(T, start)))
        return status, delta

    # a guard the initial tableau meets but later pivots pass
    T0 = _simplex._build_tableau(A, b, np.int64)[0]
    monkeypatch.setattr(_simplex, "_INT64_GUARD", int(np.abs(T0).max()))
    monkeypatch.setattr(_simplex, "_pivot_loop_numpy", spy)
    after = lp.feasible(A, b)
    status = _simplex.FEASIBLE if before.feasible else _simplex.INFEASIBLE
    assert seen == [
        (np.int64, True, _simplex.OVERFLOW, True),
        (np.int64, False, _simplex.OVERFLOW, True),
        (object, False, status, True),
    ]
    assert (before.feasible, _witness(before)) == _reference_result(A, b, "dantzig")
    assert (after.feasible, _witness(after)) == _reference_result(A, b, "bland")


def _flip_probe(code: str, j: int):
    """g's final phase-1 state at its order, and g's LP there flipped at table index j."""
    g = parse_table(code)
    _, _, (A, b, res) = ptf._climb(g)
    return res.state, ptf._flipped_lp(A, b, j)


@pytest.mark.parametrize("code, j", [("0011", 3), ("0011", 1)], ids=["nonbasic", "degenerate"])
def test_forged_warm_state_raises(code, j):
    state, (A, b) = _flip_probe(code, j)
    assert _simplex._warm_start(A, b, state, j) is not None
    assert lp.feasible(A, b, start=(state, j)).feasible and lp.feasible(A, b).feasible
    T, basis, delta, signs = state
    forged = T.copy()
    # a zero artificials' sum reads the basic y as a ray of a feasible system
    forged[-1, -1] = 0
    with pytest.raises(AssertionError, match="infeasibility ray"):
        lp.feasible(A, b, start=((forged, basis, delta, signs), j))


@pytest.mark.parametrize(
    "code, j, over",
    [
        ("0111", 3, "column"),
        ("00000110", 0, "degenerate pivot"),
        ("0010", 0, "kept artificial"),
        ("0011", 1, "object state"),
    ],
)
def test_warm_start_past_the_guard_restarts_on_the_cold_ladder(code, j, over, monkeypatch):
    state, (A, b) = _flip_probe(code, j)
    cold = lp.feasible(A, b)
    T, basis, delta, signs = state
    warm = _simplex._warm_start(A, b, state, j)
    if over == "object state":
        state = (T.astype(object), basis, delta, signs)
    else:
        # a guard g's tableau meets but the warm tableau passes
        guard = int(np.abs(T).max())
        assert np.abs(warm[0]).max() > guard
        monkeypatch.setattr(_simplex, "_INT64_GUARD", guard)
    seen = []
    loop = _simplex._pivot_loop_numpy

    def spy(T, basis, dantzig, delta=1):
        start = T.copy()
        status, delta = loop(T, basis, dantzig, delta)
        seen.append((np.array_equal(start, _simplex._build_tableau(A, b, T.dtype)[0]), status))
        return status, delta

    monkeypatch.setattr(_simplex, "_pivot_loop_numpy", spy)
    res = lp.feasible(A, b, start=(state, j))
    assert res.feasible == cold.feasible
    # only a new column past the guard reaches the loop, which stops at once
    if over == "column":
        assert seen.pop(0) == (False, _simplex.OVERFLOW)
    assert seen and all(fresh for fresh, _ in seen)


def _lift_probe(code: str, d: int):
    """f's final phase-1 state at degree d-1, f's LP at d, and the columns d adds."""
    f = parse_table(code)
    A0, b0 = ptf._realization_lp(f, d - 1)
    A, b = ptf._realization_lp(f, d)
    return lp.feasible(A0, b0).state, A, b, slice(A0.shape[1] - 1, A.shape[1] - 1)


@pytest.mark.parametrize("over", ["lifted tableau", "object state"])
def test_lift_past_the_guard_restarts_on_the_cold_ladder(over, monkeypatch):
    state, A, b, new = _lift_probe("1001", 2)
    cold = lp.feasible(A, b)
    T, basis, delta, signs = state
    if over == "object state":
        state = (T.astype(object), basis, delta, signs)
    else:
        # a guard the degree-1 tableau meets but the lifted one passes
        guard = int(np.abs(T).max())
        assert np.abs(_simplex._lift(A, b, state, new)[0]).max() > guard
        monkeypatch.setattr(_simplex, "_INT64_GUARD", guard)
    assert _simplex._lift(A, b, state, new) is None
    seen = []
    loop = _simplex._pivot_loop_numpy

    def spy(T, basis, dantzig, delta=1):
        seen.append(np.array_equal(T, _simplex._build_tableau(A, b, T.dtype)[0]))
        return loop(T, basis, dantzig, delta)

    monkeypatch.setattr(_simplex, "_pivot_loop_numpy", spy)
    assert lp.feasible(A, b, start=(state, new)).feasible == cold.feasible
    assert seen and all(seen)


def test_forged_lifted_state_raises(monkeypatch):
    state, A, b, new = _lift_probe("1001", 2)
    assert lp.feasible(A, b, start=(state, new)).feasible
    T, basis, delta, signs = _simplex._lift(A, b, state, new)
    assert T[-1, -1] != 0
    forged = T.copy()
    # a zero artificials' sum reads the basic y as a ray of a feasible system
    forged[-1, -1] = 0
    monkeypatch.setattr(_simplex, "_lift", lambda *args: (forged, basis, delta, signs))
    with pytest.raises(AssertionError, match="infeasibility ray"):
        lp.feasible(A, b, start=(state, new))


# Reversing the rows of this n=7 table's degree-3 LP (its order is 3) makes
# plain Dantzig pricing cycle; the guard must switch to Bland's rule.
def test_repeated_basis_switches_dantzig_to_bland(monkeypatch):
    # Bit i is the output at index i.  The guard switches once and the solve
    # ends after 552 pivots; in table order no basis repeats.  A pivot budget
    # makes a missing guard fail fast instead of cycling forever.
    code = 0xC493145E679B9E1EC0C29F21B234AE9C
    f = TruthTable(7, tuple((code >> i) & 1 for i in range(128)))
    A, b = ptf._realization_lp(f, 3)
    pivots = 0
    real_pivot = _simplex._pivot

    def budgeted_pivot(*args):
        nonlocal pivots
        pivots += 1
        if pivots > 5000:
            raise AssertionError("pivot budget spent: the solve is cycling")
        return real_pivot(*args)

    monkeypatch.setattr(_simplex, "_pivot", budgeted_pivot)
    res = _checked(A[::-1], b[::-1])
    assert res.feasible
    assert lp.feasible(A, b).feasible == res.feasible


# 0 <= x <= 1 is feasible; x <= 1 with x >= 2 is not (ray y = (1, 1))
_INTERVAL = (np.array([[1], [-1]]), np.array([1, 0]))
_GAP = (np.array([[1], [-1]]), np.array([1, -2]))


@pytest.mark.parametrize(
    "system, forged",
    [
        (_INTERVAL, {"solve_free_le": lambda A, b, start: (False, [1, 1], None)}),
        (_GAP, {"solve_free_le": lambda A, b, start: (True, ([2], 1), None)}),
        (_GAP, {"solve_free_le": lambda A, b, start: (True, ([0], 0), None)}),
    ],
    ids=["forged-ray", "forged-multipliers", "zero-multiplier-t"],
)
def test_bad_proofs_raise(system, forged, monkeypatch):
    A, b = system
    assert lp.feasible(A, b).feasible == (system is _INTERVAL)
    for name, fake in forged.items():
        monkeypatch.setattr(_simplex, name, fake)
    with pytest.raises(AssertionError):
        lp.feasible(A, b)


@pytest.mark.parametrize(
    "y", [[1, 1], [1, 1, 0, 0], [1, 1, -1]], ids=["too-short", "too-long", "negative-entry"]
)
def test_farkas_ray_check_rejects_a_malformed_ray(y):
    # x <= 1, x >= 2 and 0 <= 1: y = (1, 1, 0) is a ray, and (1, 1, -1)
    # would pass every test but y >= 0
    A, b = np.array([[1], [-1], [0]]), np.array([1, -2, 1])
    assert lp._is_farkas_ray(A, b, [1, 1, 0])
    assert not lp._is_farkas_ray(A, b, y)


def test_overflow_falls_back_to_exact_path():
    # coefficients near 2**40 exceed the int64 pivot guard up front
    big = 1 << 40
    res = _checked([[-big, -1], [big, 1]], [-(big + 5), big + 7])
    assert res.feasible
    x, y = _witness(res)
    assert big + 5 <= big * x + y <= big + 7
    assert not _checked([[-big], [big]], [-1, 0]).feasible


def test_systems_without_variables_compare_the_right_hand_side():
    empty = np.zeros((1, 0), dtype=np.int64)
    assert lp.feasible(empty, np.array([1])) == (True, ([], 1))
    assert lp.feasible(np.zeros((2, 0), dtype=np.int64), np.array([1, -2])) == (False, [0, 1])
