"""Realization, order, threshold decisions, and same-weight families."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from ptfkit import (
    PTF,
    DimensionMismatch,
    PreconditionError,
    TruthTable,
    all_vectors,
    compose_by_variable,
    const,
    eval_G,
    flip_at,
    index_of,
    is_threshold,
    order,
    parse_table,
    realize_at_degree,
    same_weight_family,
    share_weights,
    truth_table,
    vector_at,
    xor,
)
from ptfkit import lp, ptf
from ptfkit.cli import format_ptf_text, parse_ptf_text
from ptfkit.core import MAX_VARS
from ptfkit.ptf import (
    MAX_LP_VARS,
    _flipped_lp,
    _monomial_matrix,
    _realization_lp,
    evaluate,
    weighted_sum,
)
from conftest import (
    AND2,
    CONST0_2,
    CONST1_2,
    OR2,
    XOR2,
    XOR3,
    all_tables,
    parity_table,
    random_weight_map,
)
from oracles import monomial_matrix_reference, share_weights_system

XOR2_PTF = PTF(2, {(1,): 1, (2,): 1, (1, 2): -2}, 1)


def test_eval_G_examples():
    assert eval_G(XOR2_PTF, (1, 1)) == 0
    assert eval_G(XOR2_PTF, (0, 0)) == 0
    assert eval_G(PTF(2, {(1,): 1}, 0), (1, 0)) == 1


def test_eval_examples():
    and_ptf = PTF(2, {(1,): 1, (2,): 1}, 2)
    assert evaluate(and_ptf, (1, 1)) == 1
    assert evaluate(and_ptf, (1, 0)) == 0
    assert evaluate(XOR2_PTF, (1, 1)) == 0
    with pytest.raises(DimensionMismatch):
        evaluate(and_ptf, (1,))


def test_truth_table_examples():
    assert truth_table(XOR2_PTF) == XOR2
    assert truth_table(PTF(2, {}, 0)) == CONST1_2
    assert truth_table(PTF(2, {}, 1)) == CONST0_2


def test_zero_coefficients_dropped():
    p = PTF(2, {(1,): 0, (2,): 3}, 1)
    assert p.coeffs == {(2,): Fraction(3)}
    assert p.order == 1
    assert PTF(2, {}, 0).order == 0


def test_monomial_validation():
    with pytest.raises(ValueError):
        PTF(2, {(2, 1): 1}, 0)
    with pytest.raises(ValueError):
        PTF(2, {(1, 3): 1}, 0)
    with pytest.raises(ValueError):
        PTF(2, {(): 1}, 0)


@pytest.mark.parametrize(
    "weight, theta",
    [(0.1, 0), (1, 0.5), ("1/2", 0), (1, "1e3")],
    ids=["float-weight", "float-theta", "string-weight", "exponent-string-theta"],
)
def test_ptf_takes_exact_rationals_only(weight, theta):
    with pytest.raises(ValueError, match="exact rationals"):
        PTF(1, {(1,): weight}, theta)


def test_ptf_reads_numpy_ints_and_bools_as_int_fractions():
    p = PTF(2, {(1,): np.int64(3), (2,): True}, np.uint8(2))
    assert p.coeffs == {(1,): 3, (2,): 1} and p.theta == 2
    values = [*p.coeffs.values(), p.theta]
    assert all(type(v) is Fraction and type(v.numerator) is int for v in values)


def test_ptf_needs_a_variable():
    with pytest.raises(ValueError, match="at least one variable"):
        PTF(0, {}, 0)


def test_realize_at_degree_examples():
    assert realize_at_degree(AND2, 1) is not None
    assert realize_at_degree(XOR2, 1) is None
    p = realize_at_degree(XOR2, 2)
    assert p is not None and truth_table(p) == XOR2


def test_realize_validates_preconditions():
    with pytest.raises(PreconditionError):
        realize_at_degree(XOR2, 3)
    with pytest.raises(PreconditionError):
        realize_at_degree(XOR2, -1)


def test_order_examples():
    assert order(const(2, 0)) == 0
    assert order(const(3, 1)) == 0
    assert order(AND2) == 1
    assert order(XOR3) == 3


def test_order_of_parity_functions():
    for n in range(1, 5):
        assert order(parity_table(n)) == n


def test_is_threshold_examples():
    assert is_threshold(OR2) is not None
    assert is_threshold(XOR2) is None


def test_single_minterm_closed_form_is_threshold():
    rng = random.Random(5150)
    for _ in range(20):
        n = rng.randint(1, 5)
        Y = vector_at(rng.randrange(1 << n), n)
        bits = [0] * (1 << n)
        bits[sum(y << i for i, y in enumerate(Y))] = 1
        f = TruthTable(n, tuple(bits))
        assert is_threshold(f) is not None
        closed = PTF(n, {(i + 1,): 2 * y - 1 for i, y in enumerate(Y)}, sum(Y))
        assert truth_table(closed) == f


def test_round_trip_exhaustive_n_le_3():
    for n in (1, 2, 3):
        for f in all_tables(n):
            d = order(f)
            p = realize_at_degree(f, d)
            assert p is not None
            assert truth_table(p) == f
            assert (d == 0) == (len(set(f.bits)) == 1)
            assert d <= f.n


def test_scale_invariance_of_realizations():
    rng = random.Random(88)
    for _ in range(20):
        n = rng.randint(1, 3)
        f = TruthTable(n, tuple(rng.randint(0, 1) for _ in range(1 << n)))
        p = realize_at_degree(f, order(f))
        s = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        scaled = PTF(n, {m: s * c for m, c in p.coeffs.items()}, s * p.theta)
        assert truth_table(scaled) == f


def test_same_weight_family_unit_weights():
    fam = same_weight_family({(1,): 1, (2,): 1}, 2)
    assert fam.levels == (0, 1, 2)
    tables = [t for _, t in fam.members]
    assert tables == [CONST1_2, OR2, AND2, CONST0_2]


def test_family_above_the_cell_cap_raises():
    # weight 2^(i-1) on x_i gives each of the 65,536 inputs its own level
    with pytest.raises(PreconditionError, match="65537 members"):
        same_weight_family({(i,): 1 << (i - 1) for i in range(1, 17)}, 16)


def test_same_weight_family_zero_weights():
    fam = same_weight_family({}, 2)
    assert [t for _, t in fam.members] == [CONST1_2, CONST0_2]


def test_family_always_contains_constants_and_is_monotone():
    rng = random.Random(512)
    for _ in range(25):
        n = rng.randint(1, 4)
        weights = {(i + 1,): rng.randint(-3, 3) for i in range(n)}
        fam = same_weight_family(weights, n)
        tables = [t for _, t in fam.members]
        assert tables[0] == const(n, 1)
        assert tables[-1] == const(n, 0)
        assert len(set(tables)) == len(tables) <= (1 << n) + 1
        for a, b in zip(tables, tables[1:]):
            # larger theta can only shrink the true set
            assert all(x >= y for x, y in zip(a.bits, b.bits))
        thetas = [t for t, _ in fam.members]
        assert thetas == sorted(thetas)


def test_family_band_xor_property():
    rng = random.Random(640)
    for _ in range(15):
        n = rng.randint(1, 4)
        weights = {(i + 1,): rng.randint(-2, 2) for i in range(n)}
        fam = same_weight_family(weights, n)
        if len(fam.members) < 3:
            continue
        (ta, fa), (tb, fb) = fam.members[0], fam.members[2]
        band = xor(fa, fb)
        for i, X in enumerate(
            vector_at(j, n) for j in range(1 << n)
        ):
            g = weighted_sum(fam.weights, X)
            assert band.bits[i] == (1 if ta <= g < tb else 0)


def test_family_accepts_higher_degree_weights():
    fam = same_weight_family({(1, 2): 1}, 2)
    assert [t for _, t in fam.members] == [CONST1_2, AND2, CONST0_2]


def test_share_weights_examples():
    shared = share_weights(OR2, AND2)
    assert shared is not None
    weights, theta_f, theta_g = shared
    p_f = PTF(2, weights, theta_f)
    p_g = PTF(2, weights, theta_g)
    assert truth_table(p_f) == OR2
    assert truth_table(p_g) == AND2

    thr = is_threshold(OR2)
    assert share_weights(OR2, OR2) is not None

    proj1 = parse_table("0101")
    proj2 = parse_table("0011")
    assert share_weights(proj1, proj2) is None
    assert thr is not None


def test_share_weights_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        share_weights(OR2, const(3, 1))


def test_share_weights_cap():
    big = const(MAX_LP_VARS + 1, 0)
    with pytest.raises(PreconditionError):
        share_weights(big, big)


@pytest.mark.parametrize("n", [MAX_LP_VARS, MAX_VARS])
def test_share_weights_stops_below_the_lp_cap_before_joining(n, monkeypatch):
    # the joined table has n + 1 variables
    monkeypatch.setattr(ptf, "compose_by_variable", None)
    monkeypatch.setattr(lp, "feasible", None)
    t = const(n, 0)
    with pytest.raises(PreconditionError, match=f"capped at n <= {MAX_LP_VARS - 1}, got {n}"):
        share_weights(t, t)


def test_a_climb_with_no_feasible_degree_raises(monkeypatch):
    monkeypatch.setattr(lp, "feasible", lambda A, b, start=None: lp.FeasibilityResult(False, []))
    with pytest.raises(AssertionError, match="realizable at degree n"):
        order(XOR2)


def _seeded_pairs(count: int):
    """Half the pairs sweep one random weight vector, so they share weights."""
    rng = random.Random(2024)
    for k in range(count):
        n = rng.choice((3, 4))
        if k % 2:
            w = [rng.randint(-3, 3) for _ in range(n)]
            sums = [sum(w[j] for j in range(n) if i >> j & 1) for i in range(1 << n)]
            f, g = (
                TruthTable(n, tuple(int(s >= theta) for s in sums))
                for theta in (rng.randint(-5, 5), rng.randint(-5, 5))
            )
        else:
            f, g = (TruthTable(n, tuple(rng.getrandbits(1) for _ in range(1 << n))) for _ in "fg")
        yield f, g


def _assert_shares_as_row_by_row_reference(pairs) -> int:
    """share_weights against the solve of the reference system; counts shared pairs."""
    shared_count = 0
    for f, g in pairs:
        shared = share_weights(f, g)
        ok, _ = lp.feasible(*share_weights_system(f, g))
        if not ok:
            assert shared is None
            continue
        # the witness is the joined table's degree-1 realization, split at x_{n+1}
        p = is_threshold(compose_by_variable(f, g))
        u = p.coeffs.get((f.n + 1,), 0)
        split = {m: c for m, c in p.coeffs.items() if m != (f.n + 1,)}
        assert shared == (split, p.theta, p.theta - u)
        weights, theta_f, theta_g = shared
        assert truth_table(PTF(f.n, weights, theta_f)) == f
        assert truth_table(PTF(f.n, weights, theta_g)) == g
        shared_count += 1
    return shared_count


def test_share_weights_matches_row_by_row_reference_on_every_n2_pair():
    tables = list(all_tables(2))
    assert _assert_shares_as_row_by_row_reference((f, g) for f in tables for g in tables) > 0


def test_share_weights_matches_row_by_row_reference_on_seeded_pairs():
    assert _assert_shares_as_row_by_row_reference(_seeded_pairs(300)) >= 150


def test_ptf_text_round_trip():
    text = format_ptf_text(XOR2_PTF)
    assert parse_ptf_text(text, n=2) == XOR2_PTF
    assert "theta: 1" in text


def test_truth_table_matches_per_input_evaluate():
    rng = random.Random(1101)
    for n in range(1, 7):
        inputs = [vector_at(j, n) for j in range(1 << n)]
        for trial in range(25):
            weights = {} if trial == 0 else random_weight_map(rng, n, n)
            # half the thresholds sit exactly on a level, where >= decides
            if trial % 2:
                theta = weighted_sum(weights, rng.choice(inputs))
            else:
                theta = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
            p = PTF(n, weights, theta)
            assert truth_table(p).bits == tuple(evaluate(p, X) for X in inputs)


def test_monomial_matrix_matches_mask_reference():
    for n in range(1, 11):
        for d in range(n + 1):
            mons, M = _monomial_matrix(n, d)
            ref_mons, ref = monomial_matrix_reference(n, d)
            assert mons == ref_mons
            assert M.dtype == ref.dtype == np.int64
            assert M.shape == ref.shape
            assert M.flags.c_contiguous and not M.flags.writeable
            assert M.tobytes() == ref.tobytes()


def test_flipped_lp_is_the_flipped_tables_lp():
    for n in (1, 2, 3):
        for g in all_tables(n):
            for d in range(n + 1):
                A, b = _realization_lp(g, d)
                before = A.copy(), b.copy()
                for Y in all_vectors(n):
                    got = _flipped_lp(A, b, index_of(Y))
                    want = _realization_lp(flip_at(g, Y), d)
                    for u, v in zip(got, want):
                        assert u.dtype == v.dtype and np.array_equal(u, v)
                # g's own system is left as it was
                assert all(np.array_equal(u, v) for u, v in zip((A, b), before))
