"""High-order vectors and order reduction at a flip point."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ptfkit import (
    PreconditionError,
    TruthTable,
    all_vectors,
    check_asummability_theorem,
    const,
    extend_order,
    flip_at,
    high_order_vectors,
    is_high_order_vector,
    is_threshold,
    minimal_realization,
    minterms,
    order,
    order_reduce,
    parse_table,
    share_weights,
    single_minterm_witness,
    truth_table,
    vector_at,
    xor,
)
from ptfkit import _simplex, highorder, lp
from ptfkit.cli import hov_to_json
from ptfkit.highorder import OrderReduction, high_order_search
from ptfkit.ptf import PTF, _flipped_lp, _realization_lp, monomials_up_to
from conftest import AND2, NAND2, OR2, XOR2, all_tables, parity_table
from oracles import order_reduce_reference


def test_is_high_order_vector_examples():
    hit = is_high_order_vector(XOR2, (1, 1))
    assert hit is not None and (hit.order_before, hit.order_after) == (2, 1)

    hit = is_high_order_vector(XOR2, (1, 0))
    assert hit is not None and (hit.order_before, hit.order_after) == (2, 1)

    hit = is_high_order_vector(const(3, 0), (1, 1, 1))
    assert hit is not None and (hit.order_before, hit.order_after) == (0, 1)


def test_one_flip_changes_the_order_by_at_most_one():
    # if p sign-represents f with degree d, then p * (-L) sign-represents
    # flip_at(f, Y) with degree d + 1, where L > 0 only at Y
    changes = []
    for n in (1, 2, 3):
        orders = {f: order(f) for f in all_tables(n)}
        for f, r in orders.items():
            changes += [orders[flip_at(f, Y)] - r for Y in all_vectors(n)]
    assert len(changes) == 2120
    assert max(map(abs, changes)) == 1


def _reference_search(g, order_of):
    """The order of g and its flip points, each flip's order found by a climb from degree 0."""
    r = order_of(g)
    hits = []
    for Y in all_vectors(g.n):
        s = order_of(flip_at(g, Y))
        if s != r:
            hits.append((Y, r, s))
    return r, hits


def _found(results):
    return [(h.Y, h.order_before, h.order_after) for h in results]


def _assert_probes_match_reference(tables, order_of):
    orders = set()
    for g in tables:
        r, hits = _reference_search(g, order_of)
        orders.add(r)
        got_r, got = high_order_search(g)
        assert (got_r, _found(got)) == (r, hits)
        probed = [is_high_order_vector(g, Y) for Y in all_vectors(g.n)]
        assert _found(hit for hit in probed if hit is not None) == hits
    return orders


@pytest.mark.parametrize("n", [1, 2, 3])
def test_probes_match_climbing_order_on_every_small_table(n):
    orders = {f: order(f) for f in all_tables(n)}
    seen = _assert_probes_match_reference(list(orders), orders.__getitem__)
    # constants (r = 0) and parity (r = n) included
    assert {0, n} <= seen


def _sampled_n4_tables():
    rng = random.Random(4)
    tables = [const(4, 0), parity_table(4)]
    return tables + [TruthTable(4, tuple(rng.getrandbits(1) for _ in range(16))) for _ in range(198)]


def test_probes_match_climbing_order_on_sampled_n4_tables():
    seen = _assert_probes_match_reference(_sampled_n4_tables(), order)
    assert {0, 1, 2, 3, 4} <= seen


def _counted_solves(monkeypatch) -> Counter:
    """Count every LP solved through lp.feasible under the key "lp"."""
    solves = Counter()
    real_feasible = lp.feasible

    def counting_feasible(A, b, start=None):
        solves["lp"] += 1
        return real_feasible(A, b, start)

    monkeypatch.setattr(lp, "feasible", counting_feasible)
    return solves


def test_a_probe_solves_at_most_two_lps(monkeypatch):
    solves = _counted_solves(monkeypatch)
    for n in (2, 3):
        for g in all_tables(n):
            solves.clear()
            r, _ = high_order_search(g)
            # r + 1 LPs find g's order, then at most two per probe
            assert solves["lp"] <= r + 1 + 2 * g.size


def _entry_case(state, j):
    """How g's final basis meets the column of ``y_j`` that a flip at j replaces."""
    T, basis, _, _, _ = state
    q = T.shape[0] - 1 + j
    if q not in basis:
        return "nonbasic"
    return "degenerate" if T[basis.index(q), -1] == 0 else "positive"


def _warm_probe_cases(tables, monkeypatch):
    """Counts of the entry cases over every flip at degree r = order(g) < n.

    Asserts that the warm start is taken in every case, and that each warm
    verdict is the cold one.
    """
    starts = []
    real = _simplex._warm_start

    def recording(*args):
        starts.append(real(*args))
        return starts[-1]

    monkeypatch.setattr(_simplex, "_warm_start", recording)
    cases = Counter()
    for g in tables:
        r, _, (A, b, res) = highorder._climb(g)
        if r == g.n:
            continue
        state = res.state
        for j in range(g.size):
            flipped = _flipped_lp(A, b, j)
            case = _entry_case(state, j)
            warm = lp.feasible(*flipped, start=(state, j))
            assert starts.pop() is not None
            assert warm.feasible == lp.feasible(*flipped).feasible
            cases[case] += 1
    return cases


def test_warm_start_takes_every_entry_case_on_small_tables(monkeypatch):
    tables = [g for n in (1, 2, 3) for g in all_tables(n)]
    cases = _warm_probe_cases(tables, monkeypatch)
    assert set(cases) == {"nonbasic", "degenerate", "positive"}


def test_warm_verdicts_match_cold_on_sampled_n4_tables(monkeypatch):
    assert len(_warm_probe_cases(_sampled_n4_tables(), monkeypatch)) == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4], ids=["n1", "n2", "n3", "n4-sampled"])
def test_a_search_builds_one_tableau_and_starts_every_later_lp_warm(n, monkeypatch):
    tables = list(all_tables(n)) if n <= 3 else _sampled_n4_tables()
    builds, statuses, warm = [], [], []
    real_build, real_loop, real_feasible = (
        _simplex._build_tableau, _simplex._pivot_loop_numpy, lp.feasible
    )

    def build(A, b, dtype):
        builds.append(A.shape[1])
        return real_build(A, b, dtype)

    def loop(*args, **kwargs):
        status, delta = real_loop(*args, **kwargs)
        statuses.append(status)
        return status, delta

    def recording(A, b, start=None):
        res = real_feasible(A, b, start)
        warm.append((A, b, type(start[1]), res.feasible))
        return res

    monkeypatch.setattr(_simplex, "_build_tableau", build)
    monkeypatch.setattr(_simplex, "_pivot_loop_numpy", loop)
    monkeypatch.setattr(lp, "feasible", recording)
    kinds = Counter()
    for g in tables:
        for calls in (builds, statuses, warm):
            calls.clear()
        high_order_search(g)
        # the climb's degree-0 LP (theta alone) is the one tableau built
        assert builds == [1] and _simplex.OVERFLOW not in statuses
        for A, b, kind, ok in warm[1:]:
            assert real_feasible(A, b).feasible == ok
            kinds[kind] += 1
    # lifted degrees and flipped rows both occur
    assert set(kinds) == {slice, int}


def test_forged_reused_ray_raises(monkeypatch):
    r, (A, b, res), at = highorder._climb(AND2)
    zeros = [i for i, y in enumerate(res.proof) if y == 0]
    assert r == 1 and len(zeros) >= 2
    forged = list(res.proof)
    forged[zeros[0]] = 1
    below = A, b, lp.FeasibilityResult(False, forged)
    monkeypatch.setattr(highorder, "_climb", lambda g: (r, below, at))
    with pytest.raises(AssertionError, match="Farkas ray"):
        high_order_search(AND2)
    with pytest.raises(AssertionError, match="Farkas ray"):
        is_high_order_vector(AND2, vector_at(zeros[1], 2))


def test_high_order_vectors_of_xor2():
    results = high_order_vectors(XOR2)
    assert [r.Y for r in results] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert all(r.order_after == 1 for r in results)


def test_high_order_vectors_of_and2():
    results = high_order_vectors(AND2)
    assert {r.Y for r in results} == {(0, 0), (1, 1)}
    assert all(r.order_after != 1 for r in results)


def test_const1_n1_both_vectors_qualify():
    results = high_order_vectors(const(1, 1))
    assert [(r.Y, r.order_before, r.order_after) for r in results] == [
        ((0,), 0, 1),
        ((1,), 0, 1),
    ]


def test_flip_symmetry_swaps_orders():
    for g in all_tables(2):
        for r in high_order_vectors(g):
            back = is_high_order_vector(flip_at(g, r.Y), r.Y)
            assert back is not None
            assert (back.order_before, back.order_after) == (r.order_after, r.order_before)


def test_order_reduce_at_11():
    red = order_reduce(XOR2, (1, 1))
    assert red.f2 == OR2
    assert red.f1 == AND2
    assert minterms(red.f1) == [(1, 1)]
    assert truth_table(red.f1_witness) == red.f1
    assert truth_table(red.f2_witness) == red.f2


def test_order_reduce_at_00():
    red = order_reduce(XOR2, (0, 0))
    assert red.f2 == NAND2
    assert minterms(red.f1) == [(0, 0)]
    w = red.f1_witness
    assert w.coeffs == {(1,): -1, (2,): -1}
    assert w.theta == 0


def test_order_reduce_rejects_low_order_inputs():
    with pytest.raises(PreconditionError):
        order_reduce(AND2, (1, 1))


def test_order_reduce_rejects_non_threshold_flip():
    xor3 = parse_table("01101001")
    flipped = flip_at(xor3, (1, 1, 1))
    if order(flipped) <= 1:
        pytest.skip("flip unexpectedly landed in the threshold class")
    with pytest.raises(PreconditionError) as err:
        order_reduce(xor3, (1, 1, 1))
    assert "order" in str(err.value)


def _reduction(reduce, g, Y):
    try:
        return reduce(g, Y)
    except (PreconditionError, AssertionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_order_reduce_matches_the_climbing_reference(n, monkeypatch):
    tables = _sampled_n4_tables() if n == 4 else list(all_tables(n))
    kinds = set()
    for g in tables:
        r = order(g)
        for Y in all_vectors(n):
            want = _reduction(order_reduce_reference, g, Y)
            with monkeypatch.context() as m:
                solves = _counted_solves(m)
                got = _reduction(order_reduce, g, Y)
            if isinstance(want, OrderReduction):
                # the probe's LP starts from g's, so its witness may differ
                assert isinstance(got, OrderReduction)
                assert replace(got, f2_witness=want.f2_witness) == want
                assert got.f2_witness.order <= 1 and truth_table(got.f2_witness) == got.f2
            else:
                assert got == want
            # r + 1 LPs climb g, then at most two probe the flip
            assert solves["lp"] <= r + 3
            kinds.add("reduced" if isinstance(got, OrderReduction) else got[1].split()[0])
    # a reduction, g of order < 2 ("function ..."), a flip that is not threshold ("flip ...")
    want = {1: {"function"}, 2: {"reduced", "function"}}.get(n, {"reduced", "function", "flip"})
    assert kinds == want


def _checked_solves(monkeypatch, check) -> None:
    """Call ``check(A, b)`` on every system solved through lp.feasible, before it is solved."""
    real_feasible = lp.feasible

    def checked(A, b, start=None):
        A, b = np.asarray(A), np.asarray(b)
        check(A, b)
        return real_feasible(A, b, start)

    monkeypatch.setattr(lp, "feasible", checked)


def _unrepeated_solves(monkeypatch) -> set:
    """Fail on an LP solved twice through lp.feasible; clear the returned keys per operation."""
    seen = set()

    def once(A, b):
        key = (A.shape, A.tobytes(), b.tobytes())
        assert key not in seen, f"an LP of shape {A.shape} was solved twice in one operation"
        seen.add(key)

    _checked_solves(monkeypatch, once)
    return seen


def _operations(g: TruthTable, partners):
    """Every LP-backed operation on g as ``(function, *args)``, pairing g with ``partners``."""
    yield order, g
    yield minimal_realization, g
    yield is_threshold, g
    yield check_asummability_theorem, g, 2
    yield high_order_search, g
    for Y in all_vectors(g.n):
        yield is_high_order_vector, g, Y
        yield order_reduce, g, Y
    for h in partners:
        yield share_weights, g, h
        if g.n >= 2:
            yield extend_order, xor(g, h), g, h


@pytest.mark.parametrize("n", [1, 2, 3, 4], ids=["n1", "n2", "n3", "n4-sampled"])
def test_no_operation_solves_an_lp_twice(n, monkeypatch):
    rng = random.Random(21 + n)
    tables = list(all_tables(n)) if n <= 3 else _sampled_n4_tables()[:24]
    seen = _unrepeated_solves(monkeypatch)
    solved = 0
    for g in tables:
        for fn, *args in _operations(g, rng.sample(tables, 3)):
            seen.clear()
            try:
                fn(*args)
            except PreconditionError:
                pass
            solved += len(seen)
    assert solved > len(tables)


def _assert_one_tables_lp(A, b) -> None:
    """Fail unless ``(A, b)`` is ``_realization_lp(t, d)`` for the table t with bits ``b + 1``."""
    k = A.shape[0].bit_length() - 1
    widths = [len(monomials_up_to(k, d)) + 1 for d in range(k + 1)]
    assert A.shape[1] in widths, f"an LP of shape {A.shape} has the columns of no degree"
    table = TruthTable(k, tuple((b + 1).tolist()))
    for got, want in zip((A, b), _realization_lp(table, widths.index(A.shape[1]))):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("n", [1, 2, 3, 4], ids=["n1", "n2", "n3", "n4-sampled"])
def test_every_lp_is_one_tables_realizability_lp(n, monkeypatch):
    rng = random.Random(21 + n)
    tables = list(all_tables(n)) if n <= 3 else _sampled_n4_tables()[:24]
    solves = _counted_solves(monkeypatch)
    _checked_solves(monkeypatch, _assert_one_tables_lp)
    for g in tables:
        for fn, *args in _operations(g, rng.sample(tables, 3)):
            try:
                fn(*args)
            except PreconditionError:
                pass
    assert solves["lp"] > len(tables)


def test_order_reduce_solves_no_lp_twice(monkeypatch):
    solves = _counted_solves(monkeypatch)
    # parity-4: 5 LPs climb g, one solves the flip at degree 3, which is feasible
    for Y in all_vectors(4):
        solves.clear()
        with pytest.raises(PreconditionError, match=r"has order 3, not a threshold"):
            order_reduce(parity_table(4), Y)
        assert solves["lp"] == 6
    # XOR2: 3 LPs climb g, one solves the flip at degree 1
    solves.clear()
    order_reduce(XOR2, (1, 1))
    assert solves["lp"] == 4


def test_forged_flip_witness_raises(monkeypatch):
    # the witness of the flip's degree-1 LP is checked against the flipped table
    monkeypatch.setattr(highorder, "_ptf_of", lambda n, d, proof: PTF(n, {(1,): 1}, 1))
    with pytest.raises(AssertionError, match="table check"):
        order_reduce(XOR2, (1, 1))


def test_forged_remainder_minterms_raise(monkeypatch):
    # g XOR flip(g, Y) is checked to be true exactly at Y
    monkeypatch.setattr(highorder, "minterms", lambda f: [])
    with pytest.raises(AssertionError, match="exactly at Y"):
        order_reduce(XOR2, (1, 1))


def test_forged_single_minterm_witness_raises(monkeypatch):
    # the closed-form witness of the remainder is checked against its table
    monkeypatch.setattr(highorder, "single_minterm_witness", lambda Y: PTF(len(Y), {}, 1))
    with pytest.raises(AssertionError, match="single-minterm witness failed"):
        order_reduce(XOR2, (1, 1))


def test_reduction_sweep_exhaustive_n2():
    for g in all_tables(2):
        if order(g) < 2:
            continue
        for r in high_order_vectors(g):
            if r.order_after > 1:
                continue
            red = order_reduce(g, r.Y)
            assert red.f1 == xor(g, red.f2)
            assert minterms(red.f1) == [r.Y]
            assert is_threshold(red.f1) is not None


def test_single_minterm_witness_shape():
    w = single_minterm_witness((1, 0, 1))
    assert w.coeffs == {(1,): 1, (2,): -1, (3,): 1}
    assert w.theta == 2
    with pytest.raises(ValueError, match="0 or 1"):
        single_minterm_witness((1, 2, 0))


@pytest.mark.parametrize(
    "probe",
    [
        high_order_vectors,
        lambda g: is_high_order_vector(g, (1,) * 7),
        lambda g: order_reduce(g, (1,) * 7),
    ],
    ids=["high_order_vectors", "is_high_order_vector", "order_reduce"],
)
def test_probes_above_the_cap_raise_before_any_lp(probe, monkeypatch):
    solves = _counted_solves(monkeypatch)
    with pytest.raises(PreconditionError, match="capped at n <= 6, got 7"):
        probe(parity_table(7))
    assert solves["lp"] == 0


def test_hov_json_shape():
    (first, *_rest) = high_order_vectors(XOR2)
    assert hov_to_json(first) == {"Y": [0, 0], "r": 2, "s": 1}
