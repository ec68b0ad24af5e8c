"""High-order vectors and order reduction at a flip point."""

from __future__ import annotations

import random

import pytest

from ptfkit import (
    PreconditionError,
    TruthTable,
    all_vectors,
    const,
    flip_at,
    high_order_vectors,
    is_high_order_vector,
    is_threshold,
    minterms,
    order,
    order_reduce,
    parse_table,
    single_minterm_witness,
    truth_table,
    vector_at,
    xor,
)
from ptfkit import highorder, lp
from ptfkit.highorder import high_order_search, hov_to_json
from conftest import AND2, NAND2, OR2, XOR2, all_tables, parity_table


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


def test_probes_match_climbing_order_on_sampled_n4_tables():
    rng = random.Random(4)
    tables = [const(4, 0), parity_table(4)]
    tables += [TruthTable(4, tuple(rng.getrandbits(1) for _ in range(16))) for _ in range(198)]
    seen = _assert_probes_match_reference(tables, order)
    assert {0, 1, 2, 3, 4} <= seen


def test_a_probe_solves_at_most_two_lps(monkeypatch):
    solves = 0
    real_feasible = lp.feasible

    def counting_feasible(A, b):
        nonlocal solves
        solves += 1
        return real_feasible(A, b)

    monkeypatch.setattr(lp, "feasible", counting_feasible)
    for n in (2, 3):
        for g in all_tables(n):
            solves = 0
            r, _ = high_order_search(g)
            # r + 1 LPs find g's order, then at most two per probe
            assert solves <= r + 1 + 2 * g.size


def test_forged_reused_ray_raises(monkeypatch):
    r, proof, ray = highorder._climb(AND2)
    zeros = [i for i, y in enumerate(ray) if y == 0]
    assert r == 1 and len(zeros) >= 2
    forged = list(ray)
    forged[zeros[0]] = 1
    monkeypatch.setattr(highorder, "_climb", lambda g: (r, proof, forged))
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


def test_hov_json_shape():
    (first, *_rest) = high_order_vectors(XOR2)
    assert hov_to_json(first) == {"Y": [0, 0], "r": 2, "s": 1}
