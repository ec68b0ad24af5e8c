"""XOR-of-threshold representations, synthesis, and order extension."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from ptfkit import (
    PTF,
    DimensionMismatch,
    ParseError,
    PreconditionError,
    SharedWeight,
    TruthTable,
    XorList,
    cli,
    cofactor,
    compose_by_variable,
    const,
    eval_shared_weight,
    eval_xor_list,
    extend_order,
    multithreshold,
    parse_table,
    synthesize_shared_weight,
    to_truth_table,
    truth_table,
    vector_at,
    xor,
)
from ptfkit.cli import (
    shared_weight_from_json,
    shared_weight_to_json,
    xor_list_from_json,
    xor_list_to_json,
)
from ptfkit.ptf import weighted_sum
from conftest import AND2, OR2, XOR2, XOR3, all_tables, parity_table, random_weight_map
from oracles import synthesize_reference

OR2_PTF = PTF(2, {(1,): 1, (2,): 1}, 1)
AND2_PTF = PTF(2, {(1,): 1, (2,): 1}, 2)


def test_eval_xor_list_examples():
    assert eval_xor_list([OR2_PTF, AND2_PTF], (1, 0)) == 1
    assert eval_xor_list([OR2_PTF], (1, 0)) == 1
    assert eval_xor_list([AND2_PTF, AND2_PTF], (1, 1)) == 0


def test_eval_xor_list_needs_a_member():
    with pytest.raises(ValueError, match="at least one member"):
        eval_xor_list([], (2, 5))


def test_xor_list_validation():
    with pytest.raises(ValueError):
        XorList(())
    with pytest.raises(ValueError):
        XorList((PTF(2, {(1, 2): 1}, 1),))
    with pytest.raises(DimensionMismatch):
        XorList((OR2_PTF, PTF(3, {(1,): 1}, 1)))


def test_eval_shared_weight_examples():
    rep = SharedWeight(2, {(1,): 1, (2,): 1}, (1, 2))
    assert eval_shared_weight(rep, (1, 0)) == 1
    assert eval_shared_weight(rep, (1, 1)) == 0
    empty = SharedWeight(2, {(1,): 1}, ())
    assert to_truth_table(empty) == const(2, 0)


def test_to_truth_table_both_variants():
    rep = SharedWeight(2, {(1,): 1, (2,): 1}, (1, 2))
    assert to_truth_table(rep) == XOR2
    assert to_truth_table(XorList((OR2_PTF, AND2_PTF))) == XOR2
    low = SharedWeight(2, {(1,): 1, (2,): 1}, (Fraction(-1),))
    assert to_truth_table(low) == const(2, 1)


def test_single_threshold_matches_plain_eval():
    rng = random.Random(2024)
    for _ in range(20):
        n = rng.randint(1, 4)
        weights = {(i + 1,): rng.randint(-3, 3) for i in range(n)}
        theta = rng.randint(-4, 4)
        rep = SharedWeight(n, weights, (theta,))
        p = PTF(n, weights, theta)
        assert to_truth_table(rep) == truth_table(p)


def test_duplicate_threshold_pair_cancels():
    rng = random.Random(2025)
    for _ in range(20):
        n = rng.randint(1, 4)
        weights = {(i + 1,): rng.randint(-3, 3) for i in range(n)}
        thresholds = tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 3)))
        rep = SharedWeight(n, weights, thresholds)
        extra = rng.randint(-4, 4)
        padded = SharedWeight(n, weights, thresholds + (extra, extra))
        assert to_truth_table(padded) == to_truth_table(rep)


def test_synthesize_xor2():
    rep = synthesize_shared_weight(XOR2, 2, 1)
    assert rep is not None
    assert rep.weights == {(1,): 1, (2,): 1}
    assert rep.thresholds == (1, 2)


def test_synthesize_and2_single_threshold():
    rep = synthesize_shared_weight(AND2, 1, 1)
    assert rep is not None
    assert rep.weights == {(1,): 1, (2,): 1}
    assert rep.thresholds == (2,)


def test_synthesize_xor3():
    rep = synthesize_shared_weight(XOR3, 3, 1)
    assert rep is not None
    assert rep.weights == {(1,): 1, (2,): 1, (3,): 1}
    assert rep.thresholds == (1, 2, 3)


def test_synthesize_respects_budget():
    assert synthesize_shared_weight(XOR3, 2, 1) is None


def test_synthesis_reverifies_and_counts_switches():
    rng = random.Random(3000)
    found = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        f = TruthTable(n, tuple(rng.randint(0, 1) for _ in range(1 << n)))
        rep = synthesize_shared_weight(f, 1 << n, 2)
        if rep is None:
            continue
        found += 1
        assert to_truth_table(rep) == f
        # recount output switches along the sorted levels of the found weights
        inputs = [tuple((j >> i) & 1 for i in range(n)) for j in range(1 << n)]
        by_level: dict = {}
        for j, X in enumerate(inputs):
            by_level.setdefault(weighted_sum(rep.weights, X), set()).add(f.bits[j])
        assert all(len(outs) == 1 for outs in by_level.values())
        switches = 0
        parity = 0
        for v in sorted(by_level):
            (out,) = by_level[v]
            if out != parity:
                switches += 1
                parity ^= 1
        assert switches == rep.k
    assert found > 10


def _synth_matches_reference(f, k_max, weight_bound):
    rep = synthesize_shared_weight(f, k_max, weight_bound)
    got = None
    if rep is not None:
        got = (tuple(rep.weights.get((i + 1,), 0) for i in range(f.n)), rep.thresholds)
    return got == synthesize_reference(f.bits, f.n, k_max, weight_bound)


def test_synthesis_matches_reference_on_every_small_table():
    for n in range(1, 4):
        for f in all_tables(n):
            for weight_bound in (1, 2):
                # one past 2^n: a budget above any row's switch count
                for k_max in range((1 << n) + 2):
                    assert _synth_matches_reference(f, k_max, weight_bound), (f, k_max)


def test_synthesis_without_a_solution_returns_none_for_any_budget():
    # at n=3, B=1 no weight vector is constant on the levels of this table
    f = parse_table("00000110")
    for k_max in (0, 8, 9, 100):
        assert synthesize_shared_weight(f, k_max, 1) is None


def test_synthesis_matches_reference_on_seeded_n4_tables():
    rng = random.Random(1102)
    for _ in range(300):
        f = TruthTable(4, tuple(rng.randint(0, 1) for _ in range(16)))
        k_max, weight_bound = rng.randint(0, 16), rng.randint(1, 3)
        assert _synth_matches_reference(f, k_max, weight_bound), (f, k_max, weight_bound)


def test_synthesis_matches_reference_at_the_cap():
    rng = random.Random(1103)
    cases = [(parity_table(4), 4), (parity_table(4), 3)] + [
        (TruthTable(4, tuple(rng.randint(0, 1) for _ in range(16))), 16) for _ in range(3)
    ]
    for f, k_max in cases:
        assert _synth_matches_reference(f, k_max, 5), (f, k_max)


def test_to_truth_table_matches_per_input_eval():
    rng = random.Random(1104)
    for n in range(1, 7):
        inputs = [vector_at(j, n) for j in range(1 << n)]
        for trial in range(25):
            weights = {} if trial == 0 else random_weight_map(rng, n, n)
            sums = [weighted_sum(weights, X) for X in inputs]
            # thresholds on levels and off them, one of them repeated
            thresholds = [rng.choice(sums), Fraction(rng.randint(-20, 20), rng.randint(1, 6))]
            thresholds += [rng.choice(thresholds)] + rng.sample(sums, rng.randint(0, 2))
            rep = SharedWeight(n, weights, tuple(thresholds))
            assert to_truth_table(rep).bits == tuple(eval_shared_weight(rep, X) for X in inputs)
            members = tuple(
                PTF(n, random_weight_map(rng, n, 1), rng.choice(sums))
                for _ in range(rng.randint(1, 3))
            )
            expected = tuple(eval_xor_list(members, X) for X in inputs)
            assert to_truth_table(XorList(members)).bits == expected


def test_extend_order_xor2():
    ext = extend_order(XOR2, OR2_PTF, AND2_PTF)
    assert ext.f_next == parse_table("00000110")
    assert cofactor(ext.f_next, 3, 0) == const(2, 0)
    assert cofactor(ext.f_next, 3, 1) == XOR2
    assert ext.g_next == compose_by_variable(XOR2, XOR2)
    assert ext.witness.weights == {(1,): 1, (2,): 1, (3,): 2}
    assert ext.witness.thresholds == (3, 4)
    assert to_truth_table(ext.witness) == ext.f_next


def test_extend_order_accepts_tables():
    ext = extend_order(XOR2, OR2, AND2)
    assert ext.f_next == parse_table("00000110")
    assert to_truth_table(ext.witness) == ext.f_next


def test_extend_order_precondition_failures():
    with pytest.raises(PreconditionError, match="n >= 2"):
        extend_order(parse_table("01"), PTF(1, {(1,): 1}, 1), PTF(1, {(1,): 1}, 1))
    with pytest.raises(PreconditionError, match="order"):
        extend_order(XOR2, PTF(2, {(1, 2): 1}, 1), AND2_PTF)
    with pytest.raises(PreconditionError, match="share"):
        extend_order(XOR2, PTF(2, {(1,): 2, (2,): 1}, 1), AND2_PTF)
    with pytest.raises(PreconditionError, match="XOR"):
        extend_order(AND2, OR2_PTF, AND2_PTF)
    with pytest.raises(PreconditionError, match="shared-weight"):
        extend_order(xor(parse_table("0101"), parse_table("0011")), parse_table("0101"), parse_table("0011"))


def test_extend_order_stops_below_the_table_cap_before_building_a_table(monkeypatch):
    # at n = 16 the extension would have 17 variables
    monkeypatch.setattr(multithreshold, "compose_by_variable", None)
    monkeypatch.setattr(multithreshold, "truth_table", None)
    x1 = TruthTable(16, tuple(i & 1 for i in range(1 << 16)))
    p1, p2 = PTF(16, {(1,): 1}, 1), PTF(16, {(1,): 1}, 2)
    with pytest.raises(PreconditionError, match="n < 16, got n=16"):
        extend_order(x1, p1, p2)


def test_extend_order_rejects_components_of_the_wrong_arity():
    with pytest.raises(DimensionMismatch):
        extend_order(XOR2, PTF(3, {(1,): 1, (2,): 1}, 1), PTF(3, {(1,): 1, (2,): 1}, 2))
    with pytest.raises(DimensionMismatch):
        extend_order(XOR2, OR2_PTF, PTF(1, {(1,): 1}, 1))


def test_extend_order_randomized_same_weight_pairs():
    rng = random.Random(90210)
    for _ in range(60):
        n = rng.choice((2, 3, 4))
        weights = {(i + 1,): Fraction(rng.randint(-3, 3)) for i in range(n)}
        p1 = PTF(n, weights, Fraction(rng.randint(-6, 7)))
        p2 = PTF(n, weights, Fraction(rng.randint(-6, 7)))
        f_n = xor(truth_table(p1), truth_table(p2))
        ext = extend_order(f_n, p1, p2)
        assert xor(xor(truth_table(p1), truth_table(p2)), f_n) == const(n, 0)
        assert ext.f_next == compose_by_variable(const(n, 0), f_n)
        assert to_truth_table(ext.witness) == ext.f_next
        assert ext.witness.k == 2


@pytest.mark.parametrize(
    "weights, thresholds",
    [({(1,): 0.25}, (1,)), ({(1,): 1}, (0.5,)), ({(1,): "1"}, (1,)), ({(1,): 1}, ("1e3",))],
    ids=["float-weight", "float-threshold", "string-weight", "exponent-string-threshold"],
)
def test_shared_weight_takes_exact_rationals_only(weights, thresholds):
    with pytest.raises(ValueError, match="exact rationals"):
        SharedWeight(1, weights, thresholds)


@pytest.mark.parametrize("n, thresholds", [(0, (1,)), (-3, ())], ids=["zero-n", "negative-n"])
def test_shared_weight_needs_a_variable(n, thresholds):
    with pytest.raises(ValueError, match="at least one variable"):
        SharedWeight(n, {}, thresholds)


def test_shared_weight_json_round_trip():
    rep = SharedWeight(3, {(1,): 1, (2,): -2, (3,): Fraction(1, 2)}, (Fraction(1, 2), 2))
    data = shared_weight_to_json(rep)
    assert data["thresholds"] == ["1/2", "2"]
    assert shared_weight_from_json(data) == rep


@pytest.mark.parametrize("n", [True, -3, 0, "3"], ids=["bool-n", "negative-n", "zero-n", "string-n"])
def test_shared_weight_json_rejects_bad_n(n, tmp_path, capsys):
    data = {"n": n, "weights": {}, "thresholds": ["1"]}
    with pytest.raises(ParseError):
        shared_weight_from_json(data)
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps(data))
    assert cli.run(["eval", str(rep_file), "--at", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_shared_weight_json_without_n_takes_the_largest_index():
    data = {"weights": {"1": "1", "3": "2"}, "thresholds": ["1"]}
    assert shared_weight_from_json(data) == SharedWeight(3, {(1,): 1, (3,): 2}, (1,))


def test_xor_list_json_is_ptf_text():
    data = xor_list_to_json(XorList((OR2_PTF,)))
    assert data == {"n": 2, "members": ["1: 1\n2: 1\ntheta: 1\n"]}


def test_xor_list_json_round_trip_with_members_on_different_variables():
    rep = XorList((PTF(2, {(1,): 1}, 1), PTF(2, {(2,): 1}, 1)))
    assert xor_list_from_json(xor_list_to_json(rep)) == rep


def test_xor_list_json_keeps_n_above_every_member_index():
    rep = XorList((PTF(3, {(1,): 1}, 1), PTF(3, {(2,): 1}, 1)))
    data = json.loads(json.dumps(xor_list_to_json(rep)))
    assert xor_list_from_json(data) == rep
    # the bare list records no n, so it reads back over x1, x2 only
    assert xor_list_from_json(data["members"]).n == 2


@pytest.mark.parametrize(
    "data",
    [
        {"members": ["1: 1\ntheta: 1\n"]},
        {"n": "3", "members": ["1: 1\ntheta: 1\n"]},
        {"n": True, "members": ["1: 1\ntheta: 1\n"]},
        {"n": 0, "members": ["1: 1\ntheta: 1\n"]},
        {"n": 1, "members": ["2: 1\ntheta: 1\n"]},
        {"n": 2, "members": "1: 1\ntheta: 1\n"},
        {"n": 2, "members": []},
    ],
    ids=["missing-n", "string-n", "bool-n", "zero-n", "n-below-index", "members-not-list",
         "no-members"],
)
def test_xor_list_json_rejects_malformed_dicts(data):
    with pytest.raises(ParseError):
        xor_list_from_json(data)
