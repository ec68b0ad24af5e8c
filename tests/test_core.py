"""Truth-table construction, operators, and text formats."""

from __future__ import annotations

import random

import pytest

from ptfkit import (
    PTF,
    DimensionMismatch,
    ParseError,
    SharedWeight,
    TruthTable,
    all_vectors,
    cofactor,
    compose_by_variable,
    const,
    eval_G,
    eval_shared_weight,
    eval_xor_list,
    evaluate,
    flip_at,
    format_table,
    from_bits,
    index_of,
    is_high_order_vector,
    minterms,
    order_reduce,
    parse_table,
    vector_at,
    xor,
)
from ptfkit import lp, ptf
from conftest import AND2, CONST0_2, CONST1_2, OR2, XOR2, all_tables


def test_index_is_bijection():
    for n in (1, 2, 3, 5):
        seen = set()
        for X in all_vectors(n):
            i = index_of(X)
            assert vector_at(i, n) == X
            seen.add(i)
        assert seen == set(range(1 << n))


def test_evaluate_examples():
    assert evaluate(XOR2, (1, 0)) == 1
    # entries equal to 0 or 1 index like them, as in a table
    assert evaluate(XOR2, (1.0, False)) == 1
    assert evaluate(XOR2, (1, 1)) == 0
    assert evaluate(AND2, (1, 1)) == 1


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evaluate(XOR2, (1, 0, 1))


OR2_PTF = PTF(2, {(1,): 1, (2,): 1}, 1)

# every library function that takes an input vector, on a 2-variable input
VECTOR_ENTRY_POINTS = {
    "evaluate": lambda X: evaluate(XOR2, X),
    "flip_at": lambda X: flip_at(XOR2, X),
    "eval_G": lambda X: eval_G(OR2_PTF, X),
    "ptf.evaluate": lambda X: ptf.evaluate(OR2_PTF, X),
    "eval_shared_weight": lambda X: eval_shared_weight(SharedWeight(2, {(1,): 1, (2,): 1}, (1, 2)), X),
    "eval_xor_list": lambda X: eval_xor_list([OR2_PTF, OR2_PTF], X),
    "is_high_order_vector": lambda X: is_high_order_vector(XOR2, X),
    "order_reduce": lambda X: order_reduce(XOR2, X),
}


@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRY_POINTS))
@pytest.mark.parametrize(
    "X, error",
    [((2, 0), ValueError), ((1, 0, 0), DimensionMismatch), ((1,), DimensionMismatch)],
    ids=["entry-2", "too-long", "too-short"],
)
def test_every_vector_entry_point_checks_the_vector_before_any_lp(entry, X, error, monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran before the vector was checked")

    monkeypatch.setattr(lp, "feasible", no_lp)
    with pytest.raises(error):
        VECTOR_ENTRY_POINTS[entry](X)


def test_xor_examples():
    assert xor(XOR2, OR2) == AND2
    assert xor(XOR2, XOR2) == CONST0_2
    assert xor(XOR2, CONST0_2) == XOR2
    with pytest.raises(DimensionMismatch):
        xor(XOR2, const(3, 0))


def test_xor_group_laws_random_triples():
    rng = random.Random(20240601)
    for _ in range(50):
        n = rng.randint(1, 6)
        f, g, h = (
            TruthTable(n, tuple(rng.randint(0, 1) for _ in range(1 << n)))
            for _ in range(3)
        )
        assert xor(f, g) == xor(g, f)
        assert xor(xor(f, g), h) == xor(f, xor(g, h))
        assert xor(f, const(n, 0)) == f
        assert xor(f, f) == const(n, 0)


def test_flip_at_examples():
    assert flip_at(XOR2, (1, 1)) == OR2
    g = parse_table("01101001")
    assert flip_at(flip_at(g, (1, 0, 1)), (1, 0, 1)) == g
    assert flip_at(const(1, 0), (1,)) == parse_table("01")


def test_flip_at_hamming_distance_one():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 5)
        g = TruthTable(n, tuple(rng.randint(0, 1) for _ in range(1 << n)))
        Y = vector_at(rng.randrange(1 << n), n)
        flipped = flip_at(g, Y)
        diff = [i for i in range(1 << n) if g.bits[i] != flipped.bits[i]]
        assert diff == [index_of(Y)]


def test_cofactor_examples():
    assert cofactor(AND2, 2, 1) == parse_table("01")
    assert cofactor(AND2, 2, 0) == const(1, 0)
    assert cofactor(XOR2, 1, 1) == parse_table("10")
    with pytest.raises(ValueError):
        cofactor(AND2, 3, 0)


def _cofactor_tables():
    rng = random.Random(1902)
    yield from all_tables(2)
    yield from all_tables(3)
    for n in (4, 5):
        for _ in range(40):
            yield TruthTable(n, tuple(rng.randint(0, 1) for _ in range(1 << n)))


def test_cofactor_matches_the_pointwise_definition():
    # cofactor(f, i, b) at X is f at X with b put in as x_i
    for f in _cofactor_tables():
        for i in range(1, f.n + 1):
            for b in (0, 1):
                g = cofactor(f, i, b)
                assert g.n == f.n - 1
                for X in all_vectors(f.n - 1):
                    assert evaluate(g, X) == evaluate(f, X[: i - 1] + (b,) + X[i - 1 :])


def test_compose_by_variable_examples():
    assert compose_by_variable(XOR2, XOR2).bits == XOR2.bits + XOR2.bits
    assert compose_by_variable(CONST0_2, XOR2) == parse_table("00000110")
    assert compose_by_variable(OR2, CONST1_2) == parse_table("01111111")


def test_compose_cofactor_round_trip():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 4)
        f0 = TruthTable(n, tuple(rng.randint(0, 1) for _ in range(1 << n)))
        f1 = TruthTable(n, tuple(rng.randint(0, 1) for _ in range(1 << n)))
        h = compose_by_variable(f0, f1)
        assert cofactor(h, n + 1, 0) == f0
        assert cofactor(h, n + 1, 1) == f1


def test_minterms_examples():
    assert minterms(AND2) == [(1, 1)]
    assert minterms(CONST0_2) == []
    assert minterms(XOR2) == [(1, 0), (0, 1)]


def test_parse_format_round_trip():
    for f in all_tables(2):
        assert parse_table(format_table(f)) == f
        assert parse_table(format_table(f, "hex")) == f
    g = parse_table("0x6")
    assert g == XOR2
    assert format_table(XOR2, "hex") == "0x6"
    # 2^14 hex digits: the int-string digit limit spares power-of-two bases
    rng = random.Random(16)
    f = TruthTable(16, tuple(rng.getrandbits(1) for _ in range(1 << 16)))
    assert parse_table(format_table(f, "hex")) == f


def test_parse_rejects_garbage():
    # the last implies n = 17, above the cap
    for bad in ("", "012", "0x", "0xgg", "011", "2", "0x" + "0" * (1 << 15)):
        with pytest.raises(ParseError):
            parse_table(bad)


def test_from_bits_infers_n():
    assert from_bits([0, 1, 1, 0]) == XOR2
    with pytest.raises(ValueError):
        from_bits([0, 1, 1])


def test_table_invariants_enforced():
    with pytest.raises(ValueError):
        TruthTable(2, (0, 1, 1))
    with pytest.raises(ValueError):
        TruthTable(0, ())
    with pytest.raises(ValueError):
        TruthTable(1, (0, 2))


def test_table_from_a_list_equals_and_hashes_like_the_parsed_table():
    f = TruthTable(2, [0, 1, 1, 0])
    assert f == parse_table("0110") == XOR2
    assert f.bits == (0, 1, 1, 0)
    assert hash(f) == hash(XOR2)
    assert len({f, XOR2, TruthTable(2, iter((0, 1, 1, 0)))}) == 1


@pytest.mark.parametrize("one", [True, 1.0], ids=["bool", "float"])
def test_table_stores_entries_equal_to_0_or_1_as_ints(one):
    f = TruthTable(2, (0, 1, 1, one))
    assert format_table(f) == "0111"
    assert [type(b) for b in f.bits] == [int] * 4
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        TruthTable(2, (0, 1, 1, 0.5))


def test_from_bits_rejects_an_empty_or_single_bit_sequence():
    for bits in ([], [1]):
        with pytest.raises(ValueError, match="not 2\\^n for some n >= 1"):
            from_bits(bits)


@pytest.mark.parametrize(
    "bits", [[0.5, 1.7], [0, 1, 1, 0.5], ["0", "1"]], ids=["floats", "one-float", "strings"]
)
def test_from_bits_rejects_entries_other_than_0_or_1(bits):
    # no truncation: a float or a string never becomes a table bit
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        from_bits(bits)


def test_str_of_a_table_is_its_binary_form():
    assert str(XOR2) == "0110"
    assert str(parse_table("0x8")) == "1000"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: const(2, 2), "constant value must be 0 or 1"),
        (lambda: cofactor(const(1, 1), 1, 0), "1-variable"),
        (lambda: cofactor(AND2, 1, 2), "fixed value must be 0 or 1"),
        (lambda: format_table(const(1, 0), "hex"), "hex form requires n >= 2"),
        (lambda: format_table(AND2, "oct"), "unknown style"),
    ],
    ids=["const-value", "cofactor-n1", "cofactor-b2", "hex-n1", "unknown-style"],
)
def test_table_operations_reject_arguments_out_of_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()
