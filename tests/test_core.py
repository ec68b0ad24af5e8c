"""Truth-table construction, operators, and text formats."""

from __future__ import annotations

import random

import pytest

from ptfkit import (
    DimensionMismatch,
    ParseError,
    TruthTable,
    all_vectors,
    cofactor,
    compose_by_variable,
    const,
    evaluate,
    flip_at,
    format_table,
    from_bits,
    index_of,
    minterms,
    parse_table,
    vector_at,
    xor,
)
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
    assert evaluate(XOR2, (1, 1)) == 0
    assert evaluate(AND2, (1, 1)) == 1


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evaluate(XOR2, (1, 0, 1))


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


def test_parse_rejects_garbage():
    for bad in ("", "012", "0x", "0xgg", "011", "2"):
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


def test_from_bits_rejects_an_empty_or_single_bit_sequence():
    for bits in ([], [1]):
        with pytest.raises(ValueError, match="not 2\\^n for some n >= 1"):
            from_bits(bits)
