"""Certificate search, m-asummability, and the LP cross-check."""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

import numpy as np
import pytest

from ptfkit import (
    PreconditionError,
    TruthTable,
    check_asummability_theorem,
    const,
    find_certificate,
    is_m_asummable,
    is_threshold,
)
from ptfkit import asummability
from ptfkit.asummability import certificate_to_json
from conftest import AND2, OR2, XOR2, all_tables
from oracles import naive_certificate_exists


def test_xor2_classic_certificate():
    cert = find_certificate(XOR2, 2)
    assert cert is not None
    assert cert.k == 2
    assert cert.true_vectors == ((1, 0), (0, 1))
    assert cert.false_vectors == ((0, 0), (1, 1))
    t, f = cert.sums()
    assert t == f == (1, 1)


def test_threshold_functions_have_no_certificate():
    assert find_certificate(AND2, 4) is None
    assert is_m_asummable(OR2, 4)


def test_constants_have_no_certificate():
    assert find_certificate(const(2, 0), 5) is None
    assert find_certificate(const(3, 1), 5) is None


def test_m_validated():
    with pytest.raises(PreconditionError):
        find_certificate(XOR2, 1)


def test_search_cap_counts_every_multiset_entry(monkeypatch):
    # AND2 has 1 true and 3 false points: k = 2 gathers (1 + 6) * 2 * 2
    # vector entries, k = 3 another (1 + 10) * 3 * 2, 94 in all
    monkeypatch.setattr(asummability, "MAX_SEARCH_CELLS", 94)
    assert find_certificate(AND2, 3) is None
    monkeypatch.setattr(asummability, "MAX_SEARCH_CELLS", 93)
    with pytest.raises(PreconditionError, match="cap"):
        find_certificate(AND2, 3)


def test_search_cap_holds_even_when_a_small_k_would_find_a_certificate():
    parity6 = TruthTable(6, tuple(bin(i).count("1") & 1 for i in range(64)))
    assert find_certificate(parity6, 2) is not None
    with pytest.raises(PreconditionError, match="cap"):
        find_certificate(parity6, 6)


def test_multiset_keys_encode_the_summed_vectors():
    # the per-point keys are summed column by column; the reference sums
    # each multiset's vectors first and encodes the sum
    rng = random.Random(9)
    for n, count, k in ((2, 3, 2), (3, 5, 3), (4, 6, 4), (6, 7, 5)):
        vectors = np.array([[rng.getrandbits(1) for _ in range(n)] for _ in range(count)])
        combos, keys = asummability._multiset_sums(vectors, k, base=k + 1)
        expected = list(combinations_with_replacement(range(count), k))
        assert combos.tolist() == [list(c) for c in expected]
        assert keys.tolist() == [
            sum(int(sum(vectors[j][i] for j in c)) * (k + 1) ** i for i in range(n))
            for c in expected
        ]


def test_downward_monotonicity():
    rng = random.Random(321)
    for _ in range(40):
        n = rng.randint(2, 4)
        f = TruthTable(n, tuple(rng.randint(0, 1) for _ in range(1 << n)))
        found_at = None
        for m in (2, 3, 4):
            cert = find_certificate(f, m)
            if cert is not None and found_at is None:
                found_at = cert.k
            if found_at is not None:
                assert cert is not None and cert.k == found_at
            else:
                assert cert is None


def test_certificates_verify_and_match_naive_search():
    rng = random.Random(654)
    for _ in range(60):
        n = rng.randint(2, 4)
        f = TruthTable(n, tuple(rng.randint(0, 1) for _ in range(1 << n)))
        cert = find_certificate(f, 3)
        assert (cert is not None) == naive_certificate_exists(f.bits, n, 3)
        if cert is not None:
            assert cert.verify(f)


def test_search_is_deterministic():
    rng = random.Random(111)
    for _ in range(20):
        n = rng.randint(2, 3)
        f = TruthTable(n, tuple(rng.randint(0, 1) for _ in range(1 << n)))
        assert find_certificate(f, 4) == find_certificate(f, 4)


def test_theorem_check_examples():
    rep = check_asummability_theorem(XOR2, 2)
    assert not rep.lp_threshold
    assert rep.certificate is not None
    assert rep.consistent and not rep.inconclusive

    rep = check_asummability_theorem(AND2, 6)
    assert rep.lp_threshold
    assert rep.certificate is None
    assert rep.consistent and not rep.inconclusive


def test_theorem_consistency_exhaustive_small_n():
    max_k = 0
    for n in (1, 2, 3):
        for f in all_tables(n):
            rep = check_asummability_theorem(f, 4)
            assert rep.consistent
            assert not rep.inconclusive, f"no certificate up to 4 for non-threshold {f}"
            if rep.certificate is not None:
                max_k = max(max_k, rep.certificate.k)
    # every non-threshold function at these sizes already fails at pairs
    assert max_k == 2


def test_threshold_implies_asummable_exhaustive_n3():
    for f in all_tables(3):
        if is_threshold(f) is not None:
            assert find_certificate(f, 4) is None


def test_theorem_consistency_exhaustive_n4():
    # the full 65536-function sweep; records the largest multiset size any
    # certificate needed (empirically 2: every non-threshold function of
    # four variables already fails on pairs)
    max_k = 0
    inconclusive = 0
    for code in range(1 << 16):
        bits = tuple((code >> i) & 1 for i in range(16))
        rep = check_asummability_theorem(TruthTable(4, bits), 4)
        assert rep.consistent
        if rep.inconclusive:
            inconclusive += 1
        if rep.certificate is not None:
            max_k = max(max_k, rep.certificate.k)
    assert inconclusive == 0
    assert max_k == 2


def test_certificate_json_shape():
    cert = find_certificate(XOR2, 2)
    data = certificate_to_json(cert)
    assert data == {"k": 2, "true": [[1, 0], [0, 1]], "false": [[0, 0], [1, 1]]}
