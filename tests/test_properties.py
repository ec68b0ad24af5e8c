"""Property tests, derandomized so every run checks the same examples."""

from __future__ import annotations

import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ptfkit import (
    PTF,
    SharedWeight,
    TruthTable,
    XorList,
    cli,
    format_table,
    lp,
    parse_table,
    truth_table,
    xor,
)
from ptfkit.cli import (
    format_ptf_text,
    parse_ptf_text,
    shared_weight_from_json,
    shared_weight_to_json,
    xor_list_from_json,
    xor_list_to_json,
)
from ptfkit.ptf import monomials_up_to
from oracles import farkas_phase1_reference, full_tableau_solve

DERANDOMIZED = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def small_systems(draw):
    """Integer ``A x <= b`` with at most 8 rows, 4 variables and entries in [-3, 3]."""
    nvars = draw(st.integers(1, 4))
    m = draw(st.integers(1, 8))
    entry = st.integers(-3, 3)
    A = draw(st.lists(st.lists(entry, min_size=nvars, max_size=nvars), min_size=m, max_size=m))
    b = draw(st.lists(entry, min_size=m, max_size=m))
    return np.array(A), np.array(b), nvars


@DERANDOMIZED
@given(small_systems())
def test_decide_primal_and_reference_agree(system):
    A, b, nvars = system
    res, proof = lp.feasible(A, b)
    ok, witness = farkas_phase1_reference(A, b, "dantzig")
    assert res == ok == full_tableau_solve(A, b, nvars)[0]
    if ok:
        x, t = proof
        assert tuple(Fraction(v, t) for v in x) == witness


@DERANDOMIZED
@given(small_systems(), st.data())
def test_warm_start_after_any_row_change_matches_cold(system, data):
    # the changed row, with entries up to 2**20, sits in the solved system
    # or in the one started from its state
    A, b, nvars = system
    j = data.draw(st.integers(0, len(b) - 1))
    big = st.integers(-(1 << 20), 1 << 20)
    row = data.draw(st.lists(big, min_size=nvars + 1, max_size=nvars + 1))
    changed_A, changed_b = A.copy(), b.copy()
    changed_A[j], changed_b[j] = row[:-1], row[-1]
    if data.draw(st.booleans()):
        (A, b), (changed_A, changed_b) = (changed_A, changed_b), (A, b)
    state = lp.feasible(A, b).state
    warm = lp.feasible(changed_A, changed_b, start=(state, j))
    assert warm.feasible == lp.feasible(changed_A, changed_b).feasible


@DERANDOMIZED
@given(st.sampled_from(["bin", "hex"]), st.data())
def test_table_text_round_trip(style, data):
    # the hex form needs at least four entries
    n = data.draw(st.integers(1 if style == "bin" else 2, 6))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    f = TruthTable(n, tuple(bits))
    assert parse_table(format_table(f, style)) == f


@st.composite
def ptfs(draw, n=None, max_order=None):
    """A PTF over at most 5 variables with small rational weights and threshold."""
    n = draw(st.integers(1, 5)) if n is None else n
    coeff = st.fractions(min_value=-10, max_value=10, max_denominator=12)
    mons = monomials_up_to(n, n if max_order is None else max_order)
    weights = draw(st.dictionaries(st.sampled_from(mons), coeff, max_size=6))
    return PTF(n, weights, draw(coeff))


@st.composite
def xor_lists(draw):
    n = draw(st.integers(1, 5))
    return XorList(tuple(draw(st.lists(ptfs(n, max_order=1), min_size=1, max_size=4))))


@st.composite
def shared_weights(draw):
    """One weight map over at most 5 variables with up to 4 thresholds."""
    p = draw(ptfs())
    coeff = st.fractions(min_value=-10, max_value=10, max_denominator=12)
    return SharedWeight(p.n, p.coeffs, tuple(draw(st.lists(coeff, max_size=4))))


@DERANDOMIZED
@given(ptfs())
def test_ptf_text_round_trip(p):
    assert parse_ptf_text(format_ptf_text(p), p.n) == p


@DERANDOMIZED
@given(xor_lists())
def test_xor_list_json_round_trip(rep):
    assert xor_list_from_json(json.loads(json.dumps(xor_list_to_json(rep)))) == rep


@DERANDOMIZED
@given(shared_weights())
def test_shared_weight_json_round_trip(rep):
    assert shared_weight_from_json(json.loads(json.dumps(shared_weight_to_json(rep)))) == rep


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.text("0123456789+:/- \nthea", max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "members", "weights", "thresholds", "x"]), inner, max_size=4),
    max_leaves=12,
)

_MALFORMED_FILES = st.one_of(
    st.text(),
    st.text("0123456789+:/-. \nthea#{}[]\",", max_size=40),
    _JSON_VALUES.map(json.dumps),
)
_VECTORS = st.text("01x ", max_size=7)


@st.composite
def eval_requests(draw):
    """File text and ``--at`` for ``eval``; a well-formed file mostly gets a vector of its size.

    Returns ``(text, at, ok)`` with ``ok`` set when the request must succeed.
    """
    rep = draw(st.none() | ptfs() | xor_lists())
    if rep is None:
        return draw(_MALFORMED_FILES), draw(_VECTORS), False
    if isinstance(rep, XorList):
        text, n = json.dumps(xor_list_to_json(rep)), rep.n
    else:
        # the text form records no n: eval reads it as the largest index
        text, n = format_ptf_text(rep), max((m[-1] for m in rep.coeffs), default=1)
    at = draw(st.text("01", min_size=n, max_size=n) | _VECTORS)
    return text, at, len(at) == n and set(at) <= {"0", "1"}


@DERANDOMIZED
@given(eval_requests())
def test_cli_eval_exit_codes_on_arbitrary_files(tmp_path_factory, req):
    text, at, ok = req
    path = tmp_path_factory.getbasetemp() / "eval-input.txt"
    path.write_text(text, encoding="utf-8")
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        code = cli.run(["eval", str(path), f"--at={at}"])
    assert code in (0, 1, 2)
    if ok:
        assert code == 0


# Table text: arbitrary, near-valid, or a valid table of at most 5 variables.
_TABLES = st.one_of(
    st.text(max_size=34),
    st.text("01x ", max_size=34),
    st.integers(0, 5).flatmap(lambda n: st.text("01", min_size=1 << n, max_size=1 << n)),
    st.text("0123456789abcdefABCDEFx", max_size=10).map("0x".__add__),
)


def _exit_code(argv) -> int:
    """The process exit code of one in-process CLI request."""
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        try:
            return cli.run(argv)
        except SystemExit as exc:
            # argparse ends a usage error (say, a table text read as an
            # option) with SystemExit(2)
            return exc.code


@DERANDOMIZED
@given(_TABLES)
def test_cli_analyze_exit_codes_on_arbitrary_tables(table):
    assert _exit_code(["analyze", table]) in (0, 1, 2)


@st.composite
def reduce_requests(draw):
    """Table text and ``--at`` for ``reduce``, mostly a threshold table flipped at the vector.

    Returns ``(table, at, ok)`` with ``ok`` set when the flip at ``at`` is
    threshold, so the request may fail only on g's order.
    """
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    theta = draw(st.integers(-3, 3))
    Y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    flip = sum(y << i for i, y in enumerate(Y))
    bits = [
        int(sum(w * (j >> i & 1) for i, w in enumerate(weights)) >= theta) ^ (j == flip)
        for j in range(1 << n)
    ]
    table, at = "".join(map(str, bits)), "".join(map(str, Y))
    if draw(st.booleans()):
        return table, at, True
    return draw(st.just(table) | _TABLES), draw(st.just(at) | _VECTORS), False


@DERANDOMIZED
@given(reduce_requests())
def test_cli_reduce_exit_codes_on_arbitrary_tables_and_vectors(req):
    table, at, ok = req
    code = _exit_code(["reduce", table, f"--at={at}"])
    assert code in (0, 1, 2)
    if ok:
        # 2 only when the table itself has order below 2
        assert code in (0, 2)


@DERANDOMIZED
@given(_TABLES, st.integers(-1, 12))
def test_cli_asummable_exit_codes_on_arbitrary_tables(table, m):
    assert _exit_code(["asummable", table, f"--m={m}"]) in (0, 1, 2)


_WELL_FORMED_TABLES = st.integers(1, 4).flatmap(
    lambda n: st.text("01", min_size=1 << n, max_size=1 << n)
)


@DERANDOMIZED
@given(st.one_of(_TABLES.map(lambda t: (t, False)), _WELL_FORMED_TABLES.map(lambda t: (t, True))))
def test_cli_hov_exit_codes_on_arbitrary_tables(req):
    table, ok = req
    code = _exit_code(["hov", table])
    assert code in (0, 1, 2)
    if ok:
        assert code == 0


def _write(tmp_path_factory, name: str, text: str) -> str:
    path = tmp_path_factory.getbasetemp() / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@st.composite
def extend_requests(draw):
    """Table text and two component files for ``extend``, mostly a well-formed pair.

    A well-formed request has two degree-1 realizations with one integer
    weight map and the XOR of their tables.  Returns
    ``(table, f1 text, f2 text, ok)`` with ``ok`` set for such a request.
    """
    n = draw(st.integers(2, 4))
    w = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    weights = {(i + 1,): v for i, v in enumerate(w)}
    p1, p2 = (PTF(n, weights, draw(st.integers(-3, 3))) for _ in range(2))
    table = format_table(xor(truth_table(p1), truth_table(p2)))
    f1, f2 = format_ptf_text(p1), format_ptf_text(p2)
    if draw(st.booleans()):
        return table, f1, f2, True
    return (
        draw(st.just(table) | _TABLES),
        draw(st.just(f1) | _MALFORMED_FILES | ptfs().map(format_ptf_text)),
        draw(st.just(f2) | _MALFORMED_FILES | ptfs().map(format_ptf_text)),
        False,
    )


@DERANDOMIZED
@given(extend_requests())
def test_cli_extend_exit_codes_on_arbitrary_components(tmp_path_factory, req):
    table, f1, f2, ok = req
    paths = [_write(tmp_path_factory, "f1.ptf", f1), _write(tmp_path_factory, "f2.ptf", f2)]
    code = _exit_code(["extend", table, *paths])
    assert code in (0, 1, 2)
    if ok:
        assert code == 0


@st.composite
def family_requests(draw):
    """Weight-file text and ``--n`` for ``family``, mostly a well-formed weight map.

    Returns ``(text, n, ok)``; a well-formed request is the weight lines of
    a PTF over at most 5 variables with no ``--n`` or its own ``n``.
    """
    p = draw(ptfs())
    if draw(st.booleans()):
        # the weight lines without the theta line
        return format_ptf_text(p).rsplit("theta:", 1)[0], draw(st.sampled_from([None, p.n])), True
    return draw(_MALFORMED_FILES), draw(st.none() | st.integers(-3, 18)), False


@DERANDOMIZED
@given(family_requests())
def test_cli_family_exit_codes_on_arbitrary_weight_files(tmp_path_factory, req):
    text, n, ok = req
    argv = ["family", _write(tmp_path_factory, "weights.txt", text)]
    if n is not None:
        argv.append(f"--n={n}")
    code = _exit_code(argv)
    assert code in (0, 1, 2)
    if ok:
        assert code == 0


@DERANDOMIZED
@given(
    st.one_of(
        st.tuples(_WELL_FORMED_TABLES, st.integers(0, 4), st.integers(1, 3), st.just(True)),
        st.tuples(_TABLES, st.integers(-2, 4), st.integers(-1, 7), st.just(False)),
    )
)
def test_cli_synth_mtf_exit_codes_on_arbitrary_tables(req):
    table, k_max, bound, ok = req
    code = _exit_code(["synth-mtf", table, f"--k-max={k_max}", f"--weight-bound={bound}"])
    assert code in (0, 1, 2)
    if ok:
        assert code == 0
