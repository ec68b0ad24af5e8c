"""Property tests, derandomized so every run checks the same examples."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ptfkit import TruthTable, format_table, parse_table
from ptfkit.lp import decide, feasible_le_int
from oracles import full_tableau_solve

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
    res = feasible_le_int(A, b, nvars)
    assert decide(A, b) == res.feasible
    assert (res.feasible, res.witness) == full_tableau_solve(A, b, nvars)


@DERANDOMIZED
@given(st.sampled_from(["bin", "hex"]), st.data())
def test_table_text_round_trip(style, data):
    # the hex form needs at least four entries
    n = data.draw(st.integers(1 if style == "bin" else 2, 6))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    f = TruthTable(n, tuple(bits))
    assert parse_table(format_table(f, style)) == f
