"""Independent brute-force oracles used to validate the library's answers.

Everything here deliberately avoids the code paths under test: threshold
functions are enumerated by trying every small integer weight/threshold
combination, certificates by direct multiset enumeration (and the first
one by a dict of multiset sums), LP systems by
scanning integer grid points or by a plain full-tableau simplex, the
shared-weight LP by a row-by-row encoder, monomial values by mask tests,
multithreshold synthesis by a recursive per-candidate scan, and order
reduction by climbs from degree 0 in place of the high-order probe.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, product

import numpy as np

from ptfkit import flip_at, is_threshold, minterms, order, truth_table, xor
from ptfkit.errors import DimensionMismatch, PreconditionError
from ptfkit.highorder import MAX_PROBE_VARS, OrderReduction, single_minterm_witness


def threshold_tables(n: int, weight_bound: int = 3, theta_bound: int = 9) -> frozenset:
    """Bit tuples of every function [w.X >= theta] over the integer box."""
    idx = np.arange(1 << n, dtype=np.int64)
    # row r is the input with table index r: column i holds x_{i+1}
    inputs = np.stack([(idx >> i) & 1 for i in range(n)], axis=1)
    weights = np.array(
        list(product(range(-weight_bound, weight_bound + 1), repeat=n)), dtype=np.int64
    )
    sums = weights @ inputs.T
    tables = set()
    for theta in range(-theta_bound, theta_bound + 1):
        for row in (sums >= theta).astype(np.int64):
            tables.add(tuple(int(v) for v in row))
    return frozenset(tables)


def naive_certificate_exists(bits, n: int, m: int) -> bool:
    """Direct check for equal-sum multisets of size k <= m (no hashing)."""
    trues = [tuple((i >> j) & 1 for j in range(n)) for i, b in enumerate(bits) if b]
    falses = [tuple((i >> j) & 1 for j in range(n)) for i, b in enumerate(bits) if not b]
    if not trues or not falses:
        return False
    for k in range(2, m + 1):
        t_sums = {
            tuple(sum(v[i] for v in combo) for i in range(n))
            for combo in combinations_with_replacement(trues, k)
        }
        for combo in combinations_with_replacement(falses, k):
            if tuple(sum(v[i] for v in combo) for i in range(n)) in t_sums:
                return True
    return False


def first_certificate_reference(bits, n: int, m: int):
    """Smallest-k certificate, the lexicographically first pair at that k, by dict lookup.

    True and false points run in table-index order, and size-k multisets of
    each in lexicographic order of their index tuples.  A dict keeps the
    first false multiset for each sum; the first true multiset whose sum is
    in it wins.  Returns ``(k, true_vectors, false_vectors)`` or None.
    """
    trues = [tuple((i >> j) & 1 for j in range(n)) for i, b in enumerate(bits) if b]
    falses = [tuple((i >> j) & 1 for j in range(n)) for i, b in enumerate(bits) if not b]
    if not trues or not falses:
        return None
    for k in range(2, m + 1):
        first_false = {}
        for combo in combinations_with_replacement(falses, k):
            first_false.setdefault(tuple(map(sum, zip(*combo))), combo)
        for combo in combinations_with_replacement(trues, k):
            hit = first_false.get(tuple(map(sum, zip(*combo))))
            if hit is not None:
                return k, combo, hit
    return None


def find_integer_point(A, b, bound: int):
    """First integer point in [-bound, bound]^nvars with ``A x <= b``."""
    rows = [([int(v) for v in row], int(r)) for row, r in zip(A, b)]
    for point in product(range(-bound, bound + 1), repeat=len(rows[0][0])):
        if all(sum(a * x for a, x in zip(row, point)) <= r for row, r in rows):
            return point
    return None


def share_weights_system(f, g):
    """The shared-weight LP of f and g, built row by row as ``(A, b)``.

    The independent verdict reference for ``share_weights``, which instead
    tests the table joining f and g by a selector variable; the two LPs
    agree on feasibility but may give different witnesses.

    Columns are the n degree-1 weights, f's theta, then g's theta; rows are
    f's inputs, then g's, in table-index order: ``theta - w.X <= 0`` at a
    true input and ``w.X - theta <= -1`` at a false one.
    """
    n = f.n
    rows, rhs = [], []
    for table, theta_col in ((f, n), (g, n + 1)):
        for i, bit in enumerate(table.bits):
            X = [(i >> j) & 1 for j in range(n)]
            row = [0] * (n + 2)
            if bit:
                row[:n] = [-x for x in X]
                row[theta_col] = 1
                rhs.append(0)
            else:
                row[:n] = X
                row[theta_col] = -1
                rhs.append(-1)
            rows.append(row)
    return np.array(rows, dtype=np.int64), np.array(rhs, dtype=np.int64)


def full_tableau_solve(A, b, nvars: int):
    """Reference phase-1 simplex on the full fraction-free tableau.

    The tableau is ``[A | -A | slack | artificial | b]`` in object dtype
    (Python ints), scaled by the basis determinant ``delta``.  Rows with a
    negative right-hand side are negated and given an artificial.  Bland's
    rule enters the lowest column with a negative reduced cost and breaks
    ratio-test ties by the lowest basic column.  Returns ``(feasible,
    witness)`` with the witness as a tuple of Fractions.

    The library solves only the Farkas alternative, so this primal is the
    independent verdict reference; witnesses are compared against
    :func:`farkas_phase1_reference` under the pricing rule the library
    used.
    """
    A = [[int(v) for v in row] for row in A]
    b = [int(v) for v in b]
    m, ns = len(A), 2 * nvars
    if m == 0:
        return True, (Fraction(0),) * nvars
    neg = [i for i in range(m) if b[i] < 0]
    ncols = ns + m + len(neg) + 1
    T = np.zeros((m + 1, ncols), dtype=object)
    basis = []
    for i in range(m):
        s = -1 if b[i] < 0 else 1
        T[i, :ns] = [s * v for v in A[i]] + [-s * v for v in A[i]]
        T[i, ns + i] = s
        T[i, -1] = s * b[i]
        basis.append(ns + i)
        if s < 0:
            basis[i] = ns + m + neg.index(i)
            T[i, basis[i]] = 1
            T[m] -= T[i]
    T[m, ns + m : ncols - 1] += 1  # price out the basic artificials
    delta = 1
    while True:
        entering = [j for j in range(ncols - 1) if T[m, j] < 0]
        if not entering:
            break
        q = entering[0]
        p = None
        for i in range(m):
            if T[i, q] > 0:
                if p is None:
                    p = i
                    continue
                lhs, rhs = T[i, -1] * T[p, q], T[p, -1] * T[i, q]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[p]):
                    p = i
        assert p is not None, "phase 1 cannot be unbounded"
        piv = T[p, q]
        row_p = T[p].copy()
        T = (T * piv - np.outer(T[:, q], row_p)) // delta
        T[p] = row_p
        delta = piv
        basis[p] = q
    if T[m, -1] < 0:
        return False, None
    values = {basis[i]: Fraction(T[i, -1], delta) for i in range(m)}
    return True, tuple(
        values.get(j, Fraction(0)) - values.get(nvars + j, Fraction(0)) for j in range(nvars)
    )


def farkas_phase1_reference(A, b, rule: str):
    """Reference phase 1 of ``y >= 0, A^T y = 0, -b^T y = 1`` over Fractions.

    A dense tableau with one artificial per row, numbered before the ``y``
    columns; only ``y`` columns enter, so artificials never re-enter.
    ``rule="bland"`` enters the lowest ``y`` column with a negative reduced
    cost.  ``rule="dantzig"`` enters the one with the most negative reduced
    cost (lowest index on ties) and switches to Bland's rule once a basis
    set repeats.  Ratio-test ties go to the lowest-numbered basic variable;
    the solve stops once the artificials' sum is 0.  Returns ``(False, y)``
    with the ray ``y`` (``-b^T y = 1``), or ``(True, x)`` with the point
    ``x = u / t`` read from the multipliers ``(u, t)``; both as tuples of
    Fractions.
    """
    if rule not in ("dantzig", "bland"):
        raise ValueError(f"unknown pricing rule {rule!r}")
    A = [[Fraction(int(v)) for v in row] for row in A]
    m, n = len(A), len(A[0])
    r = n + 1
    rows = [[Fraction(int(k == i)) for k in range(r)] + [A[j][i] for j in range(m)] + [Fraction(0)]
            for i in range(n)]
    rows.append([Fraction(int(k == n)) for k in range(r)] + [-Fraction(int(v)) for v in b] + [Fraction(1)])
    cost = [Fraction(0)] * r + [-sum(row[j] for row in rows) for j in range(r, r + m + 1)]
    basis = list(range(r))
    seen = {frozenset(basis)}
    while cost[-1] != 0:
        if rule == "dantzig":
            q = min(range(r, r + m), key=lambda j: (cost[j], j))
            entering = [q] if cost[q] < 0 else []
        else:
            entering = [j for j in range(r, r + m) if cost[j] < 0]
        if not entering:
            pi = [1 - cost[k] for k in range(r)]
            return True, tuple(v / pi[n] for v in pi[:n])
        q = entering[0]
        p = min(
            (i for i in range(r) if rows[i][q] > 0),
            key=lambda i: (rows[i][-1] / rows[i][q], basis[i]),
        )
        piv = rows[p][q]
        rows[p] = [v / piv for v in rows[p]]
        for i in range(r):
            if i != p and rows[i][q] != 0:
                f = rows[i][q]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[p])]
        f = cost[q]
        cost = [v - f * w for v, w in zip(cost, rows[p])]
        basis[p] = q
        if frozenset(basis) in seen:
            rule = "bland"
        seen.add(frozenset(basis))
    y = [Fraction(0)] * m
    for i, v in enumerate(basis):
        if v >= r:
            y[v - r] = rows[i][-1]
    return False, tuple(y)


def monomial_matrix_reference(n: int, d: int):
    """Monomials of degree 1..d by (degree, lex), and their 0/1 values at every input.

    Column ``m`` is the mask test ``idx & mask(m) == mask(m)`` over the
    table indices; the matrix is int64 and read-only.
    """
    mons = list(chain.from_iterable(combinations(range(1, n + 1), k) for k in range(1, d + 1)))
    idx = np.arange(1 << n, dtype=np.int64)
    cols = []
    for m in mons:
        mask = 0
        for i in m:
            mask |= 1 << (i - 1)
        cols.append((idx & mask) == mask)
    M = (
        np.stack(cols, axis=1).astype(np.int64)
        if cols
        else np.zeros((1 << n, 0), dtype=np.int64)
    )
    M.setflags(write=False)
    return tuple(mons), M


def synthesize_reference(bits, n: int, k_max: int, weight_bound: int):
    """First integer weight vector with the fewest output switches, by recursive scan.

    Candidates run coordinate by coordinate through 0, 1, -1, ..., B, -B,
    the first coordinate slowest.  A vector qualifies iff the table is
    constant on each level set of its weighted sum; its thresholds are the
    levels, ascending, where the output differs from the parity so far
    (starting at 0).  Returns ``(weights, thresholds)`` as int tuples for
    the first vector with the fewest thresholds, at most ``k_max``, or None.
    """
    inputs = [tuple((j >> i) & 1 for i in range(n)) for j in range(1 << n)]
    candidates = [0]
    for v in range(1, weight_bound + 1):
        candidates.extend((v, -v))
    best = None

    def scan(prefix):
        nonlocal best
        if len(prefix) < n:
            for v in candidates:
                scan(prefix + (v,))
            return
        by_level = {}
        for X, bit in zip(inputs, bits):
            g = sum(w * x for w, x in zip(prefix, X))
            seen = by_level.get(g)
            if seen is None:
                by_level[g] = bit
            elif seen != bit:
                return
        thresholds = []
        parity = 0
        for v in sorted(by_level):
            if by_level[v] != parity:
                thresholds.append(v)
                parity ^= 1
        if len(thresholds) <= k_max and (best is None or len(thresholds) < len(best[1])):
            best = (prefix, tuple(thresholds))

    scan(())
    return best


def order_reduce_reference(g, Y):
    """Order reduction with every order found by a climb from degree 0.

    g's order, then ``is_threshold`` of the flip, and for a flip that is
    not threshold its own climb to name its order: no high-order probe,
    no ray and no warm start.  Raises what the reduction raises, with the
    same messages.
    """
    if len(Y) != g.n:
        raise DimensionMismatch(f"vector has {len(Y)} entries, function has {g.n} variables")
    if g.n > MAX_PROBE_VARS:
        raise PreconditionError(f"high-order probes capped at n <= {MAX_PROBE_VARS}, got {g.n}")
    r = order(g)
    if r < 2:
        raise PreconditionError(f"function must have order >= 2 to reduce, got order {r}")
    f2 = flip_at(g, Y)
    f2_witness = is_threshold(f2)
    if f2_witness is None:
        raise PreconditionError(
            f"flip at {Y} has order {order(f2)}, not a threshold function (g has order {r})"
        )
    f1 = xor(g, f2)
    if minterms(f1) != [tuple(Y)]:
        raise AssertionError("g XOR flip(g, Y) must be true exactly at Y")
    f1_witness = single_minterm_witness(tuple(Y))
    if truth_table(f1_witness) != f1:
        raise AssertionError("closed-form single-minterm witness failed table check")
    return OrderReduction(g, tuple(Y), f2, f2_witness, f1, f1_witness)
