"""Independent brute-force oracles used to validate the library's answers.

Everything here deliberately avoids the code paths under test: threshold
functions are enumerated by trying every small integer weight/threshold
combination, certificates by direct multiset enumeration, LP systems by
scanning integer grid points or by a plain full-tableau simplex, and the
shared-weight LP by a row-by-row encoder.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np


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


def find_integer_point(A, b, bound: int):
    """First integer point in [-bound, bound]^nvars with ``A x <= b``."""
    rows = [([int(v) for v in row], int(r)) for row, r in zip(A, b)]
    for point in product(range(-bound, bound + 1), repeat=len(rows[0][0])):
        if all(sum(a * x for a, x in zip(row, point)) <= r for row, r in rows):
            return point
    return None


def share_weights_system(f, g):
    """The shared-weight LP of f and g, built row by row as ``(A, b)``.

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
