"""Exact Farkas phase 1 behind the LP engine.

``solve_free_le`` decides ``A x <= b`` over free variables through its
Farkas alternative (Farkas 1902): exactly one of ``A x <= b`` and

    y >= 0,   A^T y = 0,   -b^T y = 1

has a solution.  The alternative has ``n + 1`` equality rows over ``m``
nonnegative ``y``, so its phase-1 tableau is ``(n+2) x (m+n+2)``: one
artificial per row (all right-hand sides are 0 or 1, so none is negated),
the ``y`` columns, and the right-hand side.  A realizability LP over
``k`` Boolean variables has ``m = 2^k`` rows but only ``n`` = (number of
monomials) + 1 unknowns, so this tableau stays small.

The artificials are numbered before the ``y`` columns and kept in the
tableau; only ``y`` columns enter, so an artificial that left never
re-enters, except once at a warm start (below).  Dantzig's rule (Dantzig
1963) enters the ``y`` column with the most negative reduced cost, lowest
index on ties, and the ratio test breaks ties by the lowest-numbered
basic variable, so artificials leave first.  Both choices depend only on the set of basic variables, so a basis
seen twice in one solve proves a cycle.  The loop keeps that set as an int
bitmask and switches to Bland's rule (Bland 1977: the lowest-numbered
``y`` with a negative reduced cost) at the first repeat; Bland's rule
terminates from any feasible basis.

Warm start
----------
A system that differs from an already solved one in a single row ``j``
differs on the Farkas side in the column of ``y_j`` alone.  The final
tableau of the solved system holds ``delta * B^-1`` in its artificial
block, so the new column and its reduced cost are formed exactly from
it, and the old basis is still a feasible basis of the new system when
``y_j`` is nonbasic.  When ``y_j`` is basic at value 0, one degenerate
pivot first swaps it for a nonbasic artificial, the one artificial that
re-enters.  The loop then continues from that basis, keeping the
starting ``delta`` (the new basis's determinant), under the same rules
and with the same proofs.  A positive basic ``y_j`` starts cold.

The solve ends with a proof either way:

* the artificials' sum reaches 0: the basic ``y`` values are a Farkas
  ray, and ``A x <= b`` is infeasible;
* no ``y`` column prices out while the sum ``w`` is still positive: the
  simplex multipliers ``pi = (u, t)``, read from the artificials'
  reduced costs ``1 - pi_k``, satisfy ``A u - b t <= 0`` (the ``y``
  columns price out) and ``t = w > 0``, so ``u / t`` is a point of
  ``A x <= b``.

Fraction-free arithmetic
------------------------
The tableau is stored as ``delta`` times the true rational tableau, where
``delta`` is the (always positive) determinant of the current basis.  A
one-step fraction-free pivot (Bareiss 1968)

    T'[i][j] = (T[p][q] * T[i][j] - T[i][q] * T[p][j]) // delta

keeps every entry an exact integer (the division is exact), so sign tests,
both pricing rules and the ratio test are exact integer comparisons (with
``delta > 0`` the scaled reduced costs order as the true ones) and the
answer carries no rounding error.

The pivot loop runs on an int64 tableau and bails out with an OVERFLOW
status whenever an entry passes ``_INT64_GUARD`` = 2**30.  With entries at
most 2**30, every product in a pivot is at most 2**60 and every numerator
at most 2**61 in absolute value.  Dantzig's rule reaches bases with larger
minors than Bland's, so the solve climbs a ladder of restarts (``_RUNGS``):
int64 under Dantzig, then int64 under Bland, then an object-dtype tableau
of Python ints under Bland, which cannot overflow.  A system whose entries
already pass the guard starts on the last rung.
"""

from __future__ import annotations

import numpy as np

FEASIBLE = 0
INFEASIBLE = 1
OVERFLOW = 2
UNBOUNDED = 3

# Entries above this make the next pivot's intermediates unsafe for int64.
_INT64_GUARD = 1 << 30

# (dtype, Dantzig pricing) of each restart after an OVERFLOW.
_RUNGS = ((np.int64, True), (np.int64, False), (object, False))


def _build_tableau(A, b, dtype):
    """Phase-1 tableau of ``y >= 0, A^T y = 0, -b^T y = 1``.

    Returns ``(T, basis)``.  Columns are the ``n + 1`` artificials (the
    initial basis), the ``m`` ``y`` variables and the right-hand side; the
    reduced costs are in the last row.  A column's index is its variable's
    number.
    """
    m, n = A.shape
    r = n + 1
    T = np.zeros((r + 1, r + m + 1), dtype=dtype)
    T[range(r), range(r)] = 1
    T[:n, r : r + m] = A.T
    T[n, r : r + m] = -b
    T[n, -1] = 1
    T[r, r:] = -T[:r, r:].sum(axis=0)
    return T, list(range(r))


def _leaving_row(col, rhs, basis) -> int:
    """Ratio test over Python ints, ties to the lowest-numbered basic variable.

    Returns the row of the leaving variable, or -1 when no entry of the
    entering column is positive.
    """
    p = -1
    for i, a in enumerate(col):
        if a > 0:
            if p < 0:
                p = i
                continue
            lhs = rhs[i] * col[p]
            cur = rhs[p] * a
            if lhs < cur or (lhs == cur and basis[i] < basis[p]):
                p = i
    return p


def _overflows(T) -> bool:
    """Whether an int64 tableau has an entry past the guard."""
    return T.max() > _INT64_GUARD or T.min() < -_INT64_GUARD


def _pivot(T, p, q, delta):
    """One fraction-free pivot on ``T[p, q]``, in place; returns the new delta."""
    piv = T[p, q]
    row_p = T[p].copy()
    col_q = T[:, q].copy()
    T *= piv
    T -= col_q[:, None] * row_p
    T //= delta
    T[p] = row_p
    return piv


def _pivot_loop_numpy(T, basis, dantzig: bool, delta=1):
    """Pivot a phase-1 tableau (int64 or object dtype) to a proof.

    ``T`` and ``basis`` are updated in place; ``delta`` is the determinant
    of the starting basis (1 for the artificials of a new tableau).  Prices
    by Dantzig's rule until a basis repeats when ``dantzig`` is set, else
    by Bland's rule.  Only an int64 tableau is guarded.  Returns
    ``(status, delta)`` with status INFEASIBLE when the artificials' sum
    reached 0 (the basic ``y`` form a ray), FEASIBLE when no ``y`` column
    prices out, OVERFLOW or UNBOUNDED.
    """
    r = T.shape[0] - 1
    last = T.shape[1] - 1
    guarded = T.dtype != object
    if guarded:
        delta = T.dtype.type(delta)
    mask = sum(1 << v for v in basis)
    seen = {mask}
    while True:
        if guarded and _overflows(T):
            return OVERFLOW, delta
        if T[r, last] == 0:
            return INFEASIBLE, delta
        # Price the y columns only: artificials never enter.
        costs = T[r, r:last]
        if dantzig:
            q = int(costs.argmin())
            if costs[q] >= 0:
                return FEASIBLE, delta
        else:
            negative = costs < 0
            q = int(negative.argmax())
            if not negative[q]:
                return FEASIBLE, delta
        q += r
        p = _leaving_row(T[:r, q].tolist(), T[:r, last].tolist(), basis)
        if p < 0:
            return UNBOUNDED, delta
        delta = _pivot(T, p, q, delta)
        if dantzig:
            mask ^= (1 << basis[p]) | (1 << q)
            if mask in seen:
                dantzig = False
            seen.add(mask)
        basis[p] = q


def _warm_start(A, b, state, j):
    """A final phase-1 state made a start for ``A x <= b``, or None for a cold solve.

    ``state = (T, basis, delta)`` ended the solve of a system that differs
    from ``A x <= b`` in row ``j`` alone, so only the column of ``y_j``
    changes: it is ``delta * B^-1 c`` with ``c = (A[j], -b[j])``, read off
    the artificial block ``delta * B^-1``, and its reduced cost follows
    from the cost row the same way.  The basis stays primal feasible when
    ``y_j`` is nonbasic, or basic at 0 after one degenerate pivot swaps it
    for an artificial; a positive basic ``y_j``, an object-dtype state, a
    row too large for an int64 product, and a degenerate pivot that passes
    the guard all return None.  ``state`` is not modified.
    """
    T, basis, delta = state
    r = T.shape[0] - 1
    q = r + j
    c = np.append(A[j], -b[j])
    # With every entry of T within the guard, the products below stay in int64.
    if T.dtype == object or int(np.abs(c).sum()) * _INT64_GUARD >= 1 << 62:
        return None
    T, basis = T.copy(), list(basis)
    if q in basis:
        p = basis.index(q)
        if T[p, -1] != 0:
            return None
        # Row p of delta * B^-1 is nonzero, and a basic artificial's column
        # is zero off its own row, so k is a nonbasic artificial.
        k = int(np.flatnonzero(T[p, :r])[0])
        delta = _pivot(T, p, k, delta)
        basis[p] = k
        if delta < 0:
            np.negative(T, out=T)
            delta = -delta
        # Checked before the product below, which would wrap silently.
        if _overflows(T):
            return None
    T[:r, q] = T[:r, :r] @ c
    T[r, q] = T[r, :r] @ c - delta * c.sum()
    return T, basis, delta


def solve_free_le(A, b, start=None):
    """Decide ``A x <= b`` over free variables by the Farkas phase 1.

    ``A`` is an integer ``m x n`` matrix with ``m >= 1``, ``b`` an integer
    vector.  ``start = (state, j)`` continues from the final ``state`` of
    a solve of a system that differs from this one in row ``j`` alone,
    where :func:`_warm_start` allows it; an OVERFLOW there restarts on the
    cold ladder.  Returns ``(False, y, state)`` with Python-int ``y >= 0``,
    ``A^T y = 0`` and ``b^T y < 0`` when the system is infeasible, else
    ``(True, (x, t), state)`` with Python ints, ``t > 0`` and
    ``A x <= t b``; ``state`` is the final ``(T, basis, delta)``.
    """
    A = np.asarray(A)
    b = np.asarray(b)
    m, n = A.shape
    status = OVERFLOW
    warm = None if start is None else _warm_start(A, b, *start)
    if warm is not None:
        T, basis, delta = warm
        status, delta = _pivot_loop_numpy(T, basis, True, delta)
    if status == OVERFLOW:
        fits = max(int(np.abs(A).max(initial=0)), int(np.abs(b).max(initial=0))) <= _INT64_GUARD
        for dtype, dantzig in _RUNGS:
            if dtype is object or fits:
                T, basis = _build_tableau(A, b, dtype)
                status, delta = _pivot_loop_numpy(T, basis, dantzig)
                if status != OVERFLOW:
                    break
    if status == UNBOUNDED:
        # Phase 1 minimizes a sum of nonnegative variables; it cannot be
        # unbounded, so this would be a kernel bug.
        raise AssertionError("phase-1 simplex reported unbounded")
    r = n + 1
    state = (T, basis, delta)
    if status == INFEASIBLE:
        y = [0] * m
        for v, value in zip(basis, T[:r, -1].tolist()):
            if v >= r:
                y[v - r] = value
        return False, y, state
    # An artificial's reduced cost is 1 - pi_k, scaled by delta.
    pi = [int(delta) - v for v in T[r, :r].tolist()]
    return True, (pi[:n], pi[n]), state
