"""Condensed fraction-free simplex behind the exact LP engine.

``solve_free_le`` decides ``A x <= b`` over ``n`` free variables by phase 1
of the two-phase simplex on ``A (x+ - x-) + s = b`` with ``x+, x-, s >= 0``.
Each row with a negative right-hand side is negated and gets an artificial
variable; phase 1 minimizes the sum of the artificials.  The variables are
numbered as the columns of the full tableau ``[A | -A | slack | artificial]``:

    x+_j = j,   x-_j = n + j,   s_i = 2n + i,   a_i = 2n + m + t,

where ``t`` counts the negated rows above row ``i``.  Bland's rule enters the
lowest-numbered variable with a negative reduced cost, and the ratio test
breaks ties by the lowest-numbered leaving variable.

Condensed layout
----------------
Row operations keep two column identities of the full tableau:

* the column of ``x-_j`` is minus the column of ``x+_j``;
* the column of ``a_i`` is minus the column of ``s_i``, and, since phase 1
  prices ``a_i`` at 1 and ``s_i`` at 0, the reduced cost of ``a_i`` is
  ``delta - D`` where ``D`` is that of ``s_i``.

So the variables fall into ``n + m`` groups of collinear columns.  At most
one member of a group is basic, and a basic member's column is a unit
vector, so exactly ``n`` groups are nonbasic.  The tableau stores one
column per nonbasic group (the column of its representative member) plus
the right-hand side: ``(m+1) x (n+1)`` cells instead of the full
``(m+1) x (2n+m+n_art+1)``.  The reduced costs of the other members follow
from the identities, so Bland's rule still runs over the full numbering and
makes the same pivots, in the same order, as on the full tableau, and the
solve returns the same witness.  After a pivot on ``(p, q)`` the leaving
variable becomes the representative of slot ``q``; its column is the old
column ``q`` negated, with ``delta`` at row ``p``.

Fraction-free arithmetic
------------------------
The tableau is stored as ``delta`` times the true rational tableau, where
``delta`` is the (always positive) determinant of the current basis.  A
one-step fraction-free pivot (Bareiss 1968)

    T'[i][j] = (T[p][q] * T[i][j] - T[i][q] * T[p][j]) // delta

keeps every entry an exact integer (the division is exact), so sign tests,
Bland's rule and the ratio test are exact integer comparisons and the
feasibility answer carries no rounding error.

The pivot loop first runs on an int64 tableau and bails out with an
OVERFLOW status whenever an entry passes ``_INT64_GUARD`` = 2**30.  With
entries at most 2**30 and a derived artificial reduced cost at most 2**31,
every product in a pivot is at most 2**61 and every numerator at most 2**62
in absolute value.
On OVERFLOW the solve restarts on an object-dtype tableau of Python ints,
which cannot overflow and makes the same pivots.

Farkas phase 1
--------------
``solve_farkas`` decides the same system through its Farkas alternative
(Farkas 1902): exactly one of ``A x <= b`` and

    y >= 0,   A^T y = 0,   -b^T y = 1

has a solution.  The alternative has ``n + 1`` equality rows over ``m``
nonnegative ``y``, so its phase-1 tableau is ``(n+2) x (m+n+2)``: one
artificial per row (all right-hand sides are 0 or 1, so none is negated),
the ``y`` columns, and the right-hand side.  A realizability LP over
``k`` Boolean variables has ``m = 2^k`` rows but only ``n`` = (number of
monomials) + 1 unknowns, so this tableau has far fewer rows than the
primal's and needs far fewer pivots.

The artificials are numbered before the ``y`` columns and kept in the
tableau.  Bland's rule enters the lowest-numbered ``y`` with a negative
reduced cost (an artificial that left never re-enters), and the ratio test
breaks ties by the lowest-numbered basic variable, so artificials leave
first.  The same Bareiss pivot and int64 guard apply as above.

The solve ends with a proof either way:

* the artificials' sum reaches 0: the basic ``y`` values are a Farkas
  ray, and ``A x <= b`` is infeasible;
* no ``y`` column prices out while the sum ``w`` is still positive: the
  simplex multipliers ``pi = (u, t)``, read from the artificials'
  reduced costs ``1 - pi_k``, satisfy ``A u - b t <= 0`` (the ``y``
  columns price out) and ``t = w > 0``, so ``u / t`` is a point of
  ``A x <= b``.
"""

from __future__ import annotations

import numpy as np

FEASIBLE = 0
INFEASIBLE = 1
OVERFLOW = 2
UNBOUNDED = 3

# Entries above this make the next pivot's intermediates unsafe for int64.
_INT64_GUARD = 1 << 30


def _build_tableau(A, b, dtype):
    """Condensed phase-1 tableau for ``A x <= b`` over free ``x``.

    Returns ``(T, basis, rep, partner)``.  ``T`` holds the ``x+`` columns of
    the sign-adjusted rows, the right-hand side last, and the phase-1
    reduced costs in row ``m``.  ``basis[i]`` is the variable basic in row
    ``i``; ``rep[k]`` the variable whose column slot ``k`` holds; and
    ``partner[v]`` the other member of ``v``'s group, or -1 for the slack of
    a row that needed no artificial.
    """
    m, n = A.shape
    neg = b < 0
    T = np.empty((m + 1, n + 1), dtype=dtype)
    T[:m, :n] = A
    T[:m, n] = b
    negated = np.flatnonzero(neg)
    T[negated] *= -1
    T[m] = -T[negated].sum(axis=0)
    first_slack, first_art = 2 * n, 2 * n + m
    basis = list(range(first_slack, first_art))
    partner = list(range(n, 2 * n)) + list(range(n)) + [-1] * m
    for t, i in enumerate(negated.tolist()):
        basis[i] = first_art + t
        partner[first_slack + i] = first_art + t
        partner.append(first_slack + i)
    return T, basis, list(range(n)), partner


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


def _pivot_loop_numpy(T, basis, rep, partner, guarded: bool):
    """Pivot a condensed tableau (int64 or object dtype) to phase-1 optimality.

    ``T``, ``basis`` and ``rep`` are updated in place.  Returns
    ``(status, delta)``.
    """
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    first_slack = 2 * n
    delta = T.dtype.type(1) if T.dtype != object else 1
    while True:
        if guarded and (T.max() > _INT64_GUARD or T.min() < -_INT64_GUARD):
            return OVERFLOW, delta
        # Bland: the lowest-numbered variable with a negative reduced cost.
        # A slot's partner has reduced cost -D (structural) or delta - D
        # (slack/artificial pair).
        enter = q = -1
        for k, d in enumerate(T[m, :n].tolist()):
            v = rep[k]
            if d >= 0:
                v = partner[v]
                if v < 0 or d <= (delta if v >= first_slack else 0):
                    continue
            if enter < 0 or v < enter:
                enter, q = v, k
        if enter < 0:
            break
        if enter != rep[q]:
            d = T[m, q]
            T[:, q] *= -1
            if enter >= first_slack:
                T[m, q] = delta - d
            rep[q] = enter
        p = _leaving_row(T[:m, q].tolist(), T[:m, n].tolist(), basis)
        if p < 0:
            return UNBOUNDED, delta
        piv = T[p, q]
        row_p = T[p].copy()
        col_q = T[:, q].copy()
        T *= piv
        T -= col_q[:, None] * row_p
        T //= delta
        T[p] = row_p
        T[:, q] = -col_q
        T[p, q] = delta
        delta = piv
        rep[q] = basis[p]
        basis[p] = enter
    if T[m, n] < 0:
        return INFEASIBLE, delta
    return FEASIBLE, delta


def _build_farkas_tableau(A, b, dtype):
    """Phase-1 tableau of ``y >= 0, A^T y = 0, -b^T y = 1``.

    Columns are the ``n + 1`` artificials (the initial basis), the ``m``
    ``y`` variables and the right-hand side; the reduced costs are in the
    last row.  A column's index is its variable's number.
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


def _farkas_loop(T, basis, guarded: bool):
    """Pivot a Farkas phase-1 tableau (int64 or object dtype) to a proof.

    ``T`` and ``basis`` are updated in place.  Returns ``(status, delta)``
    with status INFEASIBLE when the artificials' sum reached 0 (the basic
    ``y`` form a ray), FEASIBLE when no ``y`` column prices out, OVERFLOW
    or UNBOUNDED.
    """
    r = T.shape[0] - 1
    last = T.shape[1] - 1
    delta = T.dtype.type(1) if T.dtype != object else 1
    while True:
        if guarded and (T.max() > _INT64_GUARD or T.min() < -_INT64_GUARD):
            return OVERFLOW, delta
        if T[r, last] == 0:
            return INFEASIBLE, delta
        # Bland over the y columns only: artificials never re-enter.
        costs = T[r, r:last] < 0
        q = int(costs.argmax())
        if not costs[q]:
            return FEASIBLE, delta
        q += r
        p = _leaving_row(T[:r, q].tolist(), T[:r, last].tolist(), basis)
        if p < 0:
            return UNBOUNDED, delta
        piv = T[p, q]
        row_p = T[p].copy()
        col_q = T[:, q].copy()
        T *= piv
        T -= col_q[:, None] * row_p
        T //= delta
        T[p] = row_p
        delta = piv
        basis[p] = q


def _solve_exact(build, loop, A, b):
    """Build and pivot a tableau on int64, restarting on Python ints on OVERFLOW.

    ``build(A, b, dtype)`` returns the tableau state that ``loop(*state,
    guarded=...)`` pivots in place.  Returns ``(state, status, delta)``.
    """
    status = OVERFLOW
    if max(int(np.abs(A).max(initial=0)), int(np.abs(b).max(initial=0))) <= _INT64_GUARD:
        state = build(A, b, np.int64)
        status, delta = loop(*state, guarded=True)
    if status == OVERFLOW:
        state = build(A, b, object)
        status, delta = loop(*state, guarded=False)
    if status == UNBOUNDED:
        # Phase 1 minimizes a sum of nonnegative variables; it cannot be
        # unbounded, so this would be a kernel bug.
        raise AssertionError("phase-1 simplex reported unbounded")
    return state, status, delta


def solve_farkas(A, b):
    """Decide ``A x <= b`` over free variables by the Farkas phase 1.

    ``A`` is an integer ``m x n`` matrix with ``m >= 1``, ``b`` an integer
    vector.  Returns ``(False, y)`` with Python-int ``y >= 0``,
    ``A^T y = 0`` and ``b^T y < 0`` when the system is infeasible, else
    ``(True, (x, t))`` with Python ints, ``t > 0`` and ``A x <= t b``.
    """
    A = np.asarray(A)
    b = np.asarray(b)
    m, n = A.shape
    (T, basis), status, delta = _solve_exact(_build_farkas_tableau, _farkas_loop, A, b)
    r = n + 1
    if status == INFEASIBLE:
        y = [0] * m
        for v, value in zip(basis, T[:r, -1].tolist()):
            if v >= r:
                y[v - r] = value
        return False, y
    # An artificial's reduced cost is 1 - pi_k, scaled by delta.
    pi = [int(delta) - v for v in T[r, :r].tolist()]
    return True, (pi[:n], pi[n])


def solve_free_le(A, b, nvars: int):
    """Feasibility of ``A x <= b`` over free (sign-unrestricted) variables.

    ``A`` is an integer matrix with ``nvars`` columns, ``b`` an integer
    vector.  Returns None when infeasible, else ``(num, den)``: Python-int
    numerators of a witness over one positive common denominator.  Runs
    phase 1 of the two-phase simplex with Bland's rule; with no objective
    to optimize, phase 2 is vacuous.
    """
    A = np.asarray(A)
    b = np.asarray(b)
    m = A.shape[0]
    if m == 0:
        return [0] * nvars, 1
    (T, basis, _, _), status, delta = _solve_exact(_build_tableau, _pivot_loop_numpy, A, b)
    if status == INFEASIBLE:
        return None
    num = [0] * nvars
    for v, value in zip(basis, T[:m, nvars].tolist()):
        if v < nvars:
            num[v] = value
        elif v < 2 * nvars:
            num[v - nvars] = -value
    return num, int(delta)
