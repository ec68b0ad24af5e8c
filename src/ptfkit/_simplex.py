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
re-enters.  Dantzig's rule (Dantzig 1963) enters the ``y`` column with
the most negative reduced cost, lowest index on ties, and the ratio test
breaks ties by the lowest-numbered basic variable, so artificials leave
first.  Both choices depend only on the set of basic variables, so a basis
seen twice in one solve proves a cycle.  The loop keeps that set as an int
bitmask and switches to Bland's rule (Bland 1977: the lowest-numbered
``y`` with a negative reduced cost) at the first repeat; Bland's rule
terminates from any feasible basis.

Warm start
----------
After a system's first LP, the next one starts from the final state
``(T, basis, delta, signs, proved)`` of a solve already done.  ``signs``
holds one +-1 per equality row: the row is multiplied by it, which keeps
every artificial's value nonnegative (a cold build has all +1).
``proved`` is that system's verdict under the proof below.  A solve
that ends on an object-dtype tableau, or with a kept artificial still
basic, returns no state, so every start is an int64 tableau whose basis
holds no kept artificial.  The artificial block of ``T`` is
``delta * B^-1``, so every new column and its reduced cost are formed
exactly from it.  Two kinds of start:

* **A changed row** ``j`` changes the column of ``y_j`` alone
  (:func:`_warm_start`).  A basic ``y_j``, at 0 or positive, leaves its
  old column in its basis slot as the *kept artificial*, numbered
  ``r + m`` (past every ``y``): it costs 1 like the others, has no
  column in ``T``, is never priced, and so never re-enters.  The old
  basis stays feasible.
* **Inserted columns** add equality rows (:func:`_lift`; Chvatal,
  *Linear Programming*, 1983).  Each new row gets its own basic
  artificial, and its sign makes that artificial's value
  ``|A[:, i]^T y|``.  The basis determinant, ``delta``, is unchanged.

The loop then continues from that basis, keeping the starting ``delta``
(the new basis's determinant), under the same rules and with the same
proofs.

The solve ends with a proof either way:

* the artificials' sum (a kept artificial's value included) reaches 0:
  the basic ``y`` values are a Farkas ray, and ``A x <= b`` is infeasible;
* no ``y`` column prices out while the sum ``w`` is still positive: the
  simplex multipliers ``pi`` of the signed rows, read from the
  artificials' reduced costs ``1 - pi_k``, give ``(u, t) = signs * pi``
  with ``A u - b t <= 0`` (the ``y`` columns price out) and ``t = w > 0``,
  so ``u / t`` is a point of ``A x <= b``.

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

The pivot loop runs on an int64 tableau.  With entries at most
``_INT64_GUARD`` = 2**30, every product in a pivot is at most 2**60 and
every numerator at most 2**61 in absolute value.

Every entry is a minor of the phase-1 matrix.  Let ``M`` be the
``r = n + 1`` equality rows of a new tableau: the identity of the
artificials, then ``A^T`` over ``-b^T``, then the column of the kept
artificial if there is one, then the right-hand side ``(0, ..., 0, 1)``.
``delta`` and the entries of the equality rows are ``r x r`` minors of
``M``, and a reduced cost is an ``(r+1) x (r+1)`` minor of ``M``
bordered by the phase-1 cost row, which is 1 on the artificials, the
kept one included, and 0 elsewhere (the stored cost row differs from it
by a sum of rows of ``M``, which leaves those minors unchanged).  Row
signs change no minor's absolute value.  With ``a`` the largest
``|entry|`` of ``A``, ``b`` and the start's system (which holds the kept
column), every row of ``M`` has squared norm at most ``2 + (m + 1) a^2``
and the cost row's at most ``r + 1``, so Hadamard's inequality (Hadamard
1893) bounds every entry of every tableau of the solve, squared, by
``(2 + (m + 1) a^2)^r * (r + 1)``.  When that is at most
``_INT64_GUARD ** 2`` the solve is *proved*: no entry can pass the
guard, and the loop pivots without scanning for one.  The bound grows
with ``a``, so a start is proved when its system and the start's system
both pass: for a row change the second covers the kept column, and for
a lift, which holds none, it follows from the first.  For a
realizability LP over ``k`` variables (``a = 1``, ``m = 2^k``) that holds
at every ``k <= 3``, at ``k = 4`` up to degree 2, at ``k = 5`` and 6 up
to degree 1, and at degree 0 for any ``k``.

Any other int64 loop scans the tableau before each pivot and bails out
with an OVERFLOW status when an entry passes the guard.  Dantzig's rule
reaches bases with larger minors than Bland's, so the solve climbs a
ladder of restarts (``_RUNGS``): int64 under Dantzig, then int64 under
Bland, then an object-dtype tableau of Python ints under Bland, which
cannot overflow.  A system whose entries already pass the guard starts
on the last rung.
"""

from __future__ import annotations

import numpy as np

FEASIBLE = 0
INFEASIBLE = 1
OVERFLOW = 2

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


def _largest_entry(A, b) -> int:
    """The largest absolute value of an entry of ``A`` or ``b``."""
    return max(int(np.abs(A).max(initial=0)), int(np.abs(b).max(initial=0)))


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


def _proved(m, r, a) -> bool:
    """Whether Hadamard's bound keeps every tableau entry within the guard.

    ``m`` and ``r`` are the system's rows and equality rows, and ``a``
    bounds every entry of the system (module docstring); a None ``a``
    proves nothing.
    """
    return a is not None and (2 + (m + 1) * a * a) ** r * (r + 1) <= _INT64_GUARD * _INT64_GUARD


def _pivot(T, p, q, delta):
    """One fraction-free pivot on ``T[p, q]``, in place; returns the new delta."""
    piv = T[p, q]
    row_p = T[p].copy()
    # Formed before T is scaled, so the pivot column needs no copy.
    outer = T[:, q, None] * row_p
    T *= piv
    T -= outer
    T //= delta
    T[p] = row_p
    return piv


def _pivot_loop_numpy(T, basis, dantzig: bool, delta=1, safe=False):
    """Pivot a phase-1 tableau (int64 or object dtype) to a proof.

    ``T`` and ``basis`` are updated in place; ``delta`` is the determinant
    of the starting basis (1 for the artificials of a new tableau).  Prices
    by Dantzig's rule until a basis repeats when ``dantzig`` is set, else
    by Bland's rule.  An int64 tableau is guarded unless ``safe`` says
    that no entry can pass the guard (the Hadamard test of
    :func:`solve_free_le`).  Returns ``(status, delta)`` with status
    INFEASIBLE when the artificials' sum reached 0 (the basic ``y`` form a
    ray), FEASIBLE when no ``y`` column prices out, or OVERFLOW.
    """
    r = T.shape[0] - 1
    last = T.shape[1] - 1
    guarded = T.dtype != object and not safe
    if T.dtype != object:
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
            # Phase 1 minimizes a sum of nonnegative artificials: never unbounded.
            raise AssertionError("phase-1 simplex reported unbounded")
        delta = _pivot(T, p, q, delta)
        if dantzig:
            mask ^= (1 << basis[p]) | (1 << q)
            if mask in seen:
                dantzig = False
            seen.add(mask)
        basis[p] = q


def _warm_start(A, b, state, j):
    """A final phase-1 state made a start for ``A x <= b``, or None for a cold solve.

    ``state = (T, basis, delta, signs, proved)`` ended the solve of a system
    that differs from ``A x <= b`` in row ``j`` alone, so only the column
    of ``y_j`` changes: it is ``delta * B^-1 c`` with the signed
    ``c = signs * (A[j], -b[j])``, read off the artificial block
    ``delta * B^-1``, and its reduced cost follows from the cost row the
    same way.  A nonbasic ``y_j`` leaves the basis feasible.  A basic
    ``y_j`` in row ``p``, at 0 or positive, leaves its old column in the
    basis as the kept artificial ``r + m``, whose cost 1 moves its row
    into the cost row.  Returns ``(T, basis, delta, signs)``, or None
    when the row is too large for an int64 product.  ``state`` is not
    modified.
    """
    T, basis, delta, signs, _ = state
    r = T.shape[0] - 1
    q = r + j
    c = signs * np.append(A[j], -b[j])
    # With every entry of T within the guard, and so the cost row within twice
    # it, the products below stay in int64.
    if int(np.abs(c).sum()) * _INT64_GUARD >= 1 << 61:
        return None
    T, basis = T.copy(), list(basis)
    if q in basis:
        p = basis.index(q)
        basis[p] = T.shape[1] - 1  # r + m, past every y
        T[r] -= T[p]
    T[:r, q] = T[:r, :r] @ c
    T[r, q] = T[r, :r] @ c - delta * c.sum()
    return T, basis, delta, signs


def _lift(A, b, state, new):
    """A final phase-1 state lifted to ``A x <= b``, or None for a cold solve.

    ``state`` ended the solve of ``A x <= b`` without the columns ``new``,
    a slice before the last column.  Each new column ``i`` adds the
    equality ``A[:, i]^T y = 0``, whose basic artificial takes the value
    ``|A[:, i]^T y|`` at the old basic ``y`` under the row sign
    ``-sign(A[:, i]^T y)`` (+1 on a tie).  The old rows keep their entries,
    their artificials and ``y`` renumbered; a new row is its signed
    equality times ``delta`` less the old rows that cancel its basic ``y``
    entries.  Returns ``(T, basis, delta, signs)``, or None when the new
    columns are too large for an int64 product.  ``state`` is not
    modified.
    """
    T, basis, delta, signs, _ = state
    r0 = T.shape[0] - 1
    m = A.shape[0]
    if int(np.abs(A[:, new]).max(initial=0)) * r0 * _INT64_GUARD >= 1 << 62:
        return None
    cols = A[:, new].astype(np.int64)
    k = cols.shape[1]
    r = r0 + k
    # Old variable ids from new.start on (the artificials of the later rows,
    # then every y) move k places right, past the new artificials.
    old = np.r_[0 : new.start, new.start + k : r + m + 1]
    N = np.zeros((k, r0), dtype=np.int64)
    for p, v in enumerate(basis):
        if v >= r0:
            N[:, p] = cols[v - r0]
    s = np.where(N @ T[:r0, -1] > 0, -1, 1)
    N *= s[:, None]
    L = np.zeros((r + 1, r + m + 1), dtype=np.int64)
    L[:r0, old] = T[:r0]
    L[r0:r, old] = -N @ T[:r0]
    L[range(r0, r), range(new.start, new.start + k)] = delta
    L[r0:r, r : r + m] += delta * s[:, None] * cols.T
    basis = [v + k if v >= new.start else v for v in basis] + list(range(new.start, new.start + k))
    L[r, :r] = delta
    # The cost row can wrap only when a row it sums passes the guard, which a
    # guarded loop finds before its first pivot and a proved one never holds.
    L[r] -= L[[p for p, v in enumerate(basis) if v < r]].sum(axis=0)
    return L, basis, delta, np.insert(signs, new.start, s)


def solve_free_le(A, b, start=None):
    """Decide ``A x <= b`` over free variables by the Farkas phase 1.

    ``A`` is an integer ``m x n`` matrix with ``m >= 1``, ``b`` an integer
    vector.  ``start = (state, at)`` continues from the final ``state`` of
    a solve of a system that differs from this one in row ``at`` alone
    (an int, :func:`_warm_start`) or by the inserted columns ``at`` (a
    slice, :func:`_lift`).  A None state, a start either refuses, and an
    OVERFLOW after a start solve cold on the ladder.  Returns
    ``(False, y, state)`` with Python-int ``y >= 0``, ``A^T y = 0`` and
    ``b^T y < 0`` when the system is infeasible, else
    ``(True, (x, t), state)`` with Python ints, ``t > 0`` and
    ``A x <= t b``.  ``state`` is the final
    ``(T, basis, delta, signs, proved)``, or None when the solve ended on
    an object-dtype tableau or with the kept artificial still basic (its
    column is another system's row).

    Before any pivot the solve tests, in Python ints, whether Hadamard's
    bound ``(2 + (m + 1) a^2)^r * (r + 1)``, with ``r = n + 1`` and ``a``
    the largest ``|entry|`` of ``A`` and ``b``, is at most
    ``_INT64_GUARD ** 2`` (module docstring); ``a = 1`` is tried first, so
    a system that fails it never reads ``a``.  ``proved`` is that
    verdict.  A cold build is proved when it holds, and a lift or a row
    change when it holds for this system and the start state's; a proved
    loop pivots without the guard scan and never overflows.
    """
    A = np.asarray(A)
    b = np.asarray(b)
    m, n = A.shape
    r = n + 1
    # a = 1 is tried first, so a system too large for it never reads a.
    a = _largest_entry(A, b) if _proved(m, r, 1) else None
    proved = _proved(m, r, a)
    status = OVERFLOW
    state, at = start or (None, None)
    if state is not None:
        warm = (_lift if isinstance(at, slice) else _warm_start)(A, b, state, at)
        if warm is not None:
            T, basis, delta, signs = warm
            # A kept column is a row of the start state's system.
            status, delta = _pivot_loop_numpy(T, basis, True, delta, proved and state[4])
    if status == OVERFLOW:
        signs = np.ones(r, dtype=np.int64)
        fits = (_largest_entry(A, b) if a is None else a) <= _INT64_GUARD
        for dtype, dantzig in _RUNGS:
            if dtype is object or fits:
                T, basis = _build_tableau(A, b, dtype)
                status, delta = _pivot_loop_numpy(T, basis, dantzig, 1, proved)
                if status != OVERFLOW:
                    break
    # A kept artificial left in the basis holds another system's row.
    state = None if T.dtype == object or max(basis) >= r + m else (T, basis, delta, signs, proved)
    if status == INFEASIBLE:
        y = [0] * m
        for v, value in zip(basis, T[:r, -1].tolist()):
            # Id r + m is the kept artificial, at 0 here.
            if r <= v < r + m:
                y[v - r] = value
        return False, y, state
    # An artificial's reduced cost is 1 - pi_k, scaled by delta.
    x = [s * (int(delta) - v) for s, v in zip(signs.tolist(), T[r, :r].tolist())]
    return True, (x[:n], x[n]), state
