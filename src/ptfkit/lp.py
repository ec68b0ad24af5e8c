"""Exact feasibility of integer linear inequality systems.

This is the decision engine behind every realizability question in the
package.  :func:`feasible` is its one entry point: it answers an integer
system ``A x <= b`` over sign-unrestricted rational variables Feasible or
Infeasible, deterministically for a fixed row order, with a proof either
way.  Strict inequalities never reach this module; callers rescale them
into closed constraints with integer data first.

Arithmetic is exact throughout: :func:`ptfkit._simplex.solve_free_le`,
the phase 1 of the system's Farkas alternative, pivots on an integer
tableau, and its proof is re-checked in integer arithmetic before it
leaves this module: a Farkas ray when the system is infeasible,
phase-1 multipliers ``(x, t)`` with ``t > 0`` and ``A x <= t b`` when it
is feasible.  The witness is ``x / t``.  A proof that fails its check
would be a kernel bug and raises AssertionError immediately.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _simplex


class _Verdict(NamedTuple):
    feasible: bool
    proof: tuple[list[int], int] | list[int]


class FeasibilityResult(_Verdict):
    """A verdict and its re-checked proof: the multipliers ``(x, t)`` or a Farkas ray.

    It unpacks as ``ok, proof``.  The attribute ``state`` is the solver's
    final phase-1 state ``(T, basis, delta, signs, a)``: the tableau, its
    basic variables, the basis determinant, one sign per Farkas row and
    the system's largest ``|entry|`` (None where the solver's overflow
    proof cannot use it).  It is a warm start for a system that differs
    in one row or by inserted columns (None for a system without rows).
    """

    def __new__(cls, feasible, proof, state=None):
        self = super().__new__(cls, feasible, proof)
        self.state = state
        return self


def feasible(A, b, start=None) -> FeasibilityResult:
    """Solve integer ``A x <= b`` by the Farkas phase 1, with its proof re-checked.

    Returns ``(True, (x, t))`` with Python ints, ``t > 0`` and
    ``A x <= t b`` (the witness is ``x / t``), or ``(False, y)`` with a
    Farkas ray: Python ints ``y >= 0`` with ``A^T y = 0`` and
    ``b^T y < 0``, one per row.  A system with no rows is feasible with
    ``x = 0``.  A proof that fails its check raises AssertionError.
    ``start = (state, j)`` warm-starts from the ``state`` of a result for
    a system that differs from this one in row ``j`` alone, and
    ``start = (state, cols)`` from one that lacks only the columns of the
    slice ``cols``; a None state starts cold.  The state is the result's
    ``(T, basis, delta, signs, a)`` (:class:`FeasibilityResult`).  The
    proof is checked against this system all the same.
    """
    A = np.asarray(A)
    b = np.asarray(b)
    if A.shape[0] == 0:
        return FeasibilityResult(True, ([0] * A.shape[1], 1))
    ok, proof, state = _simplex.solve_free_le(A, b, start)
    if ok:
        x, t = proof
        if not (t > 0 and _holds(A, b, x, t)):
            raise AssertionError("Farkas phase 1 produced multipliers violating a constraint")
    elif not _is_farkas_ray(A, b, proof):
        raise AssertionError("Farkas phase 1 produced an invalid infeasibility ray")
    return FeasibilityResult(ok, proof, state)


def _dtype_for(bound: int):
    """int64 when every value is bounded by ``bound`` below 2**62, else Python ints."""
    return np.int64 if bound < 1 << 62 else object


def _holds(A, b, num: list[int], den: int) -> bool:
    """Exact test of ``A @ num <= b * den`` for integer ``A``, ``b``, ``num``, ``den >= 0``."""
    bound = max(
        int(np.abs(A).max(initial=0)) * max(1, sum(map(abs, num))),
        int(np.abs(b).max()) * den,
    )
    dtype = _dtype_for(bound)
    lhs = A.astype(dtype) @ np.array(num, dtype=dtype)
    return bool((lhs <= b.astype(dtype) * den).all())


def _is_farkas_ray(A, b, y: list[int]) -> bool:
    """Exact test of ``y >= 0``, ``A^T y = 0`` and ``b^T y < 0`` for integer data."""
    if len(y) != A.shape[0] or min(y) < 0:
        return False
    scale = max(int(np.abs(A).max(initial=0)), int(np.abs(b).max())) * sum(y)
    dtype = _dtype_for(scale)
    yv = np.array(y, dtype=dtype)
    return bool((yv @ A.astype(dtype) == 0).all() and yv @ b.astype(dtype) < 0)
