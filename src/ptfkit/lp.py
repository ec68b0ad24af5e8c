"""Exact rational feasibility of linear inequality systems.

This is the decision engine behind every realizability question in the
package: systems of ``>=`` / ``<=`` constraints over sign-unrestricted
rational variables are answered Feasible (with an exact witness) or
Infeasible, deterministically for a fixed constraint order.  Strict
inequalities never reach this module; callers rescale them into closed
constraints first.

Arithmetic is exact throughout: rational inputs are cleared to integers
row by row, and :func:`ptfkit._simplex.solve_free_le`, the phase 1 of the
system's Farkas alternative, pivots on an integer tableau.  It returns a
proof either way, and the proof is re-checked in integer arithmetic before
any answer leaves this module: a Farkas ray when the system is
infeasible, phase-1 multipliers ``(x, t)`` with ``t > 0`` and
``A x <= t b`` when it is feasible.  The witness is ``x / t``.  A proof
that fails its check would be a kernel bug and raises AssertionError
immediately.  :func:`solve` returns the checked proof itself;
:func:`decide` keeps only the verdict and :func:`feasible_le_int` the
witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from . import _simplex

GE = ">="
LE = "<="


@dataclass(frozen=True)
class LinearConstraint:
    """A single constraint ``coeffs . x  (>=|<=)  rhs``."""

    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.relation not in (GE, LE):
            raise ValueError(f"relation must be {GE!r} or {LE!r}, got {self.relation!r}")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", Fraction(self.rhs))

    def satisfied_by(self, x: Sequence[Fraction]) -> bool:
        value = sum((c * v for c, v in zip(self.coeffs, x)), Fraction(0))
        return value >= self.rhs if self.relation == GE else value <= self.rhs


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: tuple[Fraction, ...] | None


def feasible(constraints: Sequence[LinearConstraint], nvars: int) -> FeasibilityResult:
    """Decide feasibility of a constraint system over ``nvars`` free variables.

    An empty system is feasible with the zero witness.  When feasible, the
    returned witness satisfies every constraint exactly.
    """
    for c in constraints:
        if len(c.coeffs) != nvars:
            raise ValueError(
                f"constraint has {len(c.coeffs)} coefficients, system has {nvars} variables"
            )
    if not constraints:
        return FeasibilityResult(True, (Fraction(0),) * nvars)

    rows = []
    rhs = []
    for c in constraints:
        scale = lcm(c.rhs.denominator, *(v.denominator for v in c.coeffs))
        sign = -1 if c.relation == GE else 1
        rows.append([sign * int(v * scale) for v in c.coeffs])
        rhs.append(sign * int(c.rhs * scale))
    return feasible_le_int(np.array(rows, dtype=object), np.array(rhs, dtype=object))


def feasible_le_int(A, b) -> FeasibilityResult:
    """Feasibility of integer ``A x <= b`` rows over free variables.

    Fast entry point for callers that already hold an integer system (all
    realizability encodings do); the witness has one entry per column of
    ``A``.  Same contract as :func:`feasible`.
    """
    ok, proof = solve(A, b)
    if not ok:
        return FeasibilityResult(False, None)
    x, t = proof
    return FeasibilityResult(True, tuple(Fraction(v, t) for v in x))


def decide(A, b) -> bool:
    """Whether integer ``A x <= b`` has a solution, proved either way.

    Same solve and proof check as :func:`solve`, keeping only the verdict.
    """
    return solve(A, b)[0]


def solve(A, b) -> tuple[bool, tuple[list[int], int] | list[int]]:
    """Solve integer ``A x <= b`` by the Farkas phase 1, with its proof re-checked.

    Returns ``(True, (x, t))`` with Python ints, ``t > 0`` and
    ``A x <= t b`` (the witness is ``x / t``), or ``(False, y)`` with a
    Farkas ray: Python ints ``y >= 0`` with ``A^T y = 0`` and
    ``b^T y < 0``, one per row.  A system with no rows is feasible with
    ``x = 0``.  A proof that fails its check raises AssertionError.
    """
    A = np.asarray(A)
    b = np.asarray(b)
    if A.shape[0] == 0:
        return True, ([0] * A.shape[1], 1)
    ok, proof = _simplex.solve_free_le(A, b)
    if ok:
        x, t = proof
        if not (t > 0 and _holds(A, b, x, t)):
            raise AssertionError("Farkas phase 1 produced multipliers violating a constraint")
    elif not _is_farkas_ray(A, b, proof):
        raise AssertionError("Farkas phase 1 produced an invalid infeasibility ray")
    return ok, proof


def _dtype_for(bound: int):
    """int64 when every value is bounded by ``bound`` below 2**62, else Python ints."""
    return np.int64 if bound < 1 << 62 else object


def _holds(A, b, num: list[int], den: int) -> bool:
    """Exact test of ``A @ num <= b * den`` for integer ``A``, ``b``, ``num``, ``den >= 0``."""
    if A.shape[0] == 0:
        return True
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
