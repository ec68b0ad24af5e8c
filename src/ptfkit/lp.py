"""Exact rational feasibility of linear inequality systems.

This is the decision engine behind every realizability question in the
package: systems of ``>=`` / ``<=`` constraints over sign-unrestricted
rational variables are answered Feasible (with an exact witness) or
Infeasible, deterministically for a fixed constraint order.  Strict
inequalities never reach this module; callers rescale them into closed
constraints first.

Arithmetic is exact throughout: rational inputs are cleared to integers
row by row, and the simplex in :mod:`ptfkit._simplex` pivots on an integer
tableau.  Every system is first decided by :func:`decide`, the phase 1 of
its Farkas alternative, which returns a proof either way: a Farkas ray
when the system is infeasible, phase-1 multipliers when it is feasible.
The proof is re-checked in integer arithmetic.  Only a feasible system
then runs the primal simplex, whose integer witness numerators over one
common denominator are re-substituted into every (cleared) constraint the
same way.  A proof or witness that fails its check, or a primal that
disagrees with the Farkas verdict, would be a kernel bug and raises
AssertionError immediately.
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
    return feasible_le_int(np.array(rows, dtype=object), np.array(rhs, dtype=object), nvars)


def feasible_le_int(A, b, nvars: int) -> FeasibilityResult:
    """Feasibility of integer ``A x <= b`` rows over free variables.

    Fast entry point for callers that already hold an integer system (all
    realizability encodings do).  Same contract as :func:`feasible`:
    :func:`decide` answers, and a feasible system gets the primal witness
    from :func:`witness`.
    """
    A = np.asarray(A)
    b = np.asarray(b)
    if not decide(A, b):
        return FeasibilityResult(False, None)
    return FeasibilityResult(True, witness(A, b, nvars))


def decide(A, b) -> bool:
    """Whether integer ``A x <= b`` has a solution, proved either way.

    Runs the Farkas phase 1 (:func:`ptfkit._simplex.solve_farkas`) and
    re-checks its proof in integers: for "no", a ray ``y >= 0`` with
    ``A^T y = 0`` and ``b^T y < 0``; for "yes", multipliers ``(x, t)``
    with ``t > 0`` and ``A x <= t b``.  A system with no rows is feasible.
    """
    A = np.asarray(A)
    b = np.asarray(b)
    if A.shape[0] == 0:
        return True
    feasible, proof = _simplex.solve_farkas(A, b)
    if feasible:
        x, t = proof
        if not (t > 0 and _holds(A, b, x, t)):
            raise AssertionError("Farkas phase 1 produced multipliers violating a constraint")
    elif not _is_farkas_ray(A, b, proof):
        raise AssertionError("Farkas phase 1 produced an invalid infeasibility ray")
    return feasible


def witness(A, b, nvars: int) -> tuple[Fraction, ...]:
    """The primal simplex witness of integer ``A x <= b``, which must be feasible.

    Call it only on a system :func:`decide` found feasible: a primal that
    finds it infeasible disagrees with the Farkas proof and raises.
    """
    solved = _simplex.solve_free_le(A, b, nvars)
    if solved is None:
        raise AssertionError("primal simplex and Farkas phase 1 disagree on feasibility")
    num, den = solved
    if not _holds(A, b, num, den):
        raise AssertionError("simplex produced a witness violating a constraint")
    return tuple(Fraction(v, den) for v in num)


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
