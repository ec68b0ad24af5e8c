"""Exact rational feasibility of linear inequality systems.

This is the decision engine behind every realizability question in the
package: systems of ``>=`` / ``<=`` constraints over sign-unrestricted
rational variables are answered Feasible (with an exact witness) or
Infeasible, deterministically for a fixed constraint order.  Strict
inequalities never reach this module; callers rescale them into closed
constraints first.

Arithmetic is exact throughout: rational inputs are cleared to integers
row by row, and the simplex in :mod:`ptfkit._simplex` pivots on an integer
tableau.  The simplex returns integer witness numerators over one common
denominator, and every witness is re-substituted into every (cleared)
constraint in integer arithmetic before being returned; a violation would
be a kernel bug and raises immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from . import _simplex

Rational = Fraction

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
    return _decide(np.array(rows, dtype=object), np.array(rhs, dtype=object), nvars)


def feasible_le_int(A, b, nvars: int) -> FeasibilityResult:
    """Feasibility of integer ``A x <= b`` rows over free variables.

    Fast entry point for callers that already hold an integer system (all
    realizability encodings do).  Same contract as :func:`feasible`,
    including the exact witness re-check.
    """
    return _decide(np.asarray(A), np.asarray(b), nvars)


def _decide(A, b, nvars: int) -> FeasibilityResult:
    """Solve integer ``A x <= b`` and re-check the witness exactly."""
    solved = _simplex.solve_free_le(A, b, nvars)
    if solved is None:
        return FeasibilityResult(False, None)
    num, den = solved
    if not _holds(A, b, num, den):
        raise AssertionError("simplex produced a witness violating a constraint")
    return FeasibilityResult(True, tuple(Fraction(v, den) for v in num))


def _holds(A, b, num: list[int], den: int) -> bool:
    """Exact test of ``A @ num <= b * den`` for integer ``A``, ``b``, ``num``, ``den``.

    Uses int64 when a bound on every value is below 2**62, else Python ints.
    """
    if A.shape[0] == 0:
        return True
    bound = max(
        int(np.abs(A).max()) * max(1, sum(map(abs, num))),
        int(np.abs(b).max()) * den,
    )
    dtype = np.int64 if bound < 1 << 62 else object
    lhs = A.astype(dtype) @ np.array(num, dtype=dtype)
    return bool((lhs <= b.astype(dtype) * den).all())
