"""High-order vectors and order reduction by a single-point flip.

Flipping a function g at one input Y sometimes changes its minimal
realization order; such a Y is a high-order vector of g.  One flip moves
the order by at most 1 (if p sign-represents g with degree d, then
p * (-L) sign-represents the flip with degree d+1, where L is positive
only at Y), so one probe finds the flip's order from at most two LPs of
the flipped function, and the Farkas ray that refutes g one degree below
its order refutes every flip at a point off the ray's support.  The
search and order reduction ask the same probe.  When the flip lands in
the threshold class (order <= 1), the disagreement function
g XOR flip(g, Y) is true only at Y, and a one-minterm function always has
the closed-form degree-1 realization

    w_i = 2*y_i - 1,   theta = popcount(Y),

whose weighted sum is maximized uniquely at Y.  Order reduction packages
both pieces: the flipped threshold function with the probe's LP witness,
and the single-minterm remainder with the closed-form witness, each
re-verified by full table evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .core import InputVector, TruthTable, _index, flip_at, minterms, vector_at, xor
from .errors import PreconditionError
from .ptf import PTF, _climb, _flipped_lp, _ptf_of, truth_table

# A probe solves at most two LPs over 2^n rows; keep enumeration at desk scale.
MAX_PROBE_VARS = 6


@dataclass(frozen=True, slots=True)
class HighOrderVectorResult:
    """A flip point together with the orders before and after the flip."""

    Y: InputVector
    order_before: int
    order_after: int


def _prober(g: TruthTable):
    """g's order r and the order of g flipped at one table index, from one climb.

    ``flip(j)`` returns ``(s, proof)``: the order s of g flipped at table
    index j, and the flip's re-checked multipliers at r-1 when s = r-1
    (else None).  One flip moves the order by at most 1, so s is r-1, r
    or r+1, and at most two LPs of the flipped function tell them apart.
    Each is g's LP from the climb with row j flipped (:func:`_flipped_lp`):

    * at r-1, only when g's Farkas ray there weights j.  A ray with
      ``y_j = 0`` is also a ray of the flipped system, which differs from
      g's in row j alone; it is re-checked against that system instead of
      solving it.
    * at r, only when s is not r-1 and r < n: infeasible there means
      s = r+1.

    Each solve starts from the final state of g's own solve at that
    degree, which the climb already holds; at r-1, ``y_j`` is basic and
    positive there, so it stays in the basis as the kept artificial.
    """
    if g.n > MAX_PROBE_VARS:
        raise PreconditionError(f"high-order probes capped at n <= {MAX_PROBE_VARS}, got {g.n}")
    r, below, at = _climb(g)

    def flip(j: int) -> tuple[int, tuple[list[int], int] | None]:
        if below is not None:
            A, b, res = below
            A, b = _flipped_lp(A, b, j)
            if res.proof[j]:
                ok, proof = lp.feasible(A, b, start=(res.state, j))
                if ok:
                    return r - 1, proof
            elif not lp._is_farkas_ray(A, b, res.proof):
                raise AssertionError(
                    f"g's Farkas ray at degree {r - 1} does not refute the flip at index {j}"
                )
        A, b, res = at
        if r < g.n and not lp.feasible(*_flipped_lp(A, b, j), start=(res.state, j)).feasible:
            return r + 1, None
        return r, None

    return r, flip


def is_high_order_vector(g: TruthTable, Y: InputVector) -> HighOrderVectorResult | None:
    """Present iff flipping g at Y changes the minimal order."""
    j = _index(g.n, Y)
    r, flip = _prober(g)
    s, _ = flip(j)
    return None if s == r else HighOrderVectorResult(tuple(Y), r, s)


def high_order_search(g: TruthTable) -> tuple[int, list[HighOrderVectorResult]]:
    """The order of g and all qualifying flip points, in ascending table-index order.

    Computes the order of g, its Farkas ray and its final solver state
    once, then at most two LPs per flip point.
    """
    r, flip = _prober(g)
    results = []
    for j in range(g.size):
        s, _ = flip(j)
        if s != r:
            results.append(HighOrderVectorResult(vector_at(j, g.n), r, s))
    return r, results


def high_order_vectors(g: TruthTable) -> list[HighOrderVectorResult]:
    """All qualifying flip points, in ascending table-index order."""
    return high_order_search(g)[1]


def single_minterm_witness(Y: InputVector) -> PTF:
    """Closed-form degree-1 realization of the function true only at Y."""
    _index(len(Y), Y)
    weights = {(i + 1,): Fraction(2 * y - 1) for i, y in enumerate(Y)}
    return PTF(len(Y), weights, Fraction(sum(Y)))


@dataclass(frozen=True)
class OrderReduction:
    """Split of g into a threshold flip and a single-minterm remainder."""

    g: TruthTable
    Y: InputVector
    f2: TruthTable
    f2_witness: PTF
    f1: TruthTable
    f1_witness: PTF


def order_reduce(g: TruthTable, Y: InputVector) -> OrderReduction:
    """Reduce g (order >= 2) at a flip point whose flip has order <= 1.

    Returns the flipped function f2 with its degree-1 LP witness and the
    remainder f1 = g XOR f2, which has Y as its only true vector and the
    closed-form witness; both witnesses are checked by table equality.
    The flip's order and witness come from the high-order probe, so the
    error for a flip that is not threshold names its exact order.
    """
    j = _index(g.n, Y)
    r, flip = _prober(g)
    if r < 2:
        raise PreconditionError(f"function must have order >= 2 to reduce, got order {r}")
    s, proof = flip(j)
    if s > 1:
        raise PreconditionError(
            f"flip at {Y} has order {s}, not a threshold function (g has order {r})"
        )
    f2 = flip_at(g, Y)
    f2_witness = _ptf_of(g.n, 1, proof)
    if truth_table(f2_witness) != f2:
        raise AssertionError("flip's degree-1 LP witness failed table check")
    f1 = xor(g, f2)
    if minterms(f1) != [tuple(Y)]:
        raise AssertionError("g XOR flip(g, Y) must be true exactly at Y")
    f1_witness = single_minterm_witness(tuple(Y))
    if truth_table(f1_witness) != f1:
        raise AssertionError("closed-form single-minterm witness failed table check")
    return OrderReduction(g, tuple(Y), f2, f2_witness, f1, f1_witness)
