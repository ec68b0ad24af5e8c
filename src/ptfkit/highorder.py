"""High-order vectors and order reduction by a single-point flip.

Flipping a function g at one input Y sometimes changes its minimal
realization order; such a Y is a high-order vector of g.  When the flip
lands in the threshold class (order <= 1), the disagreement function
g XOR flip(g, Y) is true only at Y, and a one-minterm function always has
the closed-form degree-1 realization

    w_i = 2*y_i - 1,   theta = popcount(Y),

whose weighted sum is maximized uniquely at Y.  Order reduction packages
both pieces: the flipped threshold function with an LP witness, and the
single-minterm remainder with the closed-form witness, each re-verified
by full table evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import InputVector, TruthTable, all_vectors, flip_at, minterms, xor
from .errors import DimensionMismatch, PreconditionError
from .ptf import PTF, is_threshold, order, truth_table

# Each probe costs an order computation; keep enumeration at desk scale.
MAX_PROBE_VARS = 6


@dataclass(frozen=True)
class HighOrderVectorResult:
    """A flip point together with the orders before and after the flip."""

    Y: InputVector
    order_before: int
    order_after: int


def _check_probe_size(g: TruthTable) -> None:
    if g.n > MAX_PROBE_VARS:
        raise PreconditionError(f"high-order probes capped at n <= {MAX_PROBE_VARS}, got {g.n}")


def _flip_changes_order(g: TruthTable, r: int, Y: InputVector) -> HighOrderVectorResult | None:
    s = order(flip_at(g, Y))
    if s == r:
        return None
    return HighOrderVectorResult(tuple(Y), r, s)


def is_high_order_vector(g: TruthTable, Y: InputVector) -> HighOrderVectorResult | None:
    """Present iff flipping g at Y changes the minimal order."""
    if len(Y) != g.n:
        raise DimensionMismatch(f"vector has {len(Y)} entries, function has {g.n} variables")
    _check_probe_size(g)
    return _flip_changes_order(g, order(g), Y)


def high_order_search(g: TruthTable) -> tuple[int, list[HighOrderVectorResult]]:
    """The order of g and all qualifying flip points, in ascending table-index order.

    Computes the order of g once, then one order per flip point.
    """
    _check_probe_size(g)
    r = order(g)
    results = []
    for Y in all_vectors(g.n):
        hit = _flip_changes_order(g, r, Y)
        if hit is not None:
            results.append(hit)
    return r, results


def high_order_vectors(g: TruthTable) -> list[HighOrderVectorResult]:
    """All qualifying flip points, in ascending table-index order."""
    return high_order_search(g)[1]


def single_minterm_witness(Y: InputVector) -> PTF:
    """Closed-form degree-1 realization of the function true only at Y."""
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
    """
    if len(Y) != g.n:
        raise DimensionMismatch(f"vector has {len(Y)} entries, function has {g.n} variables")
    if g.n > MAX_PROBE_VARS:
        raise PreconditionError(f"order reduction capped at n <= {MAX_PROBE_VARS}, got {g.n}")
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


def hov_to_json(result: HighOrderVectorResult) -> dict:
    return {"Y": list(result.Y), "r": result.order_before, "s": result.order_after}
