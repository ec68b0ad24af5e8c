"""Multithreshold threshold functions: XOR of threshold functions.

Two equivalent shapes are supported and never conflated.  An explicit
XOR list holds k arbitrary degree-<=1 realizations and outputs the parity
of their values.  A shared-weight form holds one weight map and k sorted
thresholds; the output at X is the parity of how many thresholds the
weighted sum meets, i.e. 0 below the first threshold and flipping at each
one.  A plain threshold function is exactly the k=1 case, and both are
evaluated and tabulated by the same helpers of :mod:`ptfkit.ptf`.

Synthesis tabulates every weight vector of a small integer box at once,
by one product with the points of B^n: a vector works iff the function
is constant on every level set of its weighted sum, and the minimal
thresholds are then read off the output switches along the sorted levels.

Order extension lifts an n-variable function f, given as the XOR of two
same-weight threshold realizations, to the (n+1)-variable function that
is f where the new variable is 1 and constant 0 where it is 0, and builds
an explicit two-threshold shared-weight witness for the result: the new
variable gets a weight W large enough that both (shifted) thresholds are
unreachable without it and exactly restore the original pair with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np

from .core import MAX_VARS, InputVector, TruthTable, compose_by_variable, const, xor
from .errors import DimensionMismatch, PreconditionError
from .ptf import (
    PTF,
    WeightMap,
    _monomial_matrix,
    _normalize_weights,
    _parity_met,
    _rational,
    _tabulate,
    evaluate,
    share_weights,
    truth_table,
)

# Integer weight boxes grow as (2B+1)^n; keep synthesis at desk scale.
MAX_SYNTH_VARS = 4
MAX_SYNTH_BOUND = 5


@dataclass(frozen=True)
class XorList:
    """Explicit XOR of degree-<=1 realizations."""

    members: tuple[PTF, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("XOR list must have at least one member")
        n = self.members[0].n
        if any(p.n != n for p in self.members):
            raise DimensionMismatch("XOR list members disagree on variable count")
        if any(p.order > 1 for p in self.members):
            raise ValueError("XOR list members must have order <= 1")

    @property
    def n(self) -> int:
        return self.members[0].n


@dataclass(frozen=True)
class SharedWeight:
    """One weight map with k thresholds; output is the parity of thresholds met."""

    n: int
    weights: WeightMap
    thresholds: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _normalize_weights(self.weights, self.n))
        object.__setattr__(self, "thresholds", tuple(sorted(map(_rational, self.thresholds))))

    @property
    def k(self) -> int:
        return len(self.thresholds)


MultithresholdRep = XorList | SharedWeight


def eval_xor_list(members, X: InputVector) -> int:
    """Parity of the member outputs at X; at least one member, as in :class:`XorList`."""
    if not members:
        raise ValueError("XOR list must have at least one member")
    return sum(evaluate(p, X) for p in members) & 1


def eval_shared_weight(rep: SharedWeight, X: InputVector) -> int:
    """Parity of the number of thresholds met by the weighted sum at X."""
    return _parity_met(rep.n, rep.weights, rep.thresholds, X)


def to_truth_table(rep: MultithresholdRep) -> TruthTable:
    """Tabulate either representation over all 2^n inputs."""
    if isinstance(rep, XorList):
        return reduce(xor, map(truth_table, rep.members))
    return _tabulate(rep.n, rep.weights, rep.thresholds)


def _weight_search_order(bound: int) -> list[int]:
    """Per-coordinate candidate order: 0, 1, -1, 2, -2, ..., bound, -bound."""
    out = [0]
    for v in range(1, bound + 1):
        out.extend((v, -v))
    return out


def synthesize_shared_weight(
    f: TruthTable, k_max: int, weight_bound: int
) -> SharedWeight | None:
    """Search integer weights in [-B, B]^n for a shared-weight realization.

    A weight vector qualifies iff f is constant on each level set of its
    weighted sum; its threshold count is the number of output switches
    along the ascending levels.  Among qualifying vectors with k <= k_max
    the result has the fewest thresholds within the box, which need not be
    the fewest for f (``0110000001111011`` gets 4 at B = 4 and 5, but 3 by
    weights (19, 6, -23, 30)), breaking ties by the smallest-magnitude-first
    candidate order, so the output is deterministic and all-positive
    weights win over their negated mirrors.
    """
    if f.n > MAX_SYNTH_VARS:
        raise PreconditionError(f"synthesis capped at n <= {MAX_SYNTH_VARS}, got {f.n}")
    if not 1 <= weight_bound <= MAX_SYNTH_BOUND:
        raise PreconditionError(
            f"weight bound must be in 1..{MAX_SYNTH_BOUND}, got {weight_bound}"
        )
    if k_max < 0:
        raise PreconditionError(f"threshold budget must be >= 0, got {k_max}")
    # one row of weighted sums per candidate, over the points of B^n:
    # |G| <= MAX_SYNTH_BOUND * MAX_SYNTH_VARS, so int64 is exact
    candidates = np.array(list(product(_weight_search_order(weight_bound), repeat=f.n)))
    G = candidates @ _monomial_matrix(f.n, 1)[1].T
    by_level = np.argsort(G, axis=1, kind="stable")
    levels = np.take_along_axis(G, by_level, axis=1)
    outputs = np.array(f.bits, dtype=np.int8)[by_level]
    # a switch is where the output changes along the sorted sums, counting
    # a 1 at the lowest level; a row qualifies if none falls inside a level
    switches = np.diff(outputs, axis=1, prepend=0) != 0
    mixed = (switches[:, 1:] & (levels[:, 1:] == levels[:, :-1])).any(axis=1)
    k = np.where(mixed, f.size + 1, switches.sum(axis=1))
    best = int(np.argmin(k))
    if mixed[best] or k[best] > k_max:
        return None
    weights = {(i + 1,): v for i, v in enumerate(candidates[best]) if v}
    rep = SharedWeight(f.n, weights, tuple(levels[best, switches[best]]))
    if to_truth_table(rep) != f:
        raise AssertionError("synthesized representation failed table re-check")
    return rep


@dataclass(frozen=True)
class OrderExtensionResult:
    """An order extension together with its two-threshold witness."""

    f_next: TruthTable
    g_next: TruthTable
    f1_next: TruthTable
    f2_next: TruthTable
    witness: SharedWeight


def extend_order(f_n: TruthTable, f1, f2) -> OrderExtensionResult:
    """Lift f_n = f1 XOR f2 (same-weight thresholds) to n+1 variables.

    ``f1`` and ``f2`` may be degree-<=1 PTFs sharing one weight map, in
    which case the same-weight condition is checked syntactically, or
    truth tables, in which case a shared realization is derived first.
    The result satisfies f_next(X, 0) = 0 and f_next(X, 1) = f_n(X), and
    carries a two-threshold shared-weight witness verified by full table
    equality.  It has n + 1 variables, so n runs up to 15, checked first.
    Table components need :func:`ptfkit.ptf.share_weights`, which tests a
    table of n + 1 variables, so they run up to ``MAX_LP_VARS - 1`` = 9.
    """
    if not 2 <= f_n.n < MAX_VARS:
        raise PreconditionError(f"order extension needs n >= 2 and n < {MAX_VARS}, got n={f_n.n}")
    if isinstance(f1, PTF) and isinstance(f2, PTF):
        if f1.n != f_n.n or f2.n != f_n.n:
            raise DimensionMismatch("component realizations disagree with the target arity")
        if f1.order > 1 or f2.order > 1:
            raise PreconditionError(
                f"components must have order <= 1, got orders {f1.order} and {f2.order}"
            )
        if f1.coeffs != f2.coeffs:
            raise PreconditionError("components do not share one weight map")
        weights = f1.coeffs
        theta1, theta2 = f1.theta, f2.theta
        t1, t2 = truth_table(f1), truth_table(f2)
    else:
        t1 = truth_table(f1) if isinstance(f1, PTF) else f1
        t2 = truth_table(f2) if isinstance(f2, PTF) else f2
        shared = share_weights(t1, t2)
        if shared is None:
            raise PreconditionError("component tables admit no shared-weight realization")
        weights, theta1, theta2 = shared
    if xor(t1, t2) != f_n:
        raise PreconditionError("components do not XOR to the target function")

    n = f_n.n
    g_next = compose_by_variable(f_n, f_n)
    f1_next = compose_by_variable(t1, const(n, 1))
    f2_next = compose_by_variable(t2, const(n, 1))
    f_next = xor(xor(g_next, f1_next), f2_next)
    if f_next != compose_by_variable(const(n, 0), f_n):
        raise AssertionError("extension must be 0 at x_{n+1}=0 and f at x_{n+1}=1")

    # the weights are linear, so the largest weighted sum is that of the positive ones
    lift = sum(c for c in weights.values() if c > 0) - min(theta1, theta2) + 1
    witness_weights = dict(weights)
    witness_weights[(n + 1,)] = lift
    witness = SharedWeight(n + 1, witness_weights, (theta1 + lift, theta2 + lift))
    if to_truth_table(witness) != f_next:
        raise AssertionError("two-threshold witness failed table re-check")
    return OrderExtensionResult(f_next, g_next, f1_next, f2_next, witness)
