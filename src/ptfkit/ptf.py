"""Polynomial threshold functions: representation, realization, order.

A function g is realized by a multilinear polynomial G(X) = sum of
weights over monomials (products of distinct variables, no constant
term) together with a threshold theta: g(X) = 1 iff G(X) >= theta.  The
order of g is the smallest monomial degree that suffices; order 1 is the
linearly separable case and constants get order 0 by the empty-weight
convention.  A PTF is the one-threshold (k = 1) case of the shared-weight
form in :mod:`ptfkit.multithreshold`; one point evaluator and one
tabulator serve both.

Realizability at a given degree is decided exactly by LP feasibility.
For each true vector the constraint is G(X) - theta >= 0 and for each
false vector G(X) - theta <= -1: positive scale freedom lets the open
condition G < theta be normalized to a closed constraint with margin 1,
so no strict inequalities are needed.
"""

from __future__ import annotations

import numbers
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import ceil, lcm

import numpy as np

from . import lp
from .core import MAX_VARS, InputVector, TruthTable, _index, compose_by_variable
from .errors import PreconditionError

# LP systems have 2^n rows; keep realizability calls at desk scale.
MAX_LP_VARS = 10

# A same-weight family builds one 2^n-entry table per member, and n = 16
# allows up to 2^16 + 1 members, so this cap bounds the total entries.
MAX_FAMILY_CELLS = 1 << 22

Monomial = tuple[int, ...]
WeightMap = dict[Monomial, Fraction]


def _check_monomial(m: Monomial, n: int) -> None:
    if len(m) == 0:
        raise ValueError("monomials must contain at least one variable")
    if any(m[i] >= m[i + 1] for i in range(len(m) - 1)):
        raise ValueError(f"monomial indices must be strictly increasing, got {m}")
    if m[0] < 1 or m[-1] > n:
        raise ValueError(f"monomial {m} out of range for n={n}")


def _rational(value) -> Fraction:
    """``value`` as a Fraction of ints; only exact rationals pass, so a float or a string fails."""
    if not isinstance(value, numbers.Rational):
        raise ValueError(f"weights and thresholds must be exact rationals, got {value!r}")
    return Fraction(int(value.numerator), int(value.denominator))


def _normalize_weights(weights, n: int) -> WeightMap:
    if n < 1:
        raise ValueError(f"a weighted form needs at least one variable, got n={n}")
    out: WeightMap = {}
    for m, c in weights.items():
        m = tuple(m)
        _check_monomial(m, n)
        c = _rational(c)
        if c != 0:
            out[m] = c
    return dict(sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0])))


@dataclass(frozen=True)
class PTF:
    """Weights over monomials plus a threshold.

    Zero coefficients are dropped on construction, so ``order`` is the
    largest stored monomial degree (0 for an empty map).
    """

    n: int
    coeffs: WeightMap
    theta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _normalize_weights(self.coeffs, self.n))
        object.__setattr__(self, "theta", _rational(self.theta))

    @property
    def order(self) -> int:
        return max((len(m) for m in self.coeffs), default=0)


def weighted_sum(weights: WeightMap, X: InputVector) -> Fraction:
    """Exact value of a monomial weight map at an input (no constant term)."""
    total = Fraction(0)
    for m, c in weights.items():
        if all(X[i - 1] for i in m):
            total += c
    return total


def eval_G(p: PTF, X: InputVector) -> Fraction:
    """The polynomial part of p at X."""
    _index(p.n, X)
    return weighted_sum(p.coeffs, X)


def _parity_met(n: int, weights: WeightMap, thresholds, X: InputVector) -> int:
    """Parity of the ``thresholds`` that the weighted sum at X meets.

    A threshold function is the one-threshold case.
    """
    _index(n, X)
    g = weighted_sum(weights, X)
    return sum(1 for t in thresholds if g >= t) & 1


def evaluate(p: PTF, X: InputVector) -> int:
    """p(X): 1 iff the polynomial value meets the threshold."""
    return _parity_met(p.n, p.coeffs, (p.theta,), X)


def _mask(m: Monomial) -> int:
    """Table index of the input whose true variables are exactly those of m."""
    return sum(1 << (i - 1) for i in m)


def _subset_sums(C):
    """Subset-sum (zeta) transform of the 2^n-entry vector C, in place.

    C[_mask(m)] holds monomial m's weight; afterwards C[idx(X)] holds
    G(X), the sum of the weights of the monomials true at X.  C is
    returned.
    """
    size = len(C)
    for i in range(size.bit_length() - 1):
        pairs = C.reshape(size >> (i + 1), 2, 1 << i)
        pairs[:, 1, :] += pairs[:, 0, :]
    return C


def _scaled_sums(weights: WeightMap, n: int) -> tuple[list[int], int]:
    """Each G(X) * scale as an exact int, by table index, and the scale.

    ``scale`` is the common denominator of the weights.
    """
    scale = lcm(*(c.denominator for c in weights.values()))
    G = np.zeros(1 << n, dtype=object)
    for m, c in weights.items():
        G[_mask(m)] = int(c * scale)
    return _subset_sums(G).tolist(), scale


def _tabulate(n: int, weights: WeightMap, thresholds) -> TruthTable:
    """:func:`_parity_met` at every input of B^n, for sorted ``thresholds``."""
    sums, scale = _scaled_sums(weights, n)
    cuts = [ceil(t * scale) for t in thresholds]
    return TruthTable(n, tuple(bisect_right(cuts, g) & 1 for g in sums))


def truth_table(p: PTF) -> TruthTable:
    """Tabulate p over all 2^n inputs."""
    return _tabulate(p.n, p.coeffs, (p.theta,))


def monomials_up_to(n: int, d: int) -> list[Monomial]:
    """All monomials of degree 1..d over n variables, by (degree, lex)."""
    return list(chain.from_iterable(combinations(range(1, n + 1), k) for k in range(1, d + 1)))


@lru_cache(maxsize=None)
def _monomial_matrix(n: int, d: int):
    """0/1 monomial values: M[x, m] = 1 iff table index x sets every variable of m."""
    mons = monomials_up_to(n, d)
    masks = np.array([_mask(m) for m in mons], dtype=np.int64)
    x = np.arange(1 << n, dtype=np.int64)[:, None]
    M = ((x & masks) == masks).astype(np.int64)
    M.setflags(write=False)
    return tuple(mons), M


def _realization_lp(f: TruthTable, d: int):
    """The degree-d realizability LP of f as ``(A, b)``.

    One row ``A x <= b`` per input, in table-index order, over the
    degree-<=d monomial weights (in :func:`monomials_up_to` order) then
    theta: ``sign * (monomial values at X, -1) <= f(X) - 1`` with sign -1 at
    a true X and +1 at a false one, so ``theta - G(X) <= 0`` or ``G(X) - theta <= -1``.
    """
    if f.n > MAX_LP_VARS:
        raise PreconditionError(f"realizability LP capped at n <= {MAX_LP_VARS}, got {f.n}")
    if not 0 <= d <= f.n:
        raise PreconditionError(f"degree must be in 0..{f.n}, got {d}")
    _, M = _monomial_matrix(f.n, d)
    bits = np.array(f.bits, dtype=np.int64)
    sign = (1 - 2 * bits)[:, None]
    return np.concatenate([sign * M, -sign], axis=1), bits - 1


def _flipped_lp(A, b, j: int):
    """The realizability LP of f flipped at table index j, from f's ``(A, b)``.

    Row X is ``sign * (monomial values at X, -1)`` with the sign set by f(X),
    and ``b = f(X) - 1``, so flipping f at j negates row j and moves its
    right-hand side to ``-1 - b[j]``.  Returns new arrays.
    """
    A, b = A.copy(), b.copy()
    A[j] = -A[j]
    b[j] = -1 - b[j]
    return A, b


def _ptf_of(n: int, d: int, proof) -> PTF:
    """The PTF whose degree-d weights then theta are the point ``x / t`` of ``proof = (x, t)``."""
    x, t = proof
    w = [Fraction(v, t) for v in x]
    return PTF(n, dict(zip(_monomial_matrix(n, d)[0], w)), w[-1])


def realize_at_degree(f: TruthTable, d: int) -> PTF | None:
    """A PTF of order <= d realizing f exactly, or None if none exists.

    One LP over the degree-<=d monomial weights and theta; deterministic
    for a fixed table.
    """
    ok, proof = lp.feasible(*_realization_lp(f, d))
    return _ptf_of(f.n, d, proof) if ok else None


def minimal_realization(f: TruthTable) -> tuple[int, PTF]:
    """The order of f with the realization :func:`realize_at_degree` gives there."""
    r, _, (_, _, res) = _climb(f)
    return r, _ptf_of(f.n, r, res.proof)


def order(f: TruthTable) -> int:
    """Smallest degree at which f is realizable (0 iff f is constant)."""
    return _climb(f)[0]


def _climb(f: TruthTable) -> tuple[int, tuple | None, tuple]:
    """The order r of f, and f's LPs at degrees r-1 and r, each as ``(A, b, result)``.

    Decides degree 0, 1, ... by :func:`lp.feasible`, each with a
    re-checked proof, and stops at the first feasible degree.  Degree 0
    solves cold; each later degree starts from the final state of the one
    below, lifted by the degree-d monomial columns, which is all that the
    two systems differ in.  The LP below r (None at r = 0) carries the
    Farkas ray the climb already holds when degree r-1 fails, and the LP at
    r the multipliers ``(x, t)``; each carries its final phase-1 state (a
    warm start for a flip of f there), so none costs an extra LP or a
    second encoding.
    """
    below, state, width = None, None, 0
    for d in range(f.n + 1):
        A, b = _realization_lp(f, d)
        res = lp.feasible(A, b, (state, slice(width, A.shape[1] - 1)))
        if res.feasible:
            return d, below, (A, b, res)
        below, state, width = (A, b, res), res.state, A.shape[1] - 1
    raise AssertionError("every function is realizable at degree n")


def is_threshold(f: TruthTable) -> PTF | None:
    """A degree-1 realization of f if one exists (order <= 1), else None."""
    return realize_at_degree(f, 1)


@dataclass(frozen=True)
class SameWeightFamily:
    """Every function obtainable from one weight map by sweeping the threshold.

    ``levels`` are the distinct values of the weighted sum over B^n in
    ascending order; ``members`` pairs one representative threshold with
    each distinct truth table, from the constant-1 function down to the
    constant-0 function.
    """

    weights: WeightMap
    levels: tuple[Fraction, ...]
    members: tuple[tuple[Fraction, TruthTable], ...] = field(repr=False)


def same_weight_family(weights, n: int) -> SameWeightFamily:
    """Enumerate the threshold sweep of a weight map.

    A threshold at each level value v yields the member with true set
    {G >= v}; one threshold above the top level yields the constant-0
    function.  Members are totally ordered by pointwise implication.  The
    levels come from one exact subset-sum transform (:func:`_subset_sums`).

    Preconditions: ``1 <= n <= MAX_VARS``, and the member tables
    hold at most ``MAX_FAMILY_CELLS`` entries in all; the second is checked
    once the levels are known, before any member table is built.  The time
    grows with the digits of the weights' common denominator: on a 2-CPU
    x86_64 VM 64 members of small weights at n = 16 take about 0.4 s, but ten
    weights 1/d_i with coprime d_i of about 4,000 digits take 31.5 s at n = 10.
    """
    if not 1 <= n <= MAX_VARS:
        raise PreconditionError(f"same-weight family needs 1 <= n <= {MAX_VARS}, got {n}")
    weights = _normalize_weights(weights, n)
    values, scale = _scaled_sums(weights, n)
    cuts = sorted(set(values))
    if (len(cuts) + 1) << n > MAX_FAMILY_CELLS:
        raise PreconditionError(
            f"same-weight family has {len(cuts) + 1} members of 2^{n} entries, "
            f"above the cap of {MAX_FAMILY_CELLS} entries"
        )
    levels = tuple(Fraction(v, scale) for v in cuts)
    members = [
        (t, TruthTable(n, tuple(1 if g >= v else 0 for g in values)))
        for t, v in zip(levels, cuts)
    ]
    members.append((levels[-1] + 1, TruthTable(n, (0,) * (1 << n))))
    return SameWeightFamily(weights, levels, tuple(members))


def share_weights(
    f: TruthTable, g: TruthTable
) -> tuple[WeightMap, Fraction, Fraction] | None:
    """Common degree-1 weights realizing f and g with separate thresholds.

    f and g share weights w with thresholds t_f and t_g exactly when the
    table h that is f at x_{n+1} = 0 and g at x_{n+1} = 1
    (:func:`ptfkit.core.compose_by_variable`) is a threshold function, with
    weight t_f - t_g on x_{n+1} and threshold t_f.  So this is one threshold
    test of h, present exactly when f and g belong to one same-weight family.
    h has n + 1 variables, so n runs up to ``MAX_LP_VARS - 1``, checked first.
    """
    if f.n >= MAX_LP_VARS:
        raise PreconditionError(f"shared weights capped at n <= {MAX_LP_VARS - 1}, got {f.n}")
    p = is_threshold(compose_by_variable(f, g))
    if p is None:
        return None
    weights = dict(p.coeffs)
    u = weights.pop((f.n + 1,), Fraction(0))
    return weights, p.theta, p.theta - u
