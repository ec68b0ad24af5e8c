"""Polynomial threshold functions: representation, realization, order.

A function g is realized by a multilinear polynomial G(X) = sum of
weights over monomials (products of distinct variables, no constant
term) together with a threshold theta: g(X) = 1 iff G(X) >= theta.  The
order of g is the smallest monomial degree that suffices; order 1 is the
linearly separable case and constants get order 0 by the empty-weight
convention.

Realizability at a given degree is decided exactly by LP feasibility.
For each true vector the constraint is G(X) - theta >= 0 and for each
false vector G(X) - theta <= -1: positive scale freedom lets the open
condition G < theta be normalized to a closed constraint with margin 1,
so no strict inequalities are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import lcm

import numpy as np

from . import lp
from .core import MAX_VARS, InputVector, TruthTable, all_vectors
from .errors import DimensionMismatch, ParseError, PreconditionError

# LP systems have 2^n rows; keep realizability calls at desk scale.
MAX_LP_VARS = 10

# A same-weight family builds one 2^n-entry table per member, and n = 16
# allows up to 2^16 + 1 members, so the caps bound the total entries.
MAX_FAMILY_VARS = MAX_VARS
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


def _normalize_weights(weights, n: int) -> WeightMap:
    out: WeightMap = {}
    for m, c in weights.items():
        m = tuple(m)
        _check_monomial(m, n)
        c = Fraction(c)
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
        if self.n < 1:
            raise ValueError("PTF needs at least one variable")
        object.__setattr__(self, "coeffs", _normalize_weights(self.coeffs, self.n))
        object.__setattr__(self, "theta", Fraction(self.theta))

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
    if len(X) != p.n:
        raise DimensionMismatch(f"vector has {len(X)} entries, PTF has {p.n} variables")
    return weighted_sum(p.coeffs, X)


def evaluate(p: PTF, X: InputVector) -> int:
    """p(X): 1 iff the polynomial value meets the threshold."""
    return 1 if eval_G(p, X) >= p.theta else 0


def truth_table(p: PTF) -> TruthTable:
    """Tabulate p over all 2^n inputs."""
    return TruthTable(p.n, tuple(evaluate(p, X) for X in all_vectors(p.n)))


def monomials_up_to(n: int, d: int) -> list[Monomial]:
    """All monomials of degree 1..d over n variables, by (degree, lex)."""
    return list(chain.from_iterable(combinations(range(1, n + 1), k) for k in range(1, d + 1)))


@lru_cache(maxsize=None)
def _monomial_matrix(n: int, d: int):
    """0/1 matrix of monomial values: rows are inputs, columns monomials."""
    mons = monomials_up_to(n, d)
    idx = np.arange(1 << n, dtype=np.int64)
    cols = []
    for m in mons:
        mask = 0
        for i in m:
            mask |= 1 << (i - 1)
        cols.append((idx & mask) == mask)
    M = (
        np.stack(cols, axis=1).astype(np.int64)
        if cols
        else np.zeros((1 << n, 0), dtype=np.int64)
    )
    M.setflags(write=False)
    return tuple(mons), M


def _realization_lp(f: TruthTable, d: int):
    """The degree-d realizability LP of f as ``(A, b)``.

    One row ``A x <= b`` per input, in table-index order, over the
    degree-<=d monomial weights (in :func:`monomials_up_to` order) then
    theta: ``theta - G(X) <= 0`` at a true input, ``G(X) - theta <= -1``
    at a false one.
    """
    if f.n > MAX_LP_VARS:
        raise PreconditionError(f"realizability LP capped at n <= {MAX_LP_VARS}, got {f.n}")
    if not 0 <= d <= f.n:
        raise PreconditionError(f"degree must be in 0..{f.n}, got {d}")
    _, M = _monomial_matrix(f.n, d)
    nm = M.shape[1]
    true_row = np.array(f.bits, dtype=np.int64) == 1
    A = np.empty((f.size, nm + 1), dtype=np.int64)
    A[:, :nm] = np.where(true_row[:, None], -M, M)
    A[:, nm] = np.where(true_row, 1, -1)
    b = np.where(true_row, 0, -1)
    return A, b


def _witness(proof) -> list[Fraction]:
    """The point ``x / t`` of re-checked phase-1 multipliers ``(x, t)``."""
    x, t = proof
    return [Fraction(v, t) for v in x]


def _ptf_of(n: int, d: int, proof) -> PTF:
    """The PTF whose degree-d weights then theta are the witness of ``proof``."""
    w = _witness(proof)
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
    r, proof, _ = _climb(f)
    return r, _ptf_of(f.n, r, proof)


def order(f: TruthTable) -> int:
    """Smallest degree at which f is realizable (0 iff f is constant)."""
    return _climb(f)[0]


def _climb(f: TruthTable) -> tuple[int, tuple[list[int], int], list[int] | None]:
    """The order r of f, the multipliers ``(x, t)`` at r and the Farkas ray at r-1.

    Decides degree 0, 1, ... by :func:`lp.feasible`, each with a
    re-checked proof, and stops at the first feasible degree.  The ray
    (one entry per table index, None at r = 0) is the proof the climb
    already holds when degree r-1 fails, so it costs no extra LP.
    """
    ray = None
    for d in range(f.n + 1):
        ok, proof = lp.feasible(*_realization_lp(f, d))
        if ok:
            return d, proof, ray
        ray = proof
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
    function.  Members are totally ordered by pointwise implication.

    Preconditions: ``1 <= n <= MAX_FAMILY_VARS``, and the member tables
    hold at most ``MAX_FAMILY_CELLS`` entries in all; the second is checked
    once the levels are known, before any member table is built.  Within
    these caps a family takes under a second on a 2-CPU x86_64 VM: about
    0.4 s for 64 members at n = 16, and 0.04 s for two weights at n = 16.
    """
    if not 1 <= n <= MAX_FAMILY_VARS:
        raise PreconditionError(f"same-weight family needs 1 <= n <= {MAX_FAMILY_VARS}, got {n}")
    weights = _normalize_weights(weights, n)
    scale = lcm(*(c.denominator for c in weights.values()))
    G = np.zeros(1 << n, dtype=object)
    for m, c in weights.items():
        G[sum(1 << (i - 1) for i in m)] = int(c * scale)
    # Subset-sum (zeta) transform: G[idx(X)] becomes the sum of the weights
    # of the monomials true at X.
    for i in range(n):
        pairs = G.reshape(-1, 2, 1 << i)
        pairs[:, 1] += pairs[:, 0]
    values = G.tolist()
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

    One LP over shared weights w and two thresholds; present exactly when
    the two functions belong to one same-weight family.
    """
    if f.n != g.n:
        raise DimensionMismatch(f"operands have {f.n} and {g.n} variables")
    # each table's degree-1 rows, with a zero column for the other's theta
    n = f.n
    Af, bf = _realization_lp(f, 1)
    Ag, bg = _realization_lp(g, 1)
    A = np.vstack([np.insert(Af, n + 1, 0, axis=1), np.insert(Ag, n, 0, axis=1)])
    ok, proof = lp.feasible(A, np.concatenate([bf, bg]))
    if not ok:
        return None
    w = _witness(proof)
    weights = {(i + 1,): w[i] for i in range(n) if w[i]}
    return weights, w[n], w[n + 1]


def format_fraction(value: Fraction) -> str:
    """Render a rational as ``p`` or ``p/q``."""
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {text!r}") from exc


def format_monomial(m: Monomial) -> str:
    return "+".join(str(i) for i in m)


def parse_monomial(text: str) -> Monomial:
    try:
        return tuple(int(part) for part in text.strip().split("+"))
    except ValueError as exc:
        raise ParseError(f"invalid monomial {text!r}") from exc


def format_ptf_text(p: PTF) -> str:
    """Text form: one ``monomial: coefficient`` line per weight, then theta."""
    lines = [f"{format_monomial(m)}: {format_fraction(c)}" for m, c in p.coeffs.items()]
    lines.append(f"theta: {format_fraction(p.theta)}")
    return "\n".join(lines) + "\n"


def parse_weight_lines(text: str) -> tuple[dict[Monomial, Fraction], Fraction | None]:
    """Parse ``monomial: coefficient`` lines; a ``theta:`` line is optional."""
    weights: dict[Monomial, Fraction] = {}
    theta: Fraction | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'monomial: coefficient', got {line!r}")
        lhs, rhs = line.split(":", 1)
        if lhs.strip() == "theta":
            theta = parse_fraction(rhs)
        else:
            m = parse_monomial(lhs)
            weights[m] = parse_fraction(rhs)
    return weights, theta


def parse_ptf_text(text: str, n: int | None = None) -> PTF:
    """Parse the text form of a PTF; n defaults to the largest index used."""
    weights, theta = parse_weight_lines(text)
    if theta is None:
        raise ParseError("missing 'theta:' line")
    if n is None:
        n = max((m[-1] for m in weights), default=1)
    try:
        return PTF(n, weights, theta)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
