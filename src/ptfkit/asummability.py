"""Summability certificates and asummability testing.

A function fails to be a threshold function exactly when, for some k >= 2,
a size-k multiset of its true vectors and a size-k multiset of its false
vectors have equal componentwise integer sums.  Such an equal-sum pair is
a summability certificate: explicit, finite, and checkable by addition.
Absence of certificates for all k <= m is m-asummability.

The search is meet-in-the-middle: for each k the false-vector multiset
sums are indexed by an encoded key, then true-vector multisets probe for
collisions in ascending lexicographic order, so the returned certificate
is the smallest-k, lexicographically first one and the output is
deterministic.

Asummability for every m characterizes threshold functions, but only a
bounded m can ever be searched; consistency reports therefore distinguish
a hard contradiction (threshold with a certificate) from the merely
inconclusive case (no realization and no certificate up to m).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement
from math import comb

import numpy as np

from .core import InputVector, TruthTable, _index, vector_at
from .errors import DimensionMismatch, PreconditionError
from .ptf import PTF, is_threshold

# The search enumerates every size-2..m multiset of true and of false
# points, so time and memory grow with the count of the vector entries
# those multisets hold.  At this cap a search takes about 0.5 s and 100 MB
# of peak RSS on a 2-CPU x86_64 VM (0.3 s and 91 MB for k <= 5 over a 26/38
# split of the n = 6 points, 0.45 s and 100 MB for k <= 6 over a 5/27
# split at n = 5).  The count also caps n: it admits n = 11 at m = 2
# (0.15 s and 63 MB over a 1024/1024 split, 0.26 s and 101 MB over
# 335/1713) and no non-constant table at n >= 12.  A key is below
# (k+1)^n <= 3^11 < 2^18 over every search the count admits, so the
# int64 keys are exact.
MAX_SEARCH_CELLS = 1 << 25


@dataclass(frozen=True)
class SummabilityCertificate:
    """Equal-sum multisets of true and false vectors witnessing non-thresholdness."""

    k: int
    true_vectors: tuple[InputVector, ...]
    false_vectors: tuple[InputVector, ...]

    def sums(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        sides = (self.true_vectors, self.false_vectors)
        return tuple(tuple(map(sum, zip(*side))) for side in sides)

    def verify(self, f: TruthTable) -> bool:
        """Re-check the certificate by addition and membership; a non-input of f fails."""
        if self.k < 2 or len(self.true_vectors) != self.k or len(self.false_vectors) != self.k:
            return False
        try:
            if any(f.bits[_index(f.n, v)] != 1 for v in self.true_vectors):
                return False
            if any(f.bits[_index(f.n, v)] != 0 for v in self.false_vectors):
                return False
        except (DimensionMismatch, ValueError):
            return False
        t, fs = self.sums()
        return t == fs


def _multiset_sums(vectors: np.ndarray, k: int, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Encoded componentwise sums of all size-k multisets, in lex order.

    The encoding is linear, so a multiset's key is the sum of its points'
    keys, added one multiset column at a time.
    """
    count = vectors.shape[0]
    combos = np.fromiter(
        chain.from_iterable(combinations_with_replacement(range(count), k)),
        dtype=np.int64,
    ).reshape(-1, k)
    point_keys = vectors @ base ** np.arange(vectors.shape[1], dtype=np.int64)
    keys = point_keys[combos[:, 0]]
    for j in range(1, k):
        keys += point_keys[combos[:, j]]
    return combos, keys


def find_certificate(f: TruthTable, m: int) -> SummabilityCertificate | None:
    """Smallest-k certificate with k <= m, or None (meaning f is m-asummable).

    Ties at the minimal k are broken by lexicographic order on the pair of
    index multisets, true side first.

    Preconditions: ``m >= 2``, and the size-2 to size-m multisets of true
    and of false vectors hold at most ``MAX_SEARCH_CELLS`` vector entries
    in all, counted before anything is enumerated, whether or not a
    smaller k would find a certificate.  The count admits n <= 11 (n = 11
    at m = 2 takes 0.15 to 0.26 s on a 2-CPU x86_64 VM).
    """
    if m < 2:
        raise PreconditionError(f"multiset bound must be >= 2, got {m}")
    true_idx = [i for i, b in enumerate(f.bits) if b]
    false_idx = [i for i, b in enumerate(f.bits) if not b]
    if not true_idx or not false_idx:
        return None
    cells = 0
    for k in range(2, m + 1):
        cells += (comb(len(true_idx) + k - 1, k) + comb(len(false_idx) + k - 1, k)) * k * f.n
        if cells > MAX_SEARCH_CELLS:
            raise PreconditionError(
                f"certificate search up to m={m} enumerates multisets of more than "
                f"{MAX_SEARCH_CELLS} vector entries in all, above the cap"
            )
    T = np.array([vector_at(i, f.n) for i in true_idx], dtype=np.int64)
    F = np.array([vector_at(i, f.n) for i in false_idx], dtype=np.int64)
    for k in range(2, m + 1):
        f_combos, f_keys = _multiset_sums(F, k, base=k + 1)
        t_combos, t_keys = _multiset_sums(T, k, base=k + 1)
        hits = np.isin(t_keys, f_keys)
        if hits.any():
            t_at = int(np.argmax(hits))
            f_at = int(np.argmax(f_keys == t_keys[t_at]))
            cert = SummabilityCertificate(
                k,
                tuple(vector_at(true_idx[j], f.n) for j in t_combos[t_at]),
                tuple(vector_at(false_idx[j], f.n) for j in f_combos[f_at]),
            )
            if not cert.verify(f):
                raise AssertionError("certificate search produced an invalid certificate")
            return cert
    return None


def is_m_asummable(f: TruthTable, m: int) -> bool:
    """True iff no certificate with k <= m exists."""
    return find_certificate(f, m) is None


@dataclass(frozen=True)
class ConsistencyReport:
    """Bounded cross-check of the LP decider against certificate search."""

    lp_threshold: bool
    lp_witness: PTF | None
    certificate: SummabilityCertificate | None
    consistent: bool
    inconclusive: bool
    m_max: int


def check_asummability_theorem(f: TruthTable, m_max: int) -> ConsistencyReport:
    """Compare the LP threshold decision with certificate search up to m_max.

    Inconsistent means a hard contradiction: a degree-1 realization exists
    and so does a certificate.  A non-threshold function with no
    certificate up to m_max is reported inconclusive, not inconsistent,
    because only a bounded search ran.

    Capped by ``ptf.MAX_LP_VARS`` and ``MAX_SEARCH_CELLS``: at n = 10 with
    m_max = 2 it takes about 0.05 s on a 2-CPU x86_64 VM.  The search runs
    first, so its preconditions fail before any LP.
    """
    cert = find_certificate(f, m_max)
    witness = is_threshold(f)
    lp_threshold = witness is not None
    consistent = not (lp_threshold and cert is not None)
    inconclusive = not lp_threshold and cert is None
    return ConsistencyReport(lp_threshold, witness, cert, consistent, inconclusive, m_max)
