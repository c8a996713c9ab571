"""Exact extreme discrepancy of rational point multisets in [0,1), and the
discrepancy of modular square roots of primes.

A multiset holds its points as integer numerators over one denominator D:
the sorted distinct numerators and their multiplicities.  The modular roots
x/q of primes are built over D = q with no rational per point;
`PointMultiset.of` is the one adapter that takes rationals, and it scales
them by the lcm of their denominators.

The supremum over half-open intervals [alpha, beta) is attained only in the
limit beta -> point+, so isolated points contribute a full excess of 1.  The
critical intervals are the closed clusters [v_i, v_j] (excess) and the open
gaps (v_i, v_j), [0, v_j) and (v_i, 1) (deficit).  Scaled by D, each of
their discrepancies is a difference of two terms of two integer prefix
sequences, so one linear scan with running minima and maxima finds the
supremum exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import CapacityError
from .modular import PRIME_SWEEP_CAP, WORD_CAP, _as_q, prime_array, root_rows


@dataclass(frozen=True, eq=False)
class PointMultiset:
    """Multiset of exact rationals in [0,1): sorted distinct numerators over one denominator."""

    denom: int
    nums: np.ndarray  # sorted distinct numerators in [0, denom): int64, object once denom >= 2^63
    mults: np.ndarray  # positive int64, aligned with nums

    @classmethod
    def of(cls, points) -> "PointMultiset":
        fracs = [Fraction(p) for p in points]
        for f in fracs:
            if not (0 <= f < 1):
                raise ValueError(f"point {f} outside [0,1)")
        denom = math.lcm(*(f.denominator for f in fracs))
        return _multiset(denom, [f.numerator * (denom // f.denominator) for f in fracs])

    @cached_property
    def values(self) -> tuple:
        """The sorted distinct points as Fractions (a view for callers; the scan reads nums)."""
        return tuple(Fraction(n, self.denom) for n in self.nums.tolist())

    @property
    def size(self) -> int:
        return int(self.mults.sum())

    def export_lines(self) -> str:
        """One "numerator denominator multiplicity" line per distinct point, sorted, in lowest terms."""
        lines = []
        for n, m in zip(self.nums.tolist(), self.mults.tolist()):
            g = math.gcd(n, self.denom)
            lines.append(f"{n // g} {self.denom // g} {m}")
        return "\n".join(lines)


def _multiset(denom: int, numerators) -> PointMultiset:
    """The multiset of the points n/denom, numerators in [0, denom)."""
    dtype = np.int64 if denom < WORD_CAP else object
    nums, mults = np.unique(np.array(numerators, dtype=dtype), return_counts=True)
    return PointMultiset(denom, nums, mults.astype(np.int64, copy=False))


@dataclass(frozen=True)
class DiscrepancyResult:
    value: Fraction
    witness: str


def discrepancy(P: PointMultiset) -> DiscrepancyResult:
    """sup over 0 <= alpha < beta <= 1 of |#{points in [alpha, beta)} - (beta-alpha)*size|.

    The witness is the first maximising interval in the order: excess
    clusters [v_i, v_j+) by (i, j), gaps (v_i, v_j) by (i, j), gaps [0, v_j)
    by j, gaps (v_i, 1) by i.
    """
    m = len(P.nums)
    if m == 0:
        return DiscrepancyResult(Fraction(0), "empty")
    N = P.size
    D = P.denom
    dtype = np.int64 if 2 * N * D < WORD_CAP else object
    nums = P.nums.astype(dtype)
    below = np.zeros(m + 1, dtype=dtype)  # below[i] = number of points < v_i
    below[1:] = np.cumsum(P.mults.astype(dtype))
    # with X_i = D*below[i] - N*n_i and Y_i = X_i + D*mult_i, D times the
    # excess of [v_i, v_j+) is Y_j - X_i (i <= j), and D times the deficit of
    # (v_i, v_j) is Y_i - X_j (i < j), of [0, v_j) is -X_j, of (v_i, 1) is Y_i
    X = D * below[:-1] - N * nums
    Y = D * below[1:] - N * nums

    def v(i):
        return Fraction(int(nums[i]), D)

    j = int(np.argmax(Y - np.minimum.accumulate(X)))
    i = int(np.argmin(X[: j + 1]))
    candidates = [(Y[j] - X[i], f"excess [{v(i)}, {v(j)}+)")]
    if m > 1:
        j = int(np.argmax(np.maximum.accumulate(Y)[:-1] - X[1:])) + 1
        i = int(np.argmax(Y[:j]))
        candidates.append((Y[i] - X[j], f"deficit ({v(i)}, {v(j)})"))
    j = int(np.argmin(X))
    candidates.append((-X[j], f"deficit [0, {v(j)})"))
    i = int(np.argmax(Y))
    candidates.append((Y[i], f"deficit ({v(i)}, 1)"))
    best = max(value for value, _ in candidates)
    witness = next(w for value, w in candidates if value == best)
    return DiscrepancyResult(Fraction(int(best), D), witness)


@dataclass(frozen=True, eq=False)
class PrimeRootsResult:
    q: int
    P: int
    points: PointMultiset
    certificates: np.ndarray  # (n, 2) int64 rows (x, p): x^2 = p mod q, p prime <= P, by p then x
    result: DiscrepancyResult

    @property
    def value(self) -> Fraction:
        return self.result.value


def prime_roots_discrepancy(q, P: int) -> PrimeRootsResult:
    """Discrepancy of the multiset { x/q : x^2 = p (mod q), p prime <= P }."""
    q = _as_q(q)
    if P > PRIME_SWEEP_CAP:
        raise CapacityError(f"P exceeds sieve capacity {PRIME_SWEEP_CAP}")
    primes = prime_array(2, P) if P >= 2 else np.zeros(0, dtype=np.int64)
    units = primes[primes != q]
    solvable, rows = root_rows(units % q, 2, q)
    certs = np.stack([rows.ravel(), np.repeat(units[solvable], rows.shape[1])], axis=1).astype(np.int64)
    if q <= P:  # x^2 = q has the one root 0
        certs = np.insert(certs, np.searchsorted(certs[:, 1], q), (0, q), axis=0)
    ms = _multiset(q, certs[:, 0])
    return PrimeRootsResult(q, P, ms, certs, discrepancy(ms))


def prime_roots_envelope(q: int, P: int) -> float:
    return (
        P ** (15 / 16)
        + q ** (1 / 8) * P ** (3 / 4)
        + q ** (1 / 16) * P ** (69 / 80)
        + q ** (13 / 88) * P ** (3 / 4)
    )


def prime_roots_ratio(q, P: int) -> float:
    """Discrepancy over the comparison envelope (reported, never asserted)."""
    q = _as_q(q)
    if P < 1:
        raise ValueError("P must be >= 1")
    gamma = prime_roots_discrepancy(q, P).value
    return float(gamma) / prime_roots_envelope(q, P)
