"""Exact extreme discrepancy of rational point multisets in [0,1), and the
discrepancy of modular square roots of primes.

The supremum over half-open intervals [alpha, beta) is attained only in the
limit beta -> point+, so isolated points contribute a full excess of 1.  The
critical intervals are the closed clusters [v_i, v_j] (excess) and the open
gaps (v_i, v_j), [0, v_j) and (v_i, 1) (deficit).  Scaled by the lcm D of the
denominators, each of their discrepancies is a difference of two terms of
two integer prefix sequences, so one linear scan with running minima and
maxima finds the supremum exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError
from .modular import PRIME_SWEEP_CAP, WORD_CAP, _as_q, primes_in, sqrt_mod


@dataclass(frozen=True)
class PointMultiset:
    """Multiset of exact rationals in [0,1): sorted distinct values with multiplicities."""

    values: tuple  # sorted distinct Fractions
    mults: tuple  # positive ints, aligned with values

    @classmethod
    def of(cls, points) -> "PointMultiset":
        counter: dict = {}
        for p in points:
            f = Fraction(p)
            if not (0 <= f < 1):
                raise ValueError(f"point {f} outside [0,1)")
            counter[f] = counter.get(f, 0) + 1
        vals = tuple(sorted(counter))
        return cls(vals, tuple(counter[v] for v in vals))

    @property
    def size(self) -> int:
        return sum(self.mults)

    def export_lines(self) -> str:
        """One "numerator denominator multiplicity" line per distinct point, sorted."""
        return "\n".join(
            f"{v.numerator} {v.denominator} {m}" for v, m in zip(self.values, self.mults)
        )


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
    m = len(P.values)
    if m == 0:
        return DiscrepancyResult(Fraction(0), "empty")
    vals = P.values
    N = P.size
    D = math.lcm(*(v.denominator for v in vals))
    dtype = np.int64 if 2 * N * D < WORD_CAP else object
    scaled = np.array([v.numerator * (D // v.denominator) for v in vals], dtype=dtype)
    below = np.zeros(m + 1, dtype=dtype)  # below[i] = number of points < v_i
    below[1:] = np.cumsum(np.array(P.mults, dtype=dtype))
    # with X_i = D*below[i] - N*V_i and Y_i = X_i + D*mult_i, D times the
    # excess of [v_i, v_j+) is Y_j - X_i (i <= j), and D times the deficit of
    # (v_i, v_j) is Y_i - X_j (i < j), of [0, v_j) is -X_j, of (v_i, 1) is Y_i
    X = D * below[:-1] - N * scaled
    Y = D * below[1:] - N * scaled
    j = int(np.argmax(Y - np.minimum.accumulate(X)))
    i = int(np.argmin(X[: j + 1]))
    candidates = [(Y[j] - X[i], f"excess [{vals[i]}, {vals[j]}+)")]
    if m > 1:
        j = int(np.argmax(np.maximum.accumulate(Y)[:-1] - X[1:])) + 1
        i = int(np.argmax(Y[:j]))
        candidates.append((Y[i] - X[j], f"deficit ({vals[i]}, {vals[j]})"))
    j = int(np.argmin(X))
    candidates.append((-X[j], f"deficit [0, {vals[j]})"))
    i = int(np.argmax(Y))
    candidates.append((Y[i], f"deficit ({vals[i]}, 1)"))
    best = max(value for value, _ in candidates)
    witness = next(w for value, w in candidates if value == best)
    return DiscrepancyResult(Fraction(int(best), D), witness)


@dataclass(frozen=True)
class PrimeRootsResult:
    q: int
    P: int
    points: PointMultiset
    certificates: tuple  # (x, p) pairs: x^2 = p mod q, p prime <= P
    result: DiscrepancyResult

    @property
    def value(self) -> Fraction:
        return self.result.value


def prime_roots_discrepancy(q, P: int) -> PrimeRootsResult:
    """Discrepancy of the multiset { x/q : x^2 = p (mod q), p prime <= P }."""
    q = _as_q(q)
    if P > PRIME_SWEEP_CAP:
        raise CapacityError(f"P exceeds sieve capacity {PRIME_SWEEP_CAP}")
    points = []
    certs = []
    for p in primes_in(2, P) if P >= 2 else []:
        for x in sqrt_mod(p % q, q):
            points.append(Fraction(x, q))
            certs.append((x, p))
    ms = PointMultiset.of(points)
    return PrimeRootsResult(q, P, ms, tuple(certs), discrepancy(ms))


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
