"""Subsets of Z_q and exact representation-count vectors.

IndicatorSet is the universal input type for the energy and uniformity-norm
computations; RepFn holds exact nonnegative integer counts indexed by residue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IndicatorSet:
    """A subset of Z_q, stored as a frozenset of residues in [0, q)."""

    q: int
    members: frozenset

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("modulus must be >= 1")
        if not isinstance(self.members, frozenset):
            object.__setattr__(self, "members", frozenset(self.members))
        for r in self.members:
            if not (0 <= r < self.q):
                raise ValueError(f"residue {r} outside [0, {self.q})")

    @classmethod
    def of(cls, q: int, elements) -> "IndicatorSet":
        return cls(q, frozenset(x % q for x in elements))

    @property
    def cardinality(self) -> int:
        return len(self.members)

    def __contains__(self, r: int) -> bool:
        return r % self.q in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def vector(self) -> list:
        """Membership vector of length q (0/1 ints)."""
        vec = [0] * self.q
        for r in self.members:
            vec[r] = 1
        return vec

    def array(self) -> np.ndarray:
        return np.fromiter(sorted(self.members), dtype=np.int64, count=len(self.members))

    def shift(self, s: int) -> "IndicatorSet":
        """The set A - s = {a - s : a in A}."""
        return IndicatorSet(self.q, frozenset((a - s) % self.q for a in self.members))

    def dilate(self, u: int) -> "IndicatorSet":
        return IndicatorSet(self.q, frozenset((a * u) % self.q for a in self.members))


_INT64_COUNT_CAP = 1 << 62
_WORD_CAP = 1 << 63


@dataclass(frozen=True, eq=False)
class RepFn:
    """Exact nonnegative-integer counts over Z_q (difference or sum representations).

    counts is a read-only numpy array: int64 when every count is below 2^62,
    dtype object (exact Python ints) otherwise.  Sums take the int64 fast path
    only when the a-priori bound q * max (or q * max^2) fits in a word.
    """

    q: int
    counts: np.ndarray

    def __post_init__(self):
        counts = self.counts
        if not (isinstance(counts, np.ndarray) and counts.dtype == np.int64):
            counts = [int(c) for c in counts]
            small = max(counts, default=0) < _INT64_COUNT_CAP
            counts = np.array(counts, dtype=np.int64 if small else object)
        elif counts.size and int(counts.max()) >= _INT64_COUNT_CAP:
            counts = counts.astype(object)
        else:
            counts = counts.view()
        if counts.shape != (self.q,):
            raise ValueError("counts length must equal q")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def __getitem__(self, d: int) -> int:
        return int(self.counts[d % self.q])

    def _peak(self) -> int:
        return int(self.counts.max()) if self.q else 0

    def total(self) -> int:
        if self.counts.dtype == np.int64 and self._peak() * self.q < _WORD_CAP:
            return int(self.counts.sum())
        return sum(self.counts.tolist())

    def square_sum(self) -> int:
        if self.counts.dtype == np.int64 and self._peak() ** 2 * self.q < _WORD_CAP:
            return int(np.dot(self.counts, self.counts))
        return sum(c * c for c in self.counts.tolist())
