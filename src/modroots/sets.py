"""Subsets of Z_q and exact representation-count vectors.

IndicatorSet is the universal input type for the energy and uniformity-norm
computations: its residues are one sorted, distinct, read-only int64 array.
RepFn holds exact nonnegative integer counts indexed by residue, as an int64
array (dtype object above 2^62).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class IndicatorSet:
    """A subset of Z_q: members is a sorted, distinct, read-only int64 array in [0, q).

    A strictly increasing int64 array is adopted after one O(n) check; any
    other iterable of integers is sorted and deduplicated.
    """

    q: int
    members: np.ndarray

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("modulus must be >= 1")
        m = self.members
        if not (
            isinstance(m, np.ndarray) and m.dtype == np.int64 and m.ndim == 1
            and bool(np.all(m[1:] > m[:-1]))
        ):
            m = sorted({int(x) for x in m})
        if len(m) and (m[0] < 0 or m[-1] >= self.q):
            raise ValueError(f"residues {m[0]}..{m[-1]} outside [0, {self.q})")
        m = m.view() if isinstance(m, np.ndarray) else np.array(m, dtype=np.int64)
        m.flags.writeable = False
        object.__setattr__(self, "members", m)

    @classmethod
    def of(cls, q: int, elements) -> "IndicatorSet":
        return cls(q, {x % q for x in elements})

    @property
    def cardinality(self) -> int:
        return len(self.members)

    def __eq__(self, other):
        if not isinstance(other, IndicatorSet):
            return NotImplemented
        return self.q == other.q and np.array_equal(self.members, other.members)

    __hash__ = None

    def vector(self) -> np.ndarray:
        """Membership vector of length q (int64 0/1)."""
        vec = np.zeros(self.q, dtype=np.int64)
        vec[self.members] = 1
        return vec


_INT64_COUNT_CAP = 1 << 62
_WORD_CAP = 1 << 63


def _as_array(x) -> np.ndarray:
    """int64 or object array of the entries of x; never an inferred dtype, which
    would be uint64 for [2**63] and float64 for [2**63, -1]."""
    if isinstance(x, np.ndarray) and x.dtype in (np.int64, object):
        return x
    arr = np.array(list(x), dtype=object)
    try:
        return arr.astype(np.int64)
    except OverflowError:
        return arr


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
        counts = _as_array(self.counts)
        small = not counts.size or counts.max() < _INT64_COUNT_CAP
        counts = counts.astype(np.int64 if small else object, copy=False).view()
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
