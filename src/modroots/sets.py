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
            and bool((m[1:] > m[:-1]).all())
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


_LIMB_CHUNK = 1 << 16  # entries per limb split: four 16-bit limb rows of 512 KiB each


def _limbs(x: np.ndarray) -> np.ndarray:
    """Rows r_0..r_3 with x = sum_k r_k * 2^(16k): three 16-bit limbs and a signed top limb."""
    return np.stack([(x >> s) & 0xFFFF for s in (0, 16, 32)] + [x >> 48])


def _exact_dot(x: np.ndarray, y: np.ndarray, term_bound: int) -> int:
    """sum x_i * y_i of int64 arrays, exactly, given every |x_i * y_i| <= term_bound.

    One int64 dot when len(x) * term_bound fits in a word.  Otherwise x and y are
    split into 16-bit limbs, chunk by chunk: every limb product is below 2^32 in
    magnitude, so the 4 x 4 limb dots of a chunk stay below 2^48, and they are
    combined as Python ints.
    """
    if len(x) * term_bound < _WORD_CAP:
        return int(np.dot(x, y))
    total = 0
    for i in range(0, len(x), _LIMB_CHUNK):
        xs = _limbs(x[i : i + _LIMB_CHUNK])
        gram = xs @ (xs if y is x else _limbs(y[i : i + _LIMB_CHUNK])).T
        total += sum(int(gram[a, b]) << (16 * (a + b)) for a in range(4) for b in range(4))
    return total


def _exact_sums(x: np.ndarray, bound: int) -> list:
    """The sums along the last axis of an int64 array, shorter than 2^31 there,
    exactly, as one Python int a row, given every |x_i| <= bound."""
    if x.shape[-1] * bound < _WORD_CAP:
        return x.sum(axis=-1).reshape(-1).tolist()
    # |x >> 31| <= 2^32 and 0 <= x & (2^31 - 1) < 2^31: neither sum can wrap
    hi, lo = (y.sum(axis=-1).reshape(-1).tolist() for y in (x >> 31, x & ((1 << 31) - 1)))
    return [(h << 31) + l for h, l in zip(hi, lo)]


@dataclass(frozen=True, eq=False)
class RepFn:
    """Exact nonnegative-integer counts over Z_q (difference or sum representations).

    counts is a read-only numpy array: int64 when every count is below 2^62,
    dtype object (exact Python ints) otherwise.  Sums of int64 counts are exact
    int64 reductions: one pass when the a-priori bound q * max (or q * max^2)
    fits in a word, split into limbs that cannot wrap otherwise.
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
        if self.counts.dtype == np.int64:
            return _exact_sums(self.counts, self._peak())[0]
        return sum(self.counts.tolist())

    def square_sum(self) -> int:
        if self.counts.dtype == np.int64:
            return _exact_dot(self.counts, self.counts, self._peak() ** 2)
        return sum(c * c for c in self.counts.tolist())
