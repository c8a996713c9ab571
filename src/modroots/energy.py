"""Exact difference/sum representation counts and additive energies of root sets.

tuple_energy computes the number of 2*nu tuples of elements of the preimage
set A = {x in F_q^* : j*x^k in {1..N}} whose nu-fold sums agree mod q;
set_energy is the nu = 2 case for a general target set.  Representation
counts come from a pair bincount or from cyclic_convolve, which reaches every
q the residue tables allow; max_energy_over_j scans one j per power coset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import NAIVE_THRESHOLD, cyclic_convolve
from .errors import CapacityError
from .modular import PRIME_SWEEP_CAP, _as_q, kth_root_set, preimage_set, primes_in
from .sets import IndicatorSet, RepFn

# Representation counts of n elements mod q come from a bincount of the n^2
# pairs or from cyclic_convolve, whichever the measured costs favour (2-vCPU
# VM): the bincount takes about 8 ns a pair; the naive convolution (q <=
# NAIVE_THRESHOLD) overtakes it near n^2 = q^2 / 8, and the float FFT near
# n^2 = 7q..16q for q = 10^3..4*10^5.  The pair array itself is capped at
# _BINCOUNT_PAIR_LIMIT entries (32 MiB).
_PAIRS_PER_RESIDUE = 16
_BINCOUNT_PAIR_LIMIT = 1 << 22


def _by_pairs(n: int, q: int) -> bool:
    limit = q * q // 8 if q <= NAIVE_THRESHOLD else _PAIRS_PER_RESIDUE * q
    return n * n <= min(limit, _BINCOUNT_PAIR_LIMIT)


@dataclass(frozen=True)
class EnergyQuery:
    nu: int
    k: int
    N: int
    j: int
    q: int

    def __post_init__(self):
        q = _as_q(self.q)
        if self.nu < 1 or self.k < 1:
            raise ValueError("nu and k must be >= 1")
        if not (1 <= self.N <= q):
            raise ValueError("N must satisfy 1 <= N <= q")
        if self.j % q == 0:
            raise ValueError("j must be nonzero mod q")


def difference_rep(A: IndicatorSet) -> RepFn:
    """counts(d) = #{(a1, a2) in A^2 : a1 - a2 = d (mod q)}."""
    q = A.q
    n = A.cardinality
    if n == 0:
        return RepFn(q, np.zeros(q, dtype=np.int64))
    if _by_pairs(n, q):
        arr = A.members
        diffs = (arr[:, None] - arr[None, :]) % q
        return RepFn(q, np.bincount(diffs.ravel(), minlength=q))
    rev = np.zeros(q, dtype=np.int64)
    rev[(-A.members) % q] = 1
    return RepFn(q, cyclic_convolve(A.vector(), rev))


def sum_rep(A: IndicatorSet, nu: int) -> RepFn:
    """counts(d) = #{(a1..a_nu) in A^nu : a1 + ... + a_nu = d (mod q)}."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    q = A.q
    if A.cardinality == 0:
        return RepFn(q, np.zeros(q, dtype=np.int64))
    if nu == 1:
        return RepFn(q, A.vector())
    if nu == 2:
        return RepFn(q, _pair_sum_counts(A))
    half = sum_rep(A, nu // 2).counts
    acc = cyclic_convolve(half, half)
    if nu % 2 == 1:
        acc = cyclic_convolve(acc, A.vector())
    return RepFn(q, acc)


def _pair_sum_counts(A: IndicatorSet):
    q = A.q
    n = A.cardinality
    if _by_pairs(n, q):
        arr = A.members
        sums = (arr[:, None] + arr[None, :]) % q
        return np.bincount(sums.ravel(), minlength=q)
    ind = A.vector()
    return cyclic_convolve(ind, ind)


def energy_of(A: IndicatorSet, nu: int = 2) -> int:
    """Number of 2*nu-tuples in A with matching nu-fold sums."""
    return sum_rep(A, nu).square_sum()


def tuple_energy(query: EnergyQuery) -> int:
    A = preimage_set(query.j, query.k, query.N, query.q)
    return energy_of(A, query.nu)


def set_energy(target: IndicatorSet, k: int, q) -> int:
    """Additive energy of { b in F_q : b^k in target }."""
    q = _as_q(q)
    if target.q != q:
        raise ValueError("target modulus mismatch")
    if target.cardinality == 0:
        return 0
    return energy_of(IndicatorSet(q, kth_root_set(target.members, k, q)), 2)


def power_coset_reps(k: int, q) -> list:
    """The least representative j of each coset of the k-th power subgroup of F_q^*.

    The k-th powers form the subgroup of index g = gcd(k, q-1), which is the
    kernel of x -> x^((q-1)/g); so j opens a new coset exactly when its image
    under that map is new.  Reps come in ascending order.
    """
    q = _as_q(q)
    g = math.gcd(k, q - 1)
    e = (q - 1) // g
    reps = []
    seen = set()
    j = 0
    while len(reps) < g:
        j += 1
        c = pow(j, e, q)
        if c not in seen:
            seen.add(c)
            reps.append(j)
    return reps


def max_energy_over_j(k: int, N: int, q):
    """max_j E_k(N; j, q) and an argmax j.

    By dilation invariance the max over all j equals the max over one
    representative per coset of the k-th powers.
    """
    q = _as_q(q)
    best, best_j = 0, 1
    for j in power_coset_reps(k, q):
        e = tuple_energy(EnergyQuery(2, k, N, j, q))
        if e > best:
            best, best_j = e, j
    return best, best_j


@dataclass(frozen=True)
class PrimeAverageResult:
    """Exact total of per-prime maxima plus the log-scaled average.

    value = (log Q / Q) * total; the total itself is an exact integer since
    the scale factor is irrational.
    """

    k: int
    N: int
    Q: int
    primes: tuple
    total: int
    value: float


def prime_averaged_energy(k: int, N: int, Q: int) -> PrimeAverageResult:
    """(log Q / Q) * sum over primes q in [Q/2, Q) of max_j E_k(N; j, q)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if N > Q:
        raise ValueError("requires N <= Q")
    if Q > PRIME_SWEEP_CAP:
        raise CapacityError(f"Q exceeds sieve capacity {PRIME_SWEEP_CAP}")
    lo = (Q + 1) // 2  # dyadic: Q/2 <= q < Q
    qs = primes_in(lo, Q - 1)
    total = 0
    for q in qs:
        n_eff = min(N, q)
        total += max_energy_over_j(k, n_eff, q)[0]
    value = math.log(Q) / Q * total if Q > 1 else 0.0
    return PrimeAverageResult(k, N, Q, tuple(qs), total, value)
