"""Exact difference/sum representation counts and additive energies of root sets.

tuple_energy computes the number of 2*nu tuples of elements of the preimage
set A = {x in F_q^* : j*x^k in {1..N}} whose nu-fold sums agree mod q;
set_energy is the nu = 2 case for a general target set.  Representation
counts come from a pair bincount or from cyclic_convolve, which reaches every
q the residue tables allow.

max_energy_over_j and prime_averaged_energy read every coset of a prime at
once.  With g_k = gcd(k, q - 1), j^-1 n is a k-th power iff
ind n = ind j (mod g_k), so the classes c = ind n mod g_k split n = 1..N
among the cosets, and E_k(N; j, q) depends only on the class of j.
_coset_energies gathers each class's roots from index_table(q) and takes the
pair sums of all sparse classes in one bincount, with a bin offset per class;
a dense class goes through energy_of like any other set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import NAIVE_THRESHOLD, cyclic_convolve
from .errors import CapacityError
from .modular import PRIME_SWEEP_CAP, WORD_CAP, _as_q, index_table, kth_root_set, preimage_set, primes_in
from .sets import IndicatorSet, RepFn

# Representation counts of n elements mod q come from a bincount of the n^2
# pairs or from cyclic_convolve, whichever the measured costs favour (2-vCPU
# VM): the bincount takes about 8 ns a pair; the naive convolution (q <=
# NAIVE_THRESHOLD) overtakes it near n^2 = q^2 / 8, and the float FFT near
# n^2 = 7q..16q for q = 10^3..4*10^5.  The pair array itself is capped at
# _BINCOUNT_PAIR_LIMIT entries (32 MiB).
_PAIRS_PER_RESIDUE = 16
_BINCOUNT_PAIR_LIMIT = 1 << 22


def _pair_limit(q: int) -> int:
    """The most pairs a set mod q takes through the bincount."""
    limit = q * q // 8 if q <= NAIVE_THRESHOLD else _PAIRS_PER_RESIDUE * q
    return min(limit, _BINCOUNT_PAIR_LIMIT)


def _by_pairs(n: int, q: int) -> bool:
    return n * n <= _pair_limit(q)


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


def _coset_energies(k: int, N: int, q: int) -> np.ndarray:
    """E_k(N; g^c, q) for every class c < g_k = gcd(k, q - 1), g = index_table(q).g.

    j^-1 n is a k-th power iff ind n = ind j (mod g_k), so the classes
    c = ind n mod g_k split n = 1..min(N, q - 1) among the cosets, and the
    set of j = g^c is the g_k roots of x^k = g^(ind n - c) for each n of class
    c: distinct and nonzero, so they need no dedup.  A class that fails
    _by_pairs goes through energy_of, so memory stays bounded at N near q.
    The others lay their roots out as [class, slot] rows padded with 2q, and a
    batch of rows takes its pair sums from one bincount of q + 1 bins a row:
    the sums s and s + q share bin s, and every pair with a pad lands in bin q.
    """
    table = index_table(q)
    gk = math.gcd(k, q - 1)
    iv = table.ind[1 : min(N, q - 1) + 1].astype(np.int64)
    cls = iv % gk
    sizes = np.bincount(cls, minlength=gk)
    size = int(sizes.max())
    energies = np.zeros(gk, dtype=np.int64 if (gk * size) ** 3 < WORD_CAP else object)

    if gk * size > math.isqrt(_pair_limit(q)):
        dense = sizes * gk > math.isqrt(_pair_limit(q))
        for c in np.flatnonzero(dense).tolist():
            roots = table.power_roots(iv[cls == c] // gk, k).ravel()
            energies[c] = energy_of(IndicatorSet(q, np.sort(roots)))
        keep = ~dense[cls]
        iv, cls = iv[keep], cls[keep]
        if not len(iv):
            return energies
        size = int(sizes[~dense].max())
    order = np.argsort(cls, kind="stable")
    iv, cls = iv[order], cls[order]  # grouped by class
    rank = np.arange(len(iv)) - np.searchsorted(cls, cls)
    per_batch = max(1, _BINCOUNT_PAIR_LIMIT // max((gk * size) ** 2, q + 1))
    for lo in range(0, gk, per_batch):
        rows = min(per_batch, gk - lo)
        a, b = np.searchsorted(cls, (lo, lo + rows))
        if a == b:  # only dense or empty classes
            continue
        slots = np.full((rows, size, gk), 2 * q, dtype=np.int64)
        slots[cls[a:b] - lo, rank[a:b]] = table.power_roots(iv[a:b] // gk, k)
        slots = slots.reshape(rows, size * gk)
        sums = slots[:, :, None] + slots[:, None, :]  # real sums 2..2q-2, pad sums > 2q
        np.minimum(sums, 2 * q, out=sums)
        np.subtract(sums, q, out=sums, where=sums >= q)
        sums += (q + 1) * np.arange(rows)[:, None, None]
        reps = np.bincount(sums.ravel(), minlength=rows * (q + 1)).reshape(rows, q + 1)[:, :q]
        energies[lo : lo + rows] += np.einsum("cs,cs->c", reps, reps)  # dense and empty rows add 0
    return energies


def max_energy_over_j(k: int, N: int, q):
    """max_j E_k(N; j, q) and an argmax j.

    By dilation invariance E_k(N; j, q) depends only on the coset of j mod the
    k-th powers, that is on the class ind j mod g_k that _coset_energies
    indexes; the argmax is the first maximising least coset representative
    from power_coset_reps.
    """
    q = _as_q(q)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 1 <= N <= q:
        raise ValueError("N must satisfy 1 <= N <= q")
    energies = _coset_energies(k, N, q)
    ind = index_table(q).ind
    best, best_j = 0, 1
    for j in power_coset_reps(k, q):
        e = int(energies[ind[j] % len(energies)])
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
    if Q < 2:
        raise ValueError(f"the prime average needs Q >= 2, got Q={Q}")
    if not 1 <= N <= Q:
        raise ValueError("requires 1 <= N <= Q")
    if Q > PRIME_SWEEP_CAP:
        raise CapacityError(f"Q exceeds sieve capacity {PRIME_SWEEP_CAP}")
    lo = (Q + 1) // 2  # dyadic: Q/2 <= q < Q
    qs = primes_in(lo, Q - 1)
    total = sum(int(_coset_energies(k, min(N, q), q).max()) for q in qs)
    value = math.log(Q) / Q * total
    return PrimeAverageResult(k, N, Q, tuple(qs), total, value)
