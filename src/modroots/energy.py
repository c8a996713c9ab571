"""Exact difference/sum representation counts and additive energies of root sets.

tuple_energy computes the number of 2*nu tuples of elements of the preimage
set A = {x in F_q^* : j*x^k in {1..N}} whose nu-fold sums agree mod q;
set_energy is the nu = 2 case for a general target set.  Every pair count,
here and in gowers.py, comes from one kernel over a ragged stack of sets,
_pair_counts: it routes each row by _by_pairs to a pair bincount (sparse) or
to one certified float FFT a block of 0/1 rows (dense).  cyclic_convolve
squares the pair counts for nu >= 3.

max_energy_over_j and prime_averaged_energy read every coset of a prime at
once.  With g_k = gcd(k, q - 1), j^-1 n is a k-th power iff
ind n = ind j (mod g_k), so the classes c = ind n mod g_k split n = 1..N
among the cosets, and E_k(N; j, q) depends only on the class of j.
_coset_energies gathers each class's roots from index_table(q) and scores
all classes as one _pair_counts stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import _float_convolve, _padded_length, cyclic_convolve
from .errors import CapacityError
from .modular import PRIME_SWEEP_CAP, WORD_CAP, _as_q, index_table, kth_root_set, preimage_set, primes_in
from .sets import IndicatorSet, RepFn, _exact_dot

# Representation counts of n elements mod q come from a bincount of the n^2
# pairs or from one float FFT of length L = 2^ceil(log2(2q - 1)), whichever the
# measured costs favour (2-vCPU VM): the bincount takes about 8 ns a pair, and
# overtakes the FFT near n^2 = 7q..16q for q = 10^3..4*10^5.  Pair arrays are
# capped at _BINCOUNT_PAIR_LIMIT entries (32 MiB); a stack of sets goes in
# blocks of _PAIR_BATCH pairs or FFT entries, kept in cache.
_PAIRS_PER_RESIDUE = 16
_BINCOUNT_PAIR_LIMIT = 1 << 22
_PAIR_BATCH = 1 << 16


def _pair_limit(q: int) -> int:
    """The most pairs a set mod q takes through the bincount."""
    return min(_PAIRS_PER_RESIDUE * q, _BINCOUNT_PAIR_LIMIT)


def _by_pairs(n, q: int):
    return n * n <= _pair_limit(q)


def _pair_counts(x: np.ndarray, sizes: np.ndarray, q: int, negate: bool = False):
    """Yields the pair counts of a ragged stack of sets mod q, as int64 blocks [b, q].

    Row r is the next sizes[r] members of x, distinct, and counts its pairs
    (a, b) by a + b mod q, or by a - b = a + (q - b) when negate.  A row that
    passes _by_pairs is sparse: the pairs of a block's sparse rows are one
    np.repeat of a and one gather of b, unpadded (a broadcast sum for one row),
    and one np.bincount takes them with an offset of q bins a row.  The dense
    rows of a block are scored by _dense_counts.  A block holds at most
    _PAIR_BATCH pairs (a dense row counts L) and _BINCOUNT_PAIR_LIMIT bins, or
    one row.
    """
    ends = sizes.cumsum()
    sparse = _by_pairs(sizes, q)
    kinds = sparse.tolist()  # per-block tests on a list cost no numpy call
    cost = np.where(sparse, sizes * sizes, _padded_length(q)).cumsum()
    partner = q - x if negate else x
    lo, rows = 0, len(sizes)
    while lo < rows:
        hi = int(cost.searchsorted((cost[lo - 1] if lo else 0) + _PAIR_BATCH, "right"))
        hi = max(lo + 1, min(hi, lo + _BINCOUNT_PAIR_LIMIT // q))
        a, b = int(ends[lo] - sizes[lo]), int(ends[hi - 1])
        n = sizes[lo:hi]
        if not any(kinds[lo:hi]):
            block = _dense_counts(x[a:b], n, q, negate)
        else:
            if hi - lo == 1:
                t = (x[a:b, None] + partner[a:b]).ravel()
            else:
                m = n * sparse[lo:hi]  # each member of a sparse row pairs with every member of its row
                reps = m.repeat(n)
                # member i's pairs start at first[i], and its row's members at start[i]
                first, start = reps.cumsum() - reps, (n.cumsum() - n).repeat(n)
                t = x[a:b].repeat(reps)
                t += partner[a:b][np.arange(len(t)) - (first - start).repeat(reps)]
            u = t.view(np.uint64)
            np.minimum(u, u - np.uint64(q), out=u)  # t mod q: below q, t - q wraps above t
            if hi - lo > 1:
                t += (q * np.arange(hi - lo)).repeat(m * m)
            block = np.bincount(t, minlength=(hi - lo) * q).reshape(hi - lo, q)
            if not all(kinds[lo:hi]):
                dense = ~sparse[lo:hi]
                block[dense] = _dense_counts(x[a:b][dense.repeat(n)], n[dense], q, negate)
        yield block
        lo = hi


def _dense_counts(x: np.ndarray, sizes: np.ndarray, q: int, negate: bool) -> np.ndarray:
    """_pair_counts of dense rows as 0/1 rows, from F^2, or |F|^2 when negate, for
    F their rfft of length L: one certified convolve._float_convolve for all of
    them, CapacityError when Percival's bound fails."""
    ind = np.zeros((len(sizes), q), dtype=np.int64)
    ind[np.arange(len(sizes)).repeat(sizes), x] = 1
    counts = _float_convolve(ind, ind, negate)
    if counts is None:
        raise CapacityError(f"0/1 rows of length {q} exceed the float error bound")
    return counts


def _pair_energies(x: np.ndarray, sizes: np.ndarray, q: int, negate: bool = False) -> np.ndarray:
    """The square sum sum_s r(s)^2 of each row's _pair_counts r: an int64 array
    while q n^2 < 2^63 for the largest row size n (every r(s) <= n), else an
    object array of exact Python ints."""
    peak = int(sizes.max(initial=0))
    blocks = _pair_counts(x, sizes, q, negate)
    if q * peak * peak >= WORD_CAP:
        return np.array([_exact_dot(r, r, peak * peak) for b in blocks for r in b], dtype=object)
    return np.concatenate([np.zeros(0, dtype=np.int64)] + [np.einsum("rs,rs->r", b, b) for b in blocks])


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
    return RepFn(A.q, _pair_sum_counts(A, negate=True))


def sum_rep(A: IndicatorSet, nu: int) -> RepFn:
    """counts(d) = #{(a1..a_nu) in A^nu : a1 + ... + a_nu = d (mod q)}."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    q = A.q
    if nu == 1:
        return RepFn(q, A.vector())
    if nu == 2:
        return RepFn(q, _pair_sum_counts(A))
    half = sum_rep(A, nu // 2).counts
    acc = cyclic_convolve(half, half)
    if nu % 2 == 1:
        acc = cyclic_convolve(acc, A.vector())
    return RepFn(q, acc)


def _pair_sum_counts(A: IndicatorSet, negate: bool = False):
    """The counts of a1 + a2 over (a1, a2) in A^2, or of a1 - a2 when negate."""
    return next(_pair_counts(A.members, np.array([A.cardinality]), A.q, negate))[0]


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
    c: distinct and nonzero, so they need no dedup.  The classes are the rows
    of one _pair_counts stack, held as one array of g_k * min(N, q - 1) roots.
    """
    table = index_table(q)
    gk = math.gcd(k, q - 1)
    iv = table.ind[1 : min(N, q - 1) + 1].astype(np.int64)
    iv = iv[np.argsort(iv % gk, kind="stable")]  # grouped by class
    sizes = np.bincount(iv % gk, minlength=gk) * gk  # roots a class
    return _pair_energies(table.power_roots(iv // gk, k).ravel(), sizes, q)


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
