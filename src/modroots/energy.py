"""Exact difference/sum representation counts and additive energies of root sets.

tuple_energy computes the number of 2*nu tuples of elements of the preimage
set A = {x in F_q^* : j*x^k in {1..N}} whose nu-fold sums agree mod q;
set_energy is the nu = 2 case for a general target set.  The pair counts of
one set are a bincount of its pair sums, or one certified float FFT when the
set is dense (_pair_sum_counts); cyclic_convolve squares them for nu >= 3.
Every energy of a stack of sets, here and in gowers.py, comes from one
kernel, _pair_energies: a stack has one modulus or one a row, sparse rows count
their pair sums by a bincount when the stack has one modulus and by a sort, with
no q-sized array, when it has one a row, and dense rows go through the FFT a
modulus at a time.

max_energy_over_j and prime_averaged_energy read every coset of every prime
at once, with no discrete-log table.  With g_k = gcd(k, q - 1), j^-1 n is a
k-th power iff n and j have the same power-residue symbol n^((q-1)/g_k), so
the symbol splits n = 1..N among the cosets, and E_k(N; j, q) depends only
on the class of j.  _coset_energies labels every (q, n) by its symbol in one
square-and-multiply pass, takes every class's roots from one root_rows call
with a modulus a row, and scores every (prime, class) as a row of one
_pair_energies stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import _float_convolve, _padded_length, cyclic_convolve
from .errors import CapacityError
from .modular import (
    PRIME_SWEEP_CAP, ROOT_TABLE_CAP, WORD_CAP, _as_q, _power, kth_root_set, preimage_set, primes_in, root_rows,
)
from .sets import IndicatorSet, RepFn, _exact_dot

# Representation counts of n elements mod q come from the n^2 pairs or from one
# float FFT of length L = 2^ceil(log2(2q - 1)), whichever the measured costs
# favour (2-vCPU VM): a pair costs about 8 ns, and the pairs overtake the FFT
# near n^2 = 7q..16q for q = 10^3..4*10^5.  Pair arrays are capped at
# _BINCOUNT_PAIR_LIMIT entries (32 MiB); a stack of sets goes in blocks of
# _PAIR_BATCH pairs or FFT entries, kept in cache, and the class stage of the
# prime average takes _PAIR_BATCH roots a batch (never less than one prime),
# which keeps prime_averaged_energy(3, 30, 10**6) near 42 MiB peak RSS.  A
# stack of one modulus bincounts its sparse rows, q bins a row: on the Gowers
# stacks of q = 31, 61, 503 and 2003 that took 0.3-0.8 times the sort's time,
# with up to 4 bins a pair.  A stack of a modulus a row sorts them, and no array
# has q entries: on the class stacks of the prime average at Q = 2000 (67 to
# 268 rows, 1.5 to 23 bins a pair) the sort took 8.0 ms in all against 9.7 ms
# for a bincount of max q bins a row.
_PAIRS_PER_RESIDUE = 16
_BINCOUNT_PAIR_LIMIT = 1 << 22
_PAIR_BATCH = 1 << 16


def _pair_limit(q):
    """The most pairs a set mod q takes through the pair count (elementwise for an array q)."""
    return np.minimum(_PAIRS_PER_RESIDUE * q, _BINCOUNT_PAIR_LIMIT)


def _by_pairs(n, q):
    return n * n <= _pair_limit(q)


def _members(rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The index of the members of `rows` in a stack of rows of `sizes`, members row after row."""
    n = sizes[rows]
    return np.arange(n.sum()) + ((sizes.cumsum() - sizes)[rows] - (n.cumsum() - n)).repeat(n)


def _pair_sums(x: np.ndarray, q: int, negate: bool) -> np.ndarray:
    """a + b mod q, or a - b = a + (q - b) when negate, over the pairs of one set x, by one broadcast."""
    t = (x[:, None] + (q - x if negate else x)).ravel()
    u = t.view(np.uint64)
    np.minimum(u, u - np.uint64(q), out=u)  # t mod q: below q, t - q wraps above t
    return t


def _binned_energies(x: np.ndarray, n: np.ndarray, q: int, negate: bool) -> np.ndarray:
    """Energies of one block of sparse rows mod one q by a bincount: sizes n >= 1,
    members x row after row.

    The pairs (a, b) of each row are one np.repeat of a and one gather of b, unpadded,
    or one _pair_sums broadcast for a block of one row; a + b, or a - b = a + (q - b)
    when negate, is reduced mod q and keyed by q bins a row, and one np.bincount
    counts them.
    """
    if len(n) == 1:
        t = _pair_sums(x, q, negate)
    else:
        reps = n.repeat(n)  # each member pairs with every member of its row
        # member i's pairs start at first[i], and its row's members at start[i]
        first, start = reps.cumsum() - reps, (n.cumsum() - n).repeat(n)
        t = x.repeat(reps)
        t += (q - x if negate else x)[np.arange(len(t)) - (first - start).repeat(reps)]
        u = t.view(np.uint64)
        np.minimum(u, u - np.uint64(q), out=u)  # t mod q: below q, t - q wraps above t
        t += (q * np.arange(len(n))).repeat(n * n)
    c = np.bincount(t, minlength=len(n) * q).reshape(len(n), q)
    return np.einsum("rs,rs->r", c, c)


def _sorted_energies(x: np.ndarray, n: np.ndarray, q: np.ndarray, negate: bool) -> np.ndarray:
    """Energies of one block of sparse rows by a sort: sizes n >= 1, ascending, moduli q,
    members x row after row.

    The rows are padded to the widest, W, with a value above every pair sum, and one
    broadcast gives each row's W^2 sums a + b, or a - b = a + (q - b) when negate,
    reduced mod its q.  Every pad sum is set to one value, max q, and each row is
    sorted: its sums of members come first, its pad sums form one run after them, and
    sum_s r(s)^2 is the sum of the squared run lengths less that of the pad run.  No
    array has q entries.
    """
    rows, width = len(n), int(n[-1])
    dtype, unsigned = (np.int32, np.uint32) if q.max() < 1 << 28 else (np.int64, np.uint64)
    pad = np.iinfo(dtype).max // 3  # two pads sum below the dtype's limit
    a = np.full((rows, width), pad, dtype=dtype)
    a[np.arange(rows).repeat(n), np.arange(len(x)) - (n.cumsum() - n).repeat(n)] = x
    m = q[:, None].astype(dtype)
    b = np.where(a == pad, pad, m - a) if negate else a
    t = (a[:, :, None] + b[:, None, :]).reshape(rows, width * width)
    u = t.view(unsigned)
    np.minimum(u, u - m.astype(unsigned), out=u)  # t mod q: below q, t - q wraps above t
    np.minimum(t, q.max(), out=t)
    t.sort(axis=1)
    new = np.empty(t.shape, dtype=bool)
    new[:, 0] = True
    np.not_equal(t[:, 1:], t[:, :-1], out=new[:, 1:])
    runs = np.count_nonzero(new, axis=1)
    lengths = np.diff(np.flatnonzero(new), append=t.size)
    return np.add.reduceat(lengths * lengths, runs.cumsum() - runs) - (width * width - n * n) ** 2


def _dense_counts(x: np.ndarray, sizes: np.ndarray, q: int, negate: bool) -> np.ndarray:
    """The pair counts of dense rows mod q as 0/1 rows, from F^2, or |F|^2 when negate, for
    F their rfft of length L: one certified convolve._float_convolve for all of
    them, CapacityError when Percival's bound fails."""
    ind = np.zeros((len(sizes), q), dtype=np.int64)
    ind[np.arange(len(sizes)).repeat(sizes), x] = 1
    counts = _float_convolve(ind, ind, negate)
    if counts is None:
        raise CapacityError(f"0/1 rows of length {q} exceed the float error bound")
    return counts


def _pair_energies(x: np.ndarray, sizes: np.ndarray, q, negate: bool = False) -> np.ndarray:
    """The square sum sum_s r(s)^2 of each row's pair counts, r(s) = #{(a, b) : a + b = s},
    or a - b = s when negate, mod the row's modulus: q is one modulus or an int64 array
    of one a row.  Row r is the next sizes[r] members of x, distinct residues.

    The rows that pass _by_pairs are sparse.  When q is one modulus they go in order
    to _binned_energies, in blocks of at most _PAIR_BATCH pairs and _PAIR_BATCH bins
    (q a row); when it is one a row they go by ascending size to _sorted_energies, in
    blocks of at most _PAIR_BATCH pairs once padded to the block's widest row.  The
    others go a modulus at a time to _dense_counts, in blocks of at most _PAIR_BATCH
    FFT entries (L a row).  A block of one row may exceed its bound.  A row of n
    members has energy at most n * n^2: an int64 array while n^3 < 2^63 for the
    largest n, else an object array of exact Python ints.
    """
    peak = int(sizes.max(initial=0))
    energies = np.zeros(len(sizes), dtype=np.int64 if peak**3 < WORD_CAP else object)
    sparse = _by_pairs(sizes, q)
    keep = sparse & (sizes > 0)
    rows = np.flatnonzero(keep)
    binned = not np.ndim(q)
    if binned:  # in order
        members = x[keep.repeat(sizes)]
    else:  # by ascending size, so that a block pads little
        rows = rows[np.argsort(sizes[rows], kind="stable")]
        members = x[_members(rows, sizes)]
    n = sizes[rows]
    pairs, ends = (n * n).cumsum(), [0] + n.cumsum().tolist()
    lo = 0
    while lo < len(rows):
        if binned:  # at most _PAIR_BATCH bins, q a row
            hi = int(pairs.searchsorted((pairs[lo - 1] if lo else 0) + _PAIR_BATCH, "right"))
            hi = min(hi, lo + _PAIR_BATCH // q)
        else:  # a block pads its rows to the widest, its last
            w = n[lo : lo + _PAIR_BATCH // int(n[lo]) ** 2]
            hi = lo + int((np.arange(1, len(w) + 1) * w * w).searchsorted(_PAIR_BATCH, "right"))
        hi = max(hi, lo + 1)
        kernel = _binned_energies if binned else _sorted_energies
        energies[rows[lo:hi]] = kernel(members[ends[lo] : ends[hi]], n[lo:hi], q if binned else q[rows[lo:hi]], negate)
        lo = hi
    dense = ~sparse
    for modulus in sorted(set(q[dense].tolist())) if np.ndim(q) else [q] * bool(dense.any()):
        rows = np.flatnonzero(dense & (q == modulus))
        step = max(1, _PAIR_BATCH // _padded_length(modulus))
        for block in np.split(rows, range(step, len(rows), step)):
            counts = _dense_counts(x[_members(block, sizes)], sizes[block], modulus, negate)
            if energies.dtype == object:
                energies[block] = [_exact_dot(r, r, peak * peak) for r in counts]
            else:
                energies[block] = np.einsum("rs,rs->r", counts, counts)
    return energies


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
    """The counts of a1 + a2 over (a1, a2) in A^2, or of a1 - a2 when negate: a bincount
    of its _pair_sums when A passes _by_pairs, else _dense_counts."""
    q, x = A.q, A.members
    if not _by_pairs(len(x), q):
        return _dense_counts(x, np.array([len(x)]), q, negate)[0]
    return np.bincount(_pair_sums(x, q, negate), minlength=q)


def energy_of(A: IndicatorSet, nu: int = 2) -> int:
    """Number of 2*nu-tuples in A with matching nu-fold sums.

    nu = 2 squares the pair counts r(s) of _pair_sum_counts with one _exact_dot,
    bounded by |A|^2 since every r(s) <= |A|; other nu square sum_rep(A, nu).
    """
    if nu == 2:
        counts = _pair_sum_counts(A)
        return _exact_dot(counts, counts, A.cardinality**2)
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


def _coset_energies(k: int, N: int, primes) -> tuple:
    """(prime, symbol, energy): the energy of each class of n = 1..min(N, q - 1) of every q in primes.

    With g = gcd(k, q - 1), j^-1 n is a k-th power iff n and j have the same
    power-residue symbol n^((q-1)/g), so the symbol splits n among the cosets, and
    E_k(N; j, q) is the energy of the class of j's symbol (0 when no n has it).  Row i
    says that the n of symbol symbol[i] mod primes[prime[i]] give the energy energy[i].
    The primes are grouped by g and go to _class_energies in batches of at most
    _PAIR_BATCH roots, a batch never smaller than one prime.
    """
    primes = np.asarray(primes, dtype=np.int64)
    gs = np.gcd(k, primes - 1)
    parts = [(np.zeros(0, dtype=np.int64),) * 3]
    for g in sorted(set(gs.tolist())):
        group = np.flatnonzero(gs == g)
        step = max(1, _PAIR_BATCH // (g * N))
        parts += [_class_energies(k, N, g, group[i : i + step], primes) for i in range(0, len(group), step)]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _class_energies(k: int, N: int, g: int, group: np.ndarray, primes: np.ndarray) -> tuple:
    """_coset_energies for the primes[group], which share g = gcd(k, q - 1).

    One square-and-multiply pass with an exponent a row labels every (q, n) by its
    symbol; a class with least member n0 is the set of j = n0, the g roots of
    x^k = n n0^-1 for each n of the class: distinct and nonzero, so they need no
    dedup.  One root_rows call takes every n, and the classes of every prime are the
    rows of one _pair_energies stack.
    """
    q = primes[group]
    p, n = np.nonzero(np.arange(1, N + 1) <= np.minimum(N, q - 1)[:, None])
    n += 1
    modulus = q[p]
    symbol = _power(n, ((q - 1) // g)[p], modulus) if g > 1 else np.ones_like(n)
    order = np.argsort(p << 32 | symbol, kind="stable")  # by prime, then class, then n
    p, n, symbol, modulus = p[order], n[order], symbol[order], modulus[order]
    first = np.flatnonzero(np.diff(p << 32 | symbol, prepend=-1))
    members = np.diff(first, append=len(n))
    n0 = n[first]
    v = n * _power(n0, modulus[first] - 2, modulus[first]).repeat(members) % modulus
    roots = root_rows(v, k, modulus)[1]
    energies = _pair_energies(roots.ravel(), members * g, modulus[first])
    return group[p[first]], symbol[first], energies


def max_energy_over_j(k: int, N: int, q):
    """max_j E_k(N; j, q) and an argmax j.

    By dilation invariance E_k(N; j, q) depends only on the coset of j mod the
    k-th powers, that is on the symbol j^((q-1)/g_k) that _coset_energies
    keys; the argmax is the first maximising least coset representative
    from power_coset_reps.  CapacityError above ROOT_TABLE_CAP.
    """
    q = _as_q(q)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 1 <= N <= q:
        raise ValueError("N must satisfy 1 <= N <= q")
    if q > ROOT_TABLE_CAP:  # the class stage's residues, and a dense class's 0/1 row
        raise CapacityError(f"max_energy_over_j capped at q <= {ROOT_TABLE_CAP}")
    _, symbols, energies = _coset_energies(k, N, [q])
    by_symbol = dict(zip(symbols.tolist(), energies.tolist()))
    e = (q - 1) // math.gcd(k, q - 1)
    best, best_j = 0, 1
    for j in power_coset_reps(k, q):
        energy = by_symbol.get(pow(j, e, q), 0)
        if energy > best:
            best, best_j = energy, j
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
    prime, _, energies = _coset_energies(k, N, qs)
    best = np.zeros(len(qs), dtype=energies.dtype)
    np.maximum.at(best, prime, energies)
    total = sum(best.tolist())
    value = math.log(Q) / Q * total
    return PrimeAverageResult(k, N, Q, tuple(qs), total, value)
