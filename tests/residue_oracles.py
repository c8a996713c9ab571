"""Oracles for the residue core.

table_roots is the k-th root route of the discrete-log table,
expsums.index_table, that modular.root_rows replaced: the g_k roots of each
value gathered from the table.  table_root_set and table_preimage are the
routes the power scan of modular.kth_root_set and modular.preimage_set
replaced, by table_roots.  The others are the routes the table replaced, and
the routes before them: a bucket table holding, for each v in Z_q, the tuple
of x with j*x^k = v (mod q), rebuilt for every dilate j; a coset scan that
materialises the k-th power subgroup as a set; the power map by
square-and-multiply over the whole residue vector and its stable argsort by
value (the sorted residue map); the root-sum table scattered by np.add.at;
the moment window summed by np.roll; and the scalar Tonelli-Shanks square
root.  Those are slow but independent of expsums.index_table and
modular.root_rows, so the property tests compare every consumer of either
against them.  all_j_max_energy is the oracle for the coset reduction
of max_energy_over_j: it scans every dilate j with the production energy.
table_max_energy is the route max_energy_over_j and prime_averaged_energy
took before the power-residue symbol: one index_table per prime, the class of
n its index mod g_k, and each class's pair sums counted in Python.
twelve_witness_is_prime is modular.is_prime as it was before the witness
prefixes: Miller-Rabin with all 12 prime witnesses for every n.
"""

import math
from collections import Counter
from functools import lru_cache

import numpy as np

from modroots.energy import EnergyQuery, tuple_energy
from modroots.expsums import index_table


@lru_cache(maxsize=64)
def bucket_table(j: int, k: int, q: int) -> tuple:
    """buckets[v] = ascending tuple of x in Z_q with j*x^k = v (mod q)."""
    xs = np.arange(q, dtype=np.int64)
    acc = np.ones(q, dtype=np.int64)
    for _ in range(k):  # q < 2^26: no product reaches 2^63
        acc = (acc * xs) % q
    buckets = [[] for _ in range(q)]
    for x, v in enumerate(((acc * j) % q).tolist()):
        buckets[v].append(x)
    return tuple(tuple(b) for b in buckets)


def bucket_kth_roots(a: int, k: int, q: int) -> set:
    return set(bucket_table(1, k, q)[a % q])


def bucket_preimage(j: int, k: int, N: int, q: int) -> set:
    table = bucket_table(j % q, k, q)
    members = set()
    for v in range(1, N + 1):
        members.update(table[v % q])
    members.discard(0)
    return members


def table_roots(vs, k: int, q: int):
    """(solvable, roots) for nonzero residues vs, from index_table(q): x^k = vs[i] is
    solvable iff g_k = gcd(k, q - 1) divides ind vs[i], and roots[r] holds the g_k roots of
    the r-th solvable value (int64, shape (solvable.sum(), g_k)).  With h = (q - 1)/g_k, the
    roots of x^k = g^(g_k t) are g^(t (k/g_k)^-1 mod h + i h) for i < g_k."""
    table = index_table(q)
    gk = math.gcd(k, q - 1)
    h = (q - 1) // gk
    iv = table.ind[np.asarray(vs, dtype=np.int64)].astype(np.int64)
    solvable = iv % gk == 0
    base = iv[solvable] // gk * pow(k // gk, -1, h) % h  # both factors below 2^26
    return solvable, table.pw[base[:, None] + h * np.arange(gk)].astype(np.int64)


def table_root_set(vs, k: int, q: int) -> np.ndarray:
    """Ascending int64 array of the x in Z_q with x^k in vs, for distinct residues vs: the
    g_k = gcd(k, q - 1) roots of each nonzero v from table_roots, and 0 when vs holds 0."""
    vs = np.asarray(vs, dtype=np.int64)
    nonzero = vs[vs != 0]
    roots = table_roots(nonzero, k, q)[1].ravel()
    if len(nonzero) < len(vs):  # 0^k = 0
        roots = np.append(roots, 0)
    return np.sort(roots)


def table_preimage(j: int, k: int, N: int, q: int) -> list:
    """{x in F_q^* : 1 <= j x^k mod q <= N}: table_root_set of j^-1 n for n = 1..min(N, q - 1)."""
    vs = pow(j, -1, q) * np.arange(1, min(N, q - 1) + 1, dtype=np.int64) % q
    return table_root_set(vs, k, q).tolist()


def pair_energy(members, q: int) -> int:
    """#{(a, b, c, d) in A^4 : a + b = c + d (mod q)} by counting pair sums."""
    sums = Counter((a + b) % q for a in members for b in members)
    return sum(c * c for c in sums.values())


def bucket_set_energy(target, k: int, q: int) -> int:
    table = bucket_table(1, k, q)
    members = set()
    for v in target:
        members.update(table[v])
    return pair_energy(members, q)


def subgroup_coset_reps(k: int, q: int) -> list:
    """Greedy scan j = 1, 2, ...: keep j unless a kept rep's coset covers it."""
    if q == 2:
        return [1]
    g = math.gcd(k, q - 1)
    subgroup = {pow(x, k, q) for x in range(1, q)}
    reps = []
    covered = set()
    for j in range(1, q):
        if j not in covered:
            reps.append(j)
            covered.update((j * h) % q for h in subgroup)
            if len(reps) == g:
                break
    return reps


def bucket_max_energy(k: int, N: int, q: int):
    """(max energy, first maximising rep) over the subgroup-scan coset reps."""
    best, best_j = 0, 1
    for j in subgroup_coset_reps(k, q):
        e = pair_energy(bucket_preimage(j, k, N, q), q)
        if e > best:
            best, best_j = e, j
    return best, best_j


def table_coset_energies(k: int, N: int, q: int) -> list:
    """E_k(N; g^c, q) for every class c < g_k = gcd(k, q - 1), g the table's primitive root.

    j^-1 n is a k-th power iff ind n = ind j (mod g_k); the set of j = g^c is the
    table_roots of g^(ind n - c) over the n = 1..min(N, q - 1) of class c.
    """
    table = index_table(q)
    gk = math.gcd(k, q - 1)
    iv = table.ind[1 : min(N, q - 1) + 1].astype(np.int64)
    roots = (table_roots(table.pw[iv[iv % gk == c] - c], k, q)[1] for c in range(gk))
    return [pair_energy(r.ravel().tolist(), q) for r in roots]


def table_max_energy(k: int, N: int, q: int):
    """(max energy, first maximising rep) over the subgroup-scan coset reps, by table classes."""
    energies = table_coset_energies(k, N, q)
    ind = index_table(q).ind
    best, best_j = 0, 1
    for j in subgroup_coset_reps(k, q):
        e = energies[int(ind[j]) % len(energies)]
        if e > best:
            best, best_j = e, j
    return best, best_j


def all_j_max_energy(k: int, N: int, q: int):
    """(max_j E_k(N; j, q), first maximising j) over every j in 1..q-1."""
    best, best_j = 0, 1
    for j in range(1, q):
        e = tuple_energy(EnergyQuery(2, k, N, j, q))
        if e > best:
            best, best_j = e, j
    return best, best_j


def square_multiply_table(k: int, q: int) -> np.ndarray:
    """values[x] = x^k mod q for x = 0..q-1 by square-and-multiply (0^0 = 1)."""
    values = np.ones(q, dtype=np.int64)
    base, e = np.arange(q, dtype=np.int64), k
    while e:  # q < 2^26 keeps every product below 2^52
        if e & 1:
            values = (values * base) % q
        base = (base * base) % q
        e >>= 1
    return values


@lru_cache(maxsize=8)
def sorted_residue_map(k: int, q: int):
    """(values, order, starts): the roots of x^k = v are order[starts[v]:starts[v + 1]]."""
    values = square_multiply_table(k, q)
    # the keys values*q + x are distinct, so sorting them is a stable argsort by value
    order = np.sort(values * q + np.arange(q, dtype=np.int64)) % q
    starts = np.zeros(q + 1, dtype=np.int64)
    np.cumsum(np.bincount(values, minlength=q), out=starts[1:])
    return values, order, starts


def sorted_kth_roots(a: int, k: int, q: int) -> list:
    _, order, starts = sorted_residue_map(k, q)
    a %= q
    return order[starts[a] : starts[a + 1]].tolist()


def mask_preimage(j: int, k: int, N: int, q: int) -> list:
    """{x : 1 <= j x^k mod q <= N} as a mask over the dilated power map."""
    dilated = (sorted_residue_map(k, q)[0] * (j % q)) % q
    return np.flatnonzero((dilated >= 1) & (dilated <= N)).tolist()


def quadratic_character(q: int) -> np.ndarray:
    """chi[0] = 0, 1 on the squares x^2 (x != 0), -1 elsewhere."""
    chi = np.full(q, -1, dtype=np.int64)
    chi[square_multiply_table(2, q)[1:]] = 1
    chi[0] = 0
    return chi


def add_at_weight_table(a: int, h: int, q: int) -> np.ndarray:
    """f(v) = sum_{x^2 = a v} e_q(h x) for every v, scattering each x by np.add.at."""
    a %= q
    h %= q
    sq = square_multiply_table(2, q)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    out = np.zeros(q, dtype=np.complex128)
    inva = pow(a, q - 2, q) if q > 2 else a
    np.add.at(out, (sq * inva) % q, roots[(h * np.arange(q, dtype=np.int64)) % q])
    return out


def roll_moment(c: int, U0: int, r: int, q: int) -> float:
    """sum_lambda |sum_{u=1..U0} chi(lambda+u) e_q(c (lambda+u)^{-1})|^{2r} by np.roll."""
    inv = square_multiply_table(q - 2, q)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    w = np.asarray(quadratic_character(q), dtype=np.float64) * roots[((c % q) * inv) % q]
    w[0] = 0.0
    inner = np.zeros(q, dtype=np.complex128)
    for u in range(1, U0 + 1):
        inner += np.roll(w, -u)
    return float(np.sum(np.abs(inner) ** (2 * r)))


def tonelli_shanks(a: int, q: int) -> list:
    """The sorted solutions of x^2 = a (mod q) for prime q, by scalar Tonelli-Shanks."""
    a %= q
    if a == 0:
        return [0]
    if q == 2:
        return [a]
    if pow(a, (q - 1) // 2, q) != 1:
        return []
    if q % 4 == 3:
        x = pow(a, (q + 1) // 4, q)
        return sorted({x, q - x})
    # factor q-1 = d * 2^s with d odd
    d, s = q - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    c = pow(z, d, q)
    x = pow(a, (d + 1) // 2, q)
    t = pow(a, d, q)
    m = s
    while t != 1:
        i, e = 0, t
        while e != 1:
            e = e * e % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        x = x * b % q
        c = b * b % q
        t = t * c % q
        m = i
    return sorted({x, q - x})


TWELVE_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > 2 passes the Miller-Rabin round to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def twelve_witness_is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^64 with all 12 prime witnesses."""
    if n < 2:
        return False
    for p in TWELVE_WITNESSES:
        if n % p == 0:
            return n == p
    return all(strong_probable_prime(n, a) for a in TWELVE_WITNESSES)
