"""Pure-Python oracles for the flat residue core.

These are the routes the flat residue table replaced: a bucket table holding,
for each v in Z_q, the tuple of x with j*x^k = v (mod q), rebuilt for every
dilate j; and a coset scan that materialises the k-th power subgroup as a set.
They are slow but independent of modular.residue_map, so the property tests
compare every consumer of the table against them.
"""

import math
from collections import Counter
from functools import lru_cache

import numpy as np


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
