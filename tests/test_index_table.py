"""The square-root scan and the batch inverses of expsums against the discrete-log
table they replaced, and every query that reads them against the routes the table
replaced; the power scan of kth_root_set and preimage_set against the table route
it replaced; and the table-free root kernel root_rows against the table and
Tonelli-Shanks.

The oracles in residue_oracles.py share no arithmetic with expsums.square_roots,
expsums.inverses or modular.root_rows: the discrete-log table index_table,
Python pow, square-and-multiply tables, the sorted residue map, Tonelli-Shanks,
the np.add.at root-sum table and the np.roll moment window.  The moduli cover
q = 2 (where x = -x), q = 3, q = 65537 (q - 1 = 2^16), primes on both sides of
2^21 and every g_k = gcd(k, q - 1) in {1, 2, 3, 4, 6}; root_rows also meets
q = 2^31 - 1, the first q past it, 2^61 - 1 and a 62-bit q whose 2- and 3-Sylow
subgroups are deep.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import modroots.expsums as expsums
import modroots.modular as modular
from modroots.energy import max_energy_over_j, prime_averaged_energy, set_energy
from modroots.errors import CapacityError
from modroots.expsums import (
    INDEX_CACHE_RESIDUES,
    BilinearQuery,
    _cache_by_residues,
    bilinear_root_sum,
    char_inverse_moment,
    character_table,
    inverses,
    square_roots,
    unit_roots,
)
from modroots.modular import (
    ROOT_TABLE_CAP,
    is_prime,
    kth_root_set,
    kth_roots,
    preimage_set,
    primes_in,
    root_rows,
)
from modroots.sets import IndicatorSet

from algebra_oracles import moment_tolerance
from residue_oracles import (
    add_at_weight_table,
    index_table,
    mask_preimage,
    roll_moment,
    sorted_kth_roots,
    sorted_residue_map,
    square_multiply_table,
    table_preimage,
    table_root_set,
    table_roots,
    tonelli_shanks,
)

# q - 1 = 2^16; 2^21 - 9 (q - 1 = 2 * 1048571); 2^21 + 17 (q - 1 = 48 * 43691)
EDGE = [2, 3, 5, 7, 13, 37, 61, 65537, 2097143, 2097169]
PRIMES = st.sampled_from(EDGE)
ABOVE_CAP = next(q for q in range(ROOT_TABLE_CAP + 1, ROOT_TABLE_CAP + 200) if is_prime(q))


@pytest.mark.parametrize("q", EDGE)
def test_table_is_a_permutation_of_the_units(q):
    table = index_table(q)
    assert table.pw.dtype == table.ind.dtype == np.int32
    assert table.pw.shape == (q - 1,) and table.ind.shape == (q,)
    assert sorted(table.pw.tolist()) == list(range(1, q))
    assert np.array_equal(table.ind[table.pw], np.arange(q - 1))
    assert all(table.pw[i] == pow(table.g, i, q) for i in {0, (q - 1) // 2, q - 2})


@given(PRIMES, st.lists(st.integers(1, 2**40), min_size=1, max_size=40), st.integers(0, 2**40))
@example(2, [1], 1)
@example(3, [1, 2], 1)
@example(5, [1, 2, 3, 4], 2)
@example(65537, [3, 65536], 5)  # q - 1 = 2^16: no pad in the inverse rows
@example(2097143, [2, 2097142], 7)  # q - 1 = 6 (mod 16): the last row is padded
@example(2097169, [5, 2097168], 11)
@settings(max_examples=20, deadline=None)
def test_square_roots_and_inverses_match_the_table(q, raw, h):
    table = index_table(q)
    r, inv = square_roots(q), inverses(q)
    for arr in (r, inv):
        assert arr.dtype == np.int32 and arr.shape == (q,) and not arr.flags.writeable
    # s is a square iff g_2 = gcd(2, q - 1) divides ind s, and pw[ind s / g_2] is a root
    g2 = math.gcd(2, q - 1)
    ind = table.ind[1:].astype(np.int64)
    square = ind % g2 == 0
    assert r[0] == 0 and np.array_equal(r[1:] != 0, square)
    half = table.pw[ind[square] // g2].astype(np.int64)
    got = r[1:][square].astype(np.int64)
    assert np.all((got == half) | (got == q - half)) and np.all(2 * got <= q)
    if q > 2:  # chi is the parity of ind
        assert np.array_equal(character_table(q), np.concatenate(([0], 1 - 2 * (ind & 1))))
    # the pow loop of test_expsums.moment_pow_loop, and y inv[y] = 1 for every unit
    ys = sorted({y % (q - 1) + 1 for y in raw})
    assert inv[ys].tolist() == [pow(y, q - 2, q) for y in ys]
    assert inv[0] == 0 and np.all(np.arange(1, q) * inv[1:].astype(np.int64) % q == 1)
    # _root_sums against the table's g_2 roots of a v (one at q = 2), bit for bit
    a, vs = ys[0], np.array([0, *ys], dtype=np.int64)
    roots = unit_roots(q)
    solvable, rows = table_roots(a * vs[1:] % q, 2, q)
    want = [roots[0]] + [0j] * len(ys)
    for i, row in zip(np.flatnonzero(solvable), rows.tolist()):
        want[i + 1] = sum((roots[h * x % q] for x in row), 0j)
    assert expsums._root_sums(a, h, q, vs).tolist() == want


def gather_power(q, xs, e):
    """x^e = pw[e ind x mod (q - 1)] for the units xs."""
    table = index_table(q)
    return table.pw[(table.ind[np.asarray(xs)].astype(np.int64) * (e % (q - 1))) % (q - 1)]


@given(PRIMES, st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_powers_match_square_and_multiply(q, k):
    assert np.array_equal(gather_power(q, np.arange(1, q), k), square_multiply_table(k, q)[1:])


@given(PRIMES, st.integers(-(2**62), 2**62), st.lists(st.integers(1, 2**40), min_size=1, max_size=50))
@settings(max_examples=80, deadline=None)
def test_powers_and_inverses_match_pow(q, e, xs):
    xs = [x % (q - 1) + 1 for x in xs]
    assert gather_power(q, xs, e).tolist() == [pow(x, e, q) for x in xs]
    assert gather_power(q, xs, -1).tolist() == [pow(x, -1, q) for x in xs]


@given(PRIMES, st.integers(1, 12), st.integers(0, 2**40))
@settings(max_examples=80, deadline=None)
def test_kth_roots_match_sorted_residue_map(q, k, a):
    assert sorted(kth_roots(a, k, q)) == sorted_kth_roots(a, k, q)


@pytest.mark.parametrize("q, k, gk", [
    (13, 5, 1), (13, 2, 2), (13, 3, 3), (13, 4, 4), (13, 6, 6),
    (61, 7, 1), (61, 14, 2), (61, 9, 3), (61, 4, 4), (61, 6, 6),
    (65537, 3, 1), (65537, 6, 2), (65537, 4, 4),
    (2097169, 5, 1), (2097169, 2, 2), (2097169, 9, 3), (2097169, 4, 4), (2097169, 6, 6),
])
def test_root_sets_for_each_gk(q, k, gk):
    assert math.gcd(k, q - 1) == gk
    values = sorted_residue_map(k, q)[0]
    sample = range(q) if q < 100 else np.random.default_rng(q + k).integers(0, q, 400).tolist()
    for a in sample:
        roots = kth_roots(a, k, q)
        assert sorted(roots) == sorted_kth_roots(a, k, q)
        assert len(roots) in ((1,) if a == 0 else (0, gk))
    # every value of the power map at once: the union of all roots is Z_q
    assert np.array_equal(kth_root_set(np.unique(values), k, q), np.arange(q))


@given(PRIMES, st.integers(1, 12), st.integers(1, 2**40), st.integers(1, 2**40),
       st.lists(st.integers(0, 2**40), max_size=30))
@example(2, 1, 1, 1, [0])
@example(3, 2, 2, 2, [0, 2])
@example(2097169, 6, 1, 2097168, [0])  # q = 2^21 + 17: 65 chunks of the scan, the last of 17 residues
@settings(max_examples=60, deadline=None)
def test_preimage_matches_mask_route(q, k, j, n, vs):
    # the power scan against the mask route and the table route it replaced, and its
    # root sets, 0 included, against the table's
    j = j % (q - 1) + 1
    N = n % q + 1
    got = preimage_set(j, k, N, q).members.tolist()
    assert got == mask_preimage(j, k, N, q) == table_preimage(j, k, N, q)
    vs = sorted({v % q for v in vs} | {0})
    assert kth_root_set(vs, k, q).tolist() == table_root_set(vs, k, q).tolist()


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("q", [2, 3, 7, 13, 31])
def test_power_scan_matches_the_table_route_across_chunks(q, chunk):
    # k = 1..12 gives g_k = 1, odd g_k (3 at q = 7, 13, 31; 5 and 15 at 31) and even g_k;
    # chunks of 1, 2 and 7 residues put a boundary between almost every pair of members
    gks = set()
    rng = np.random.default_rng(q * chunk)
    with mock.patch.object(modular, "_SCAN_CHUNK", chunk):
        for k in range(1, 13):
            gks.add(math.gcd(k, q - 1))
            for j in {1, q - 1}:
                for N in {1, q - 1, q}:
                    got = preimage_set(j, k, N, q).members.tolist()
                    assert got == table_preimage(j, k, N, q) == mask_preimage(j, k, N, q)
            for vs in ([0], [0, 1], list(range(q)), [q - 1], [0] + rng.permutation(q)[: q // 2].tolist()):
                vs = sorted(set(vs))
                assert kth_root_set(vs, k, q).tolist() == table_root_set(vs, k, q).tolist()
    assert 1 in gks and (q < 7 or any(g % 2 for g in gks - {1})) and (q == 2 or any(g % 2 == 0 for g in gks))


@given(st.sampled_from([3, 5, 13, 65537, 2097143, 2097169]), st.integers(0, 2**40))
@settings(max_examples=60, deadline=None)
def test_square_roots_match_tonelli_shanks(q, a):
    assert kth_roots(a, 2, q) == set(tonelli_shanks(a, q))


@given(st.sampled_from(EDGE[:8]), st.integers(0, 2**62), st.integers(0, 2**62))
@settings(max_examples=40, deadline=None)
def test_root_sum_table_matches_add_at_route_exactly(q, a, h):
    a = a if a % q else a + 1
    assert np.array_equal(expsums._root_sums(a, h, q, np.arange(q)), add_at_weight_table(a, h, q))


@given(st.sampled_from(EDGE[:8]), st.integers(1, 2**62), st.integers(0, 2**62), st.integers(2, 40),
       st.integers(2, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_w_reads_the_table_route_exactly(q, a, h, M, N, seed):
    # f at the products m n only is the q-length table gathered at them, bit for bit,
    # and W is the production product form of that table route's F
    a = a if a % q else a + 1
    rng = np.random.default_rng(seed)
    ms, ns = np.arange((M + 1) // 2, M), np.arange((N + 1) // 2, N)
    alpha, beta = rng.choice([-1.0, 0.0, 1.0], len(ms)), rng.choice([-1.0, 0.0, 1.0], len(ns))
    products = np.outer(ms, ns) % q
    table_f = add_at_weight_table(a, h, q)[products]
    assert np.array_equal(expsums._root_sums(a, h, q, products), table_f)
    query = BilinearQuery(a, h, M, N, q, tuple(alpha), tuple(beta))
    got = bilinear_root_sum(query)
    with mock.patch.object(expsums, "_root_sums", lambda a, h, q, vs: table_f):
        assert bilinear_root_sum(query) == got


@given(st.sampled_from([3, 5, 13, 37, 61, 499, 65537]), st.integers(1, 2**62), st.data())
@settings(max_examples=30, deadline=None)
def test_moment_matches_roll_route_exactly(q, c, data):
    # the blocked windows are within window_bound of the np.roll loop's, so the moment
    # is within moment_tolerance of it
    c = c if c % q else c + 1
    U0 = data.draw(st.integers(1, min(q, 80)))
    r = data.draw(st.integers(1, 3))
    got = char_inverse_moment(c, U0, r, q).moment
    assert abs(got - roll_moment(c, U0, r, q)) <= moment_tolerance(expsums._window_sums(c % q, U0, q), U0, r)


def test_set_energy_at_q2_and_q3():
    for q in (2, 3):
        for k in (1, 2, 3):
            target = IndicatorSet.of(q, range(q))
            assert set_energy(target, k, q) == q**3  # every x: all q^3 solutions of a+b=c+d


def test_capacity_error_before_anything_is_allocated():
    q = ABOVE_CAP
    one = IndicatorSet(q, np.array([1], dtype=np.int64))
    calls = [
        lambda: index_table(q),
        lambda: square_roots(q),
        lambda: inverses(q),
        lambda: kth_root_set([1], 2, q),
        lambda: preimage_set(1, 2, q, q),
        lambda: set_energy(one, 3, q),
        lambda: character_table(q),
        lambda: expsums._root_sums(1, 1, q, np.arange(4)),  # the table is refused before f is allocated
        lambda: bilinear_root_sum(BilinearQuery(1, 1, 4, 4, q, (1.0, 1.0), (1.0, 1.0))),
        lambda: char_inverse_moment(1, 4, 2, q),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a q-length array would be 256 MiB or more


def test_kth_roots_above_the_cap_build_no_table():
    tracemalloc.start()
    try:
        roots = kth_roots(125, 3, ABOVE_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ABOVE_CAP == 67108879 and roots == {5, 17982324, 49126550}
    assert peak < 1 << 20


_KERNEL_PRIMES = primes_in(2, 10**5)


@st.composite
def _kernel_cases(draw):
    """(q, k) with k = 2..6 on primes below 10^5, favouring the deep Sylow subgroups where
    gcd(g_k, (q - 1)/g_k) > 1 and the digit rounds run, beside their coprime side."""
    residue, modulus, ks = draw(st.sampled_from([
        (0, 1, range(2, 7)),  # any prime, mostly the coprime side
        (1, 8, (2, 4)),
        (1, 9, (3, 6)),
        (1, 25, (5,)),
        (3, 4, (2,)),  # g = 2 and (q - 1)/2 odd
        (5, 8, (4,)),  # g = 4 and (q - 1)/4 odd
        (4, 9, (3,)),  # g = 3 and (q - 1)/3 prime to 3
    ]))
    q = draw(st.sampled_from([p for p in _KERNEL_PRIMES if p % modulus == residue]))
    return q, draw(st.sampled_from(ks))


@given(_kernel_cases(), st.lists(st.integers(1, 2**40), min_size=1, max_size=40))
@example((2, 2), [1])
@example((3, 2), [1, 2])
@example((3, 6), [1, 2])
@example((2, 5), [1])
@example((65537, 4), [3, 9, 81, 6561])  # q - 1 = 2^16
@settings(max_examples=120, deadline=None)
def test_root_rows_match_the_table(qk, raw):
    q, k = qk
    units = [v % (q - 1) + 1 for v in raw]
    vs = np.array(units + [pow(x, k, q) for x in units], dtype=np.int64)  # the k-th powers have roots
    solvable, rows = root_rows(vs, k, q)
    want_solvable, want_rows = table_roots(vs, k, q)
    assert np.array_equal(solvable, want_solvable)
    assert rows.dtype == np.int64 and np.array_equal(rows, np.sort(want_rows, axis=1))


# 2^31 - 1: the last int64 q (there g_3 = 3 and v_3(q - 1) = 2, so k = 3 reads a digit);
# 2147483659: the first object-array q; 2^61 - 1; 2305843009224652801: q - 1 = 2^11 3^4 5^2 7 17 p,
# several digit rounds on object arrays whose squares pass 2^63
WORD_EDGE = [2**31 - 1, 2147483659, 2**61 - 1, 2305843009224652801]


@given(st.sampled_from(WORD_EDGE), st.integers(2, 6), st.lists(st.integers(1, 2**62), min_size=1, max_size=20))
@example(2**31 - 1, 3, [2, 3, 5])
@example(2**31 - 1, 3, [])  # no values: no digit round, and rows of shape (0, g)
@example(2147483659, 2, [])
@settings(max_examples=60, deadline=None)
def test_root_rows_at_word_edges(q, k, raw):
    xs = [x % (q - 1) + 1 for x in raw]
    vs = [pow(x, k, q) for x in xs] + xs
    solvable, rows = root_rows(vs, k, q)
    assert rows.dtype == (np.int64 if q < 2**31 else object)
    g = math.gcd(k, q - 1)
    assert solvable.tolist() == [pow(v, (q - 1) // g, q) == 1 for v in vs]  # Euler's criterion
    assert rows.shape == (int(solvable.sum()), g)
    got = dict(zip([v for v, ok in zip(vs, solvable) if ok], rows.tolist()))
    for v, row in got.items():
        assert row == sorted(set(row)) and all(pow(x, k, q) == v for x in row)
        if k == 2:
            assert row == tonelli_shanks(v, q)
    assert all(x in got[v] for x, v in zip(xs, vs))


@st.composite
def _mixed_moduli(draw):
    """(k, qs): k = 2..12 and one to six primes below 10^5, repeats allowed, that share
    g_k = gcd(k, q - 1); half the time every q = 1 (mod l^2) for a prime l | k, so the
    l-Sylow subgroup is deeper than l^(v_l(g_k)) and the digit rounds run."""
    k = draw(st.integers(2, 12))
    l = draw(st.sampled_from(sorted(p for p in range(2, k + 1) if k % p == 0 and is_prime(p))))
    deep = draw(st.booleans())
    pool = [q for q in _KERNEL_PRIMES if q % (l * l) == 1] if deep else _KERNEL_PRIMES
    first = draw(st.sampled_from(pool))
    g = math.gcd(k, first - 1)
    same = [q for q in pool if math.gcd(k, q - 1) == g]
    return k, [first] + draw(st.lists(st.sampled_from(same), max_size=5))


@given(_mixed_moduli(), st.lists(st.tuples(st.integers(0, 5), st.integers(1, 2**40)), min_size=1, max_size=30))
@example((4, [65537, 13, 65537, 5]), [(0, 3), (1, 9), (2, 81), (3, 2)])  # q - 1 = 2^16 beside shallow 2-Sylows
@example((6, [7, 13, 19, 37]), [(3, 2), (0, 3), (2, 5), (1, 6)])  # g = 6, the 3-Sylow of 37 - 1 = 4 * 9 deeper
@settings(max_examples=100, deadline=None)
def test_root_rows_with_a_modulus_a_row(case, raw):
    k, primes = case
    qs = [primes[i % len(primes)] for i, _ in raw]
    units = [v % (q - 1) + 1 for (_, v), q in zip(raw, qs)]
    vs = np.array(units + [pow(x, k, q) for x, q in zip(units, qs)], dtype=np.int64)  # the k-th powers have roots
    qs = np.array(qs + qs, dtype=np.int64)
    solvable, rows = root_rows(vs, k, qs)
    assert rows.dtype == np.int64 and rows.shape == (int(solvable.sum()), math.gcd(k, primes[0] - 1))
    got = iter(rows.tolist())
    for v, q, ok in zip(vs.tolist(), qs.tolist(), solvable.tolist()):
        want_solvable, want_rows = table_roots([v], k, q)
        assert ok == bool(want_solvable[0])
        if ok:
            assert next(got) == sorted(want_rows[0].tolist())


# the largest primes below 2^31 and the least above: int64 rows below, Python ints past it
NEAR_WORD = [2147483587, 2147483629, 2**31 - 1, 2147483659, 2147483693]


@given(st.integers(2, 12), st.lists(st.sampled_from(NEAR_WORD), min_size=1, max_size=6),
       st.lists(st.integers(1, 2**62), min_size=1, max_size=12))
@example(3, [2**31 - 1, 2147483659], [2, 3, 5])
@example(2, [2147483587, 2**31 - 1], [7, 11])
@settings(max_examples=60, deadline=None)
def test_root_rows_with_moduli_at_the_word_edge(k, primes, raw):
    primes = [q for q in primes if math.gcd(k, q - 1) == math.gcd(k, primes[0] - 1)]
    qs = [primes[i % len(primes)] for i in range(len(raw))]
    xs = [x % (q - 1) + 1 for x, q in zip(raw, qs)]
    vs = [pow(x, k, q) for x, q in zip(xs, qs)] + xs
    solvable, rows = root_rows(vs, k, np.array(qs + qs, dtype=np.int64))
    assert rows.dtype == (np.int64 if max(qs) < 2**31 else object)
    g = math.gcd(k, qs[0] - 1)
    assert solvable.tolist() == [pow(v, (q - 1) // g, q) == 1 for v, q in zip(vs, qs + qs)]  # Euler's criterion
    got = iter(rows.tolist())
    for x, v, q, ok in zip(xs + [None] * len(xs), vs, qs + qs, solvable.tolist()):
        if ok:
            row = next(got)
            assert len(row) == g and row == sorted(set(row)) and all(pow(y, k, q) == v for y in row)
            assert x is None or x in row


def test_cache_is_bounded_by_residues_not_by_count():
    builds = []

    @_cache_by_residues(30)
    def table(q):
        builds.append(q)
        return q

    for q in (2, 3, 5, 7, 11, 2, 3, 5, 7, 11):  # 28 residues: every table stays
        table(q)
    assert builds == [2, 3, 5, 7, 11] and table.cache_info().currsize == 28
    table(13)  # 41 residues: the least recent, 2, 3, 5 and 7, go
    table(11)
    assert table.cache_info()[:2] == (6, 6) and table.cache_info().currsize == 24
    table(2)
    assert builds == [2, 3, 5, 7, 11, 13, 2]
    table(37)  # alone above the bound: kept, everything else dropped
    assert table.cache_info().currsize == 37
    table.cache_clear()
    assert table.cache_info() == (0, 0, 30, 0)


def test_character_caches_are_bounded_by_residues():
    # a count-bounded lru kept all three moduli: about 220 MiB of unit roots, characters,
    # square roots and inverses
    caches = (unit_roots, character_table, square_roots, inverses)
    try:
        for q in (1000003, 2000003, 4194301):
            char_inverse_moment(3, 16, 2, q)
            for cache in caches:
                assert cache.cache_info().currsize <= INDEX_CACHE_RESIDUES + q
        assert [cache.cache_info().currsize for cache in caches] == [4194301] * 4
    finally:
        for cache in caches:
            cache.cache_clear()


def test_second_prime_average_builds_no_table():
    # 135 primes in [1000, 2000): their classes come from root_rows and the power-residue
    # symbol, so neither call, nor max_energy_over_j, builds a table
    square_roots.cache_clear()
    inverses.cache_clear()
    first = prime_averaged_energy(3, 8, 2000)
    assert len(first.primes) == 135
    assert prime_averaged_energy(3, 8, 2000) == first
    assert max_energy_over_j(3, 8, 1009) == max_energy_over_j(3, 8, 1009)
    assert square_roots.cache_info().misses == inverses.cache_info().misses == 0
