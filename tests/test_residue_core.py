"""The flat residue table and its consumers against the bucket-table oracles."""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modroots import energy
from modroots.convolve import _padded_length
from modroots.energy import max_energy_over_j, power_coset_reps, prime_averaged_energy, set_energy
from modroots.expsums import index_table
from modroots.modular import kth_roots, preimage_set, primes_in
from modroots.sets import _LIMB_CHUNK, IndicatorSet, RepFn, _exact_dot, _exact_sums

from residue_oracles import (
    bucket_kth_roots,
    bucket_max_energy,
    bucket_preimage,
    bucket_set_energy,
    bucket_table,
    subgroup_coset_reps,
    table_max_energy,
)

# tiny moduli (q = 2, 3 and k sharing many factors with q - 1) and, about as
# often, moduli near 2*10^5 (a few, so the oracle's tables are reused)
PRIMES = st.one_of(st.sampled_from(primes_in(2, 200)), st.sampled_from(primes_in(199_900, 200_000)))
KS = st.integers(1, 12)


def test_table_layout_matches_buckets():
    for q in (2, 3, 7, 13, 97):
        table = index_table(q)
        assert table.pw.dtype == table.ind.dtype == np.int32
        assert not table.pw.flags.writeable and not table.ind.flags.writeable
        assert table.pw.tolist() == [pow(table.g, i, q) for i in range(q - 1)]
        assert all(table.pw[table.ind[x]] == x for x in range(1, q))
        for k in (1, 2, 3, 4, 6):
            exps = (k * table.ind[1:].astype(np.int64)) % (q - 1)
            assert table.pw[exps].tolist() == [pow(x, k, q) for x in range(1, q)]
            buckets = bucket_table(1, k, q)
            assert [tuple(sorted(kth_roots(v, k, q))) for v in range(q)] == list(buckets)


@given(PRIMES, KS, st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_kth_roots_match_buckets(q, k, a):
    assert kth_roots(a, k, q) == bucket_kth_roots(a, k, q)


@given(PRIMES, KS, st.integers(1, 10**9), st.integers(1, 10**9))
@settings(max_examples=40, deadline=None)
def test_preimage_matches_buckets(q, k, j, n):
    j = j % (q - 1) + 1
    N = n % q + 1
    assert set(preimage_set(j, k, N, q).members) == bucket_preimage(j, k, N, q)


@given(PRIMES, KS, st.integers(0, 2**62))
@settings(max_examples=30, deadline=None)
def test_set_energy_matches_buckets(q, k, seed):
    rng = np.random.default_rng(seed)
    target = rng.choice(q, size=min(q, 1 + seed % 40), replace=False).tolist()
    got = set_energy(IndicatorSet.of(q, target), k, q)
    assert got == bucket_set_energy(target, k, q)


@given(PRIMES, KS)
@settings(max_examples=40, deadline=None)
def test_coset_reps_match_subgroup_scan(q, k):
    reps = power_coset_reps(k, q)
    assert reps == subgroup_coset_reps(k, q)
    assert len(reps) == math.gcd(k, q - 1)


def _routed(route):
    if route == "dense":  # every nonempty class through the kernel's float FFT blocks
        return mock.patch.object(energy, "_pair_limit", lambda q: 0)
    if route == "mixed":  # at most 64 pairs a class: dense and sparse classes mixed, one class a batch
        return mock.patch.object(energy, "_BINCOUNT_PAIR_LIMIT", 64)
    return contextlib.nullcontext()


@contextlib.contextmanager
def _blocks_within(batch):
    """Sets _PAIR_BATCH to batch (None keeps it), yields the (rows, cost) of every block of
    the pair stage, and checks on exit that each held at most that many pairs (its rows
    padded to the widest) or FFT entries, or one row."""
    limit = energy._PAIR_BATCH if batch is None else batch
    blocks = []

    def spy(kernel, cost):
        def counted(x, n, q, negate):
            blocks.append((len(n), cost(n, q)))
            return kernel(x, n, q, negate)
        return counted

    with mock.patch.multiple(
        energy,
        _PAIR_BATCH=limit,
        _sorted_energies=spy(energy._sorted_energies, lambda n, q: len(n) * int(n.max()) ** 2),
        _dense_counts=spy(energy._dense_counts, lambda n, q: len(n) * _padded_length(q)),
    ):
        yield blocks
    assert all(rows == 1 or cost <= limit for rows, cost in blocks)


@given(PRIMES, KS, st.sampled_from(["one", "all", "some"]), st.integers(1, 60),
       st.sampled_from(["pairs", "dense", "mixed"]), st.sampled_from([1, 7, None]))
@settings(max_examples=40, deadline=None)
def test_max_energy_matches_buckets(q, k, which, n, route, batch):
    # N = q puts every n < q into some class; the oracle affords that only at small q.
    # A batch of 1 or 7 pairs splits the classes into blocks of one row
    N = 1 if which == "one" else q if which == "all" and q < 1000 else min(n, q)
    with _routed(route), _blocks_within(batch) as blocks:
        got = max_energy_over_j(k, N, q)
    assert blocks and got == bucket_max_energy(k, N, q) == table_max_energy(k, N, q)


@given(st.integers(1, 8), st.integers(2, 300), st.integers(1, 40), st.sampled_from(["pairs", "dense"]),
       st.sampled_from([1, 7, None]))
@settings(max_examples=20, deadline=None)
def test_prime_average_total_matches_buckets(k, Q, n, route, batch):
    # the blocks of the pair stage split the classes of one prime and join those of several
    N = min(n, Q)
    with _routed(route), _blocks_within(batch):
        r = prime_averaged_energy(k, N, Q)
    assert r.primes == tuple(primes_in((Q + 1) // 2, Q - 1))
    assert r.total == sum(bucket_max_energy(k, min(N, q), q)[0] for q in r.primes)
    assert r.total == sum(table_max_energy(k, min(N, q), q)[0] for q in r.primes)


# ---------------------------------------------------------------------------
# RepFn: int64 storage and sums on both sides of the word-size guard


def test_repfn_object_input_small_counts_become_int64():
    counts = np.array([3, 0, 5, 1, 2], dtype=object)
    r = RepFn(5, counts)
    assert r.counts.dtype == np.int64 and not r.counts.flags.writeable
    assert r.total() == 11 and r.square_sum() == 39
    assert r[7] == 5 and type(r[7]) is int


def test_repfn_huge_counts_stay_exact_objects():
    big = [2**62, 2**70 + 1, 0]
    r = RepFn(3, big)
    assert r.counts.dtype == object
    assert r.total() == sum(big)
    assert r.square_sum() == sum(c * c for c in big)


def test_repfn_int64_object_split_at_2_62():
    for counts in ([2**62 - 1, 0], np.array([2**62 - 1, 0], dtype=object)):
        assert RepFn(2, counts).counts.dtype == np.int64
    for counts in ([2**62, 0], np.array([2**62, 0], dtype=np.int64)):
        r = RepFn(2, counts)
        assert r.counts.dtype == object and r[0] == 2**62 and type(r[0]) is int


@pytest.mark.parametrize("q", [2, 7, 101])
def test_repfn_square_sum_at_word_boundary(q):
    c = math.isqrt((2**63 - 1) // q)  # c^2 * q just below 2^63: one int64 dot
    for count in (c, c + 1):  # (c + 1)^2 * q >= 2^63: int64 dots of 16-bit limbs
        r = RepFn(q, np.full(q, count, dtype=np.int64))
        assert r.counts.dtype == np.int64
        assert r.square_sum() == q * count * count
        assert r.total() == q * count
    assert q * (c + 1) ** 2 >= 2**63 > q * c * c


def object_oracle(counts):
    arr = np.array([int(c) for c in counts], dtype=object)
    return int(arr.sum()), int((arr * arr).sum())


PEAK_SQ_CAP = math.isqrt(2**63 - 1)  # the largest peak with peak^2 < 2^63


@pytest.mark.parametrize("q", [1, 2, 7, _LIMB_CHUNK, _LIMB_CHUNK + 1])
@pytest.mark.parametrize("peak", [2**30, PEAK_SQ_CAP, PEAK_SQ_CAP + 1, 2**62 - 1, 2**62])
def test_repfn_sums_on_both_sides_of_the_word(peak, q):
    # q * peak^2 (and q * peak) on either side of 2^63, limb chunks of one and two,
    # and 2^62, the first count stored as dtype object
    counts = [peak - (i % 3) for i in range(q)]
    r = RepFn(q, counts)
    assert r.counts.dtype == (np.int64 if peak < 2**62 else object)
    assert (r.total(), r.square_sum()) == object_oracle(counts)


@given(
    st.integers(1, 200),
    st.sampled_from([1, 2**20, 2**31, 2**42, 2**62, 2**63]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_exact_dot_and_sum_of_signed_int64(n, bound, square, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(-bound, bound, size=n, dtype=np.int64)
    y = x if square else rng.integers(-bound, bound, size=n, dtype=np.int64)
    x[rng.integers(n)] = -bound if bound < 2**63 else -(2**63)
    ox, oy = x.astype(object), y.astype(object)
    peak = max(abs(int(c)) for c in x.tolist() + y.tolist())
    assert _exact_dot(x, y, peak * peak) == int(np.dot(ox, oy))
    assert _exact_sums(x, peak) == [int(ox.sum())]
    assert _exact_sums(np.stack([x, y]), peak) == [int(ox.sum()), int(oy.sum())]


@given(st.integers(1, 3 * 10**9), st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_repfn_chunked_sums_property(peak, q, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, peak, size=q, endpoint=True, dtype=np.int64)
    counts[rng.integers(q)] = peak
    r = RepFn(q, counts)
    assert (r.total(), r.square_sum()) == object_oracle(counts.tolist())


@given(st.lists(st.integers(0, 2**64), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_repfn_sums_match_python(counts):
    r = RepFn(len(counts), counts)
    assert r.total() == sum(counts)
    assert r.square_sum() == sum(c * c for c in counts)
    assert [r[d] for d in range(len(counts))] == counts


@given(st.integers(1, 50), st.integers(0, 2**61))
@settings(max_examples=40, deadline=None)
def test_repfn_int64_sums_near_guard(q, peak):
    r = RepFn(q, np.full(q, peak, dtype=np.int64))
    assert r.total() == q * peak
    assert r.square_sum() == q * peak * peak
