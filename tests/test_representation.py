"""Boundary cases of the array representation: IndicatorSet members, the
inputs cyclic_convolve accepts, and representation counts on both sides of
the pair-count limit."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modroots.energy as energy
from modroots.convolve import cyclic_convolve
from modroots.energy import difference_rep, sum_rep
from modroots.rng import SplitMix64
from modroots.sets import IndicatorSet

from convolve_oracles import naive_convolve, ntt_convolve
from test_convolve import naive_oracle


def assert_canonical(A: IndicatorSet, expect):
    m = A.members
    assert isinstance(m, np.ndarray) and m.dtype == np.int64 and m.ndim == 1
    assert m.tolist() == sorted(set(expect))
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[:1] = 0


@pytest.mark.parametrize(
    "members",
    [
        frozenset({5, 0, 3}),
        [5, 3, 0, 5, 3],
        np.array([5, 0, 3, 0], dtype=np.int64),
        np.array([0, 3, 5], dtype=np.int32),
        (x for x in (3, 5, 0)),
    ],
)
def test_constructor_sorts_and_dedups(members):
    assert_canonical(IndicatorSet(7, members), [0, 3, 5])


def test_increasing_int64_array_is_adopted_without_copy():
    arr = np.array([1, 4, 6], dtype=np.int64)
    A = IndicatorSet(7, arr)
    assert np.shares_memory(A.members, arr)
    assert arr.flags.writeable  # the caller's array is left as it was
    assert_canonical(A, [1, 4, 6])


@pytest.mark.parametrize("empty", [[], frozenset(), np.empty(0, dtype=np.int64), ()])
def test_empty_input(empty):
    A = IndicatorSet(5, empty)
    assert A.cardinality == 0
    assert_canonical(A, [])
    assert A.vector().tolist() == [0] * 5


@pytest.mark.parametrize(
    "members",
    [
        [7],
        [-1],
        [0, 2**70],
        [-(2**70)],
        frozenset({3, 9}),
        np.array([-1, 3], dtype=np.int64),
        np.array([0, 7], dtype=np.int64),
        np.array([7, 0], dtype=np.int64),
    ],
)
def test_out_of_range_residues_raise(members):
    with pytest.raises(ValueError, match="outside"):
        IndicatorSet(7, members)


def test_bad_modulus():
    with pytest.raises(ValueError):
        IndicatorSet(0, [])


def test_equality_and_unhashable():
    A = IndicatorSet(7, [1, 3])
    assert A == IndicatorSet(7, np.array([1, 3], dtype=np.int64))
    assert A == IndicatorSet.of(7, [8, 3, 1])
    assert A != IndicatorSet(11, [1, 3])
    assert A != IndicatorSet(7, [1, 4])
    assert A != IndicatorSet(7, [1])
    assert A != frozenset({1, 3})
    assert IndicatorSet(7, []) == IndicatorSet(7, frozenset())
    with pytest.raises(TypeError):
        hash(A)


def test_vector_is_int64_indicator():
    vec = IndicatorSet(6, [0, 2, 5]).vector()
    assert vec.dtype == np.int64
    assert vec.tolist() == [1, 0, 1, 0, 0, 1]


@given(st.integers(1, 300), st.lists(st.integers(0, 10**6), max_size=60))
@settings(max_examples=60, deadline=None)
def test_constructor_property(q, raw):
    elems = [x % q for x in raw]
    A = IndicatorSet(q, elems)
    assert_canonical(A, elems)
    assert A == IndicatorSet(q, np.array(elems[::-1], dtype=np.int64))
    assert A.cardinality == len(set(elems))


# --- cyclic_convolve inputs ---------------------------------------------------

WORD_EDGES = [2**63 - 1, 2**63, -(2**63), -(2**63) + 1, -1, 0, 1, 2**62]
BIG = st.one_of(st.sampled_from(WORD_EDGES), st.integers(-(2**70), 2**70), st.integers(-5, 5))
INT64 = st.one_of(
    st.sampled_from([2**63 - 1, -(2**63), -(2**63) + 1, 2**62, -1, 0, 1]),
    st.integers(-(2**63), 2**63 - 1),
)


@st.composite
def vector_pairs(draw, elems):
    q = draw(st.integers(3, 12))
    return tuple(draw(st.lists(elems, min_size=q, max_size=q)) for _ in range(2))


def _check(u_in, v_in, u, v):
    expect = naive_oracle(u, v)
    for convolve in (naive_convolve, ntt_convolve, cyclic_convolve):
        got = convolve(u_in, v_in).tolist()
        assert got == expect
        assert all(type(x) is int for x in got)


def test_word_edges_in_lists():
    u = [2**63 - 1, 2**63, -(2**63), -5, 0, 3]
    v = [-1, 2**63, 7, -(2**63), 2**63 - 1, 0]
    _check(u, v, u, v)
    # alone, 2^63 and [2^63, -1] are what numpy would infer as uint64 and float64
    _check([2**63, 0, 0], [1, 0, 0], [2**63, 0, 0], [1, 0, 0])
    _check([2**63, -1, 0], [0, 1, 1], [2**63, -1, 0], [0, 1, 1])


@given(vector_pairs(BIG))
@settings(max_examples=80, deadline=None)
def test_lists_and_object_arrays_against_oracle(pair):
    u, v = pair
    _check(u, v, u, v)
    _check(np.array(u, dtype=object), np.array(v, dtype=object), u, v)
    _check(np.array(u, dtype=object), v, u, v)


@given(vector_pairs(INT64))
@settings(max_examples=80, deadline=None)
def test_int64_arrays_against_oracle(pair):
    u, v = pair
    _check(np.array(u, dtype=np.int64), np.array(v, dtype=np.int64), u, v)
    _check(np.array(u, dtype=np.int64), np.array(v, dtype=object), u, v)


def test_inputs_are_not_modified():
    u = np.array([1, -2, 3, 2**62], dtype=np.int64)
    v = np.array([2**63 - 1, 0, -1, 5], dtype=object)
    u0, v0 = u.copy(), v.copy()
    for convolve in (naive_convolve, ntt_convolve, cyclic_convolve):
        convolve(u, v)
    assert u.tolist() == u0.tolist() and v.tolist() == v0.tolist()


# --- representation counts on both sides of the pair-count limit --------------


def tuple_counts(members, q, nu):
    """#{(a1..a_nu) in A^nu : a1 + ... + a_nu = d (mod q)}, by iterated sums."""
    counts = [1] + [0] * (q - 1)
    for _ in range(nu):
        nxt = [0] * q
        for d, c in enumerate(counts):
            if c:
                for a in members:
                    nxt[(d + a) % q] += c
        counts = nxt
    return counts


def diff_counts(members, q):
    c = Counter((a - b) % q for a in members for b in members)
    return [c[d] for d in range(q)]


@pytest.mark.parametrize("limit", [0, energy._BINCOUNT_PAIR_LIMIT])
@pytest.mark.parametrize("q", [61, 613])
def test_reps_against_tuple_counts(monkeypatch, limit, q):
    # limit 0 makes every nonempty set dense: its pair counts take the kernel's float FFT, and
    # nu >= 3 convolves them naively at q = 61 and by the float FFT at q = 613 > NAIVE_THRESHOLD
    monkeypatch.setattr(energy, "_BINCOUNT_PAIR_LIMIT", limit)
    rng = SplitMix64(q + limit)
    for size in (1, 2, 9, 40):
        A = IndicatorSet(q, rng.subset(q, size))
        members = A.members.tolist()
        assert difference_rep(A).counts.tolist() == diff_counts(members, q)
        for nu in (1, 2, 3, 4):
            assert sum_rep(A, nu).counts.tolist() == tuple_counts(members, q, nu)


@pytest.mark.parametrize("n", [2048, 2049])
def test_reps_at_the_pair_limit(n):
    # n^2 = 2^22 is the last set size counted pairwise; an interval has closed-form counts
    assert 2048**2 == energy._BINCOUNT_PAIR_LIMIT
    q = 4099  # 2n - 1 <= q: no sum or difference wraps around
    A = IndicatorSet(q, np.arange(n, dtype=np.int64))
    expect_diff = [0] * q
    for t in range(-(n - 1), n):
        expect_diff[t % q] = n - abs(t)
    assert difference_rep(A).counts.tolist() == expect_diff
    expect_sum = [max(0, n - abs(s - (n - 1))) for s in range(q)]
    assert sum_rep(A, 2).counts.tolist() == expect_sum
