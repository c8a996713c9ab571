import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modroots.convolve import NAIVE_THRESHOLD, cyclic_convolve
from modroots.errors import CapacityError
from modroots.prodpoly import _prime_pool
from modroots.rng import SplitMix64

from convolve_oracles import _TWO_ADIC, _primitive_root, _root_powers, naive_convolve, ntt_convolve


def naive_oracle(u, v):
    q = len(u)
    out = [0] * q
    for i in range(q):
        for j in range(q):
            out[(i + j) % q] += u[i] * v[j]
    return out


def test_delta_identity():
    v = [3, 1, 4, 1, 5, 9, 2]
    delta = [1] + [0] * 6
    assert cyclic_convolve(delta, v).tolist() == v


def test_all_ones():
    assert cyclic_convolve([1] * 5, [1] * 5).tolist() == [5] * 5


def test_length_mismatch():
    with pytest.raises(ValueError):
        cyclic_convolve([1, 2], [1, 2, 3])


def test_random_against_double_loop():
    rng = SplitMix64(11)
    for q in (1, 2, 17, 97):
        u = [rng.randint(0, 10) for _ in range(q)]
        v = [rng.randint(0, 10) for _ in range(q)]
        expect = naive_oracle(u, v)
        assert cyclic_convolve(u, v).tolist() == expect
        assert naive_convolve(u, v).tolist() == expect
        if q > 2:
            assert ntt_convolve(u, v).tolist() == expect


def test_ntt_equals_naive_signed_and_big():
    rng = SplitMix64(5)
    q = 701
    u = [rng.randint(0, 2**40) - 2**39 for _ in range(q)]
    v = [rng.randint(0, 2**40) - 2**39 for _ in range(q)]
    expect = naive_convolve(u, v).tolist()
    assert ntt_convolve(u, v).tolist() == expect
    assert cyclic_convolve(u, v).tolist() == expect  # q > NAIVE_THRESHOLD: the split route
    # entries far beyond 64 bits
    q = 60
    u = [rng.randint(0, 2**200) for _ in range(q)]
    v = [rng.randint(0, 2**200) for _ in range(q)]
    assert ntt_convolve(u, v).tolist() == naive_oracle(u, v)


def test_paths_agree_for_every_length_to_200():
    rng = SplitMix64(200)
    for q in range(3, 201):
        u = [rng.randint(0, 30) for _ in range(q)]
        v = [rng.randint(0, 30) for _ in range(q)]
        assert ntt_convolve(u, v).tolist() == naive_convolve(u, v).tolist()


def test_auto_threshold_paths_agree():
    rng = SplitMix64(77)
    q = NAIVE_THRESHOLD + 7
    u = [rng.randint(0, q) for _ in range(q)]
    v = [rng.randint(0, q) for _ in range(q)]
    assert cyclic_convolve(u, v).tolist() == naive_convolve(u, v).tolist()


def test_prime_pool_properties():
    pool = _prime_pool()
    assert len(pool) >= 20
    for p in pool[:10]:
        assert (p - 1) % (1 << 20) == 0


@pytest.mark.parametrize("p", [_prime_pool()[0], _prime_pool()[-1]])
@pytest.mark.parametrize("invert", [False, True])
def test_root_powers_match_stepwise_powers(p, invert):
    for length in (2, 4, 8, 1 << 10, 1 << 16):
        w = pow(_primitive_root(p), (p - 1) // length, p)
        if invert:
            w = pow(w, p - 2, p)
        expect = [pow(w, i, p) for i in range(length // 2)]
        got = _root_powers(p, length, invert)
        assert got.dtype == np.int64 and got.tolist() == expect


def test_ntt_length_cap_is_a_capacity_error():
    # q = 2^19 is the last length whose zero-padded transform (2^20) fits the pool
    q = 1 << (_TWO_ADIC - 1)
    u = np.zeros(q, dtype=np.int64)
    u[0] = 1
    v = np.zeros(q, dtype=np.int64)
    v[[0, 5, q - 1]] = [3, 1, 2]
    assert ntt_convolve(u, v).tolist() == v.tolist()
    u, v = np.ones(q + 1, dtype=np.int64), np.ones(q + 1, dtype=np.int64)
    with pytest.raises(CapacityError, match="transform length"):
        ntt_convolve(u, v)


def test_crt_pool_capacity_is_a_capacity_error():
    capacity = math.prod(_prime_pool())
    small, big = 1 << 1400, 1 << 1600  # bounds 2^2800 and 2^3200 on either side
    assert small * small * 2 + 1 < capacity < big * big * 2 + 1
    assert ntt_convolve([small, 0, 1], [small, 0, 0]).tolist() == [small * small, 0, small]
    with pytest.raises(CapacityError, match="CRT prime pool"):
        ntt_convolve([big, 0, 0], [big, 0, 0])


def test_array_result_dtypes():
    w = cyclic_convolve([1, 2, 3], [4, 5, 6])
    assert isinstance(w, np.ndarray) and w.dtype == np.int64
    assert cyclic_convolve([2**40, 0, 0], [2**40, 0, 0]).dtype == object
    q = NAIVE_THRESHOLD + 1
    for convolve in (cyclic_convolve, ntt_convolve):
        assert convolve([1] * q, [1] * q).dtype == np.int64
        assert convolve([0] * q, [5] * q).tolist() == [0] * q
    big = [2**40] + [0] * (q - 1)
    w = cyclic_convolve(big, big)
    assert w.dtype == object and w.tolist() == [2**80] + [0] * (q - 1)


@given(st.integers(2, 40), st.integers(0, 2**63), st.integers(0, 2**63))
@settings(max_examples=40, deadline=None)
def test_commutativity_property(q, s1, s2):
    r1, r2 = SplitMix64(s1), SplitMix64(s2)
    u = [r1.randint(-20, 20) for _ in range(q)]
    v = [r2.randint(-20, 20) for _ in range(q)]
    assert cyclic_convolve(u, v).tolist() == cyclic_convolve(v, u).tolist()
