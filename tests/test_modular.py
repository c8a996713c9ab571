import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from modroots.errors import CapacityError, DegenerateError
from modroots.modular import (
    _DIVIDE_MIN,
    ROOT_TABLE_CAP,
    CharacterTable,
    PrimeModulus,
    _mod,
    _power,
    character_table,
    gauss_sum,
    is_prime,
    kth_root_set,
    kth_roots,
    preimage_set,
    prime_array,
    primes_in,
    sqrt_mod,
)

from residue_oracles import TWELVE_WITNESSES, strong_probable_prime, twelve_witness_is_prime

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_primes_in_examples():
    assert primes_in(1, 10) == [2, 3, 5, 7]
    assert primes_in(8, 10) == []
    assert primes_in(0, 1) == []
    assert primes_in(97, 97) == [97]
    # the sieve's own array, empty or spanning several segments, is int64
    assert prime_array(0, 1).dtype == prime_array(8, 10).dtype == prime_array(1, 10**6).dtype == np.int64


def test_primes_in_million_against_plain_sieve():
    got = primes_in(1, 10**6)
    assert len(got) == 78498
    # independent plain sieve
    n = 10**6
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    expect = [i for i in range(n + 1) if flags[i]]
    assert got == expect


def test_primes_in_capacity():
    with pytest.raises(CapacityError):
        primes_in(0, 1 << 63)


# psi_k (OEIS A014233): the least strong pseudoprime to each of the first k
# prime bases, for k = 1..9 (psi_8 = psi_7)
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051)


@given(st.integers(0, 2**22 - 1))
@settings(max_examples=2000, deadline=None)
@example(0)
@example(1)
@example(37)
@example(41)
def test_is_prime_matches_the_twelve_witness_oracle(n):
    assert is_prime(n) == twelve_witness_is_prime(n)


@pytest.mark.parametrize("k", range(1, len(PSI) + 1))
def test_is_prime_at_each_strong_pseudoprime_bound(k):
    psi = PSI[k - 1]
    # psi_k fools the first k witnesses, so n = psi_k needs the next prefix
    assert all(strong_probable_prime(psi, a) for a in TWELVE_WITNESSES[:k])
    for n in range(psi - 2, psi + 3):
        assert is_prime(n) == twelve_witness_is_prime(n)
    assert not is_prime(psi)


def test_is_prime_above_the_last_prefix():
    # all 12 witnesses from psi_9 up to 2^63; 2^63 - 25 is the largest prime below 2^63
    assert is_prime(2**63 - 25) and not is_prime(2**63 - 27)
    for n in (PSI[-1] + 2, PSI[-1] + 4, 2**63 - 25, 2**63 - 1):
        assert is_prime(n) == twelve_witness_is_prime(n)


def test_prime_modulus_validation():
    PrimeModulus(7)
    with pytest.raises(ValueError):
        PrimeModulus(6)


def test_kth_roots_examples():
    assert kth_roots(2, 2, 7) == {3, 4}
    assert kth_roots(3, 2, 7) == set()
    assert kth_roots(0, 5, 11) == {0}
    assert kth_roots(1, 1, 13) == {1}


def test_kth_roots_against_exhaustive_scan():
    for q in SMALL_PRIMES:
        for k in range(1, 7):
            oracle = {}
            for x in range(q):
                oracle.setdefault(pow(x, k, q), set()).add(x)
            for a in range(q):
                assert kth_roots(a, k, q) == oracle.get(a, set())


def test_root_table_matches_scan_to_500():
    for q in primes_in(2, 500):
        for k in (2, 3, 6):
            xs = np.arange(q, dtype=np.int64)
            vals = np.ones(q, dtype=np.int64)
            for _ in range(k):
                vals = (vals * xs) % q
            for v in set(vals.tolist()):
                assert kth_root_set([v], k, q).tolist() == np.flatnonzero(vals == v).tolist()


@given(st.sampled_from(primes_in(3, 300)), st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_bucket_size_law(q, k, a):
    a %= q
    roots = kth_roots(a, k, q)
    if a == 0:
        assert roots == {0}
    else:
        assert len(roots) in (0, math.gcd(k, q - 1))


def test_sqrt_mod_agrees_with_table():
    for q in [5, 13, 17, 41, 73, 97, 193, 257]:
        for a in range(q):
            assert sqrt_mod(a, q) == kth_root_set([a], 2, q).tolist()


def test_sqrt_mod_large_prime():
    q = 2**61 - 1
    for a in (2, 3, 1234567891011):
        roots = sqrt_mod(a, q)
        for x in roots:
            assert pow(x, 2, q) == a % q


def test_kth_roots_above_table_cap():
    q = 2**61 - 1  # far above the table cap
    roots = kth_roots(4, 2, q)
    assert roots == {2, q - 2}
    assert kth_roots(125, 3, q) == {5, 875460085648034224, 1430382923565659722}
    assert kth_roots(5, 3, q) == set()


@given(st.lists(st.integers(0, 2**61 - 2), min_size=0, max_size=6), st.integers(0, 2**62),
       st.sampled_from([3, 65537, 2**31 - 1, 2**61 - 1]), st.sampled_from(["scalar", "constant", "rows"]))
@settings(max_examples=60, deadline=None)
def test_power_takes_scalars_constant_arrays_and_rows(xs, e, q, form):
    # one exponent and modulus as scalars, as arrays of one value each (reduced to the
    # scalar), or a row apiece (the per-row select and divisor)
    dtype = np.int64 if q < 2**31 else object
    x = np.array([v % q for v in xs], dtype=np.int64).astype(dtype)
    rows = form == "rows"
    es = [e + i * rows for i in range(len(xs))]
    qs = [7 if rows and i % 2 else q for i in range(len(xs))]
    if form == "scalar":
        got = _power(x, e, q)
    else:
        got = _power(x, np.array(es, dtype=dtype), np.array(qs, dtype=np.int64).astype(dtype))
    assert got.shape == x.shape and got.dtype == x.dtype
    assert got.tolist() == [pow(v % m, f, m) for v, f, m in zip(x.tolist(), es, qs)]
    assert _power(x[:, None], np.array([[e]], dtype=dtype), q).shape == (len(xs), 1)  # the broadcast shape


@pytest.mark.parametrize("q", [2**21 - 9, 2**21 + 17, 2**26 - 5, ROOT_TABLE_CAP + 15, 2**31 - 1, 2**31 + 11])
@pytest.mark.parametrize("size", [1, _DIVIDE_MIN - 1, _DIVIDE_MIN, 5000])
def test_scalar_reduction_matches_remainder(q, size):
    # a - a // q * q in place against %, on products of two residues up to (q - 1)^2:
    # int64 below 2^31, object arrays (always %) from 2^31 up, as root_rows makes them
    assert is_prime(q)
    dtype = np.int64 if q < 2**31 else object
    rng = np.random.default_rng(q + size)
    x = np.concatenate([[q - 1, q - 2, 1, 0], rng.integers(0, q, size)])[:size].astype(dtype)
    y = np.concatenate([[q - 1, 1, q - 1, 0], rng.integers(0, q, size)])[:size].astype(dtype)
    want = (x * y) % q
    got = _mod(x * y, q)
    assert got.dtype == dtype and np.array_equal(got, want)
    for e in (2, 3, q - 2):
        got = _power(x, e, q)
        assert got.dtype == dtype and got.tolist() == [pow(int(v), e, q) for v in x.tolist()]


def test_preimage_examples():
    assert sorted(preimage_set(1, 2, 3, 7).members) == [1, 3, 4, 6]
    assert sorted(preimage_set(1, 1, 6, 7).members) == [1, 2, 3, 4, 5, 6]
    assert sorted(preimage_set(1, 2, 1, 7).members) == [1, 6]
    with pytest.raises(ValueError):
        preimage_set(0, 2, 3, 7)
    with pytest.raises(ValueError):
        preimage_set(1, 2, 0, 7)


def test_preimage_table_consistency():
    # growing N adds exactly the roots of j^{-1} * v at each step
    q, k, j = 31, 3, 5
    j_inv = pow(j, -1, q)
    prev = set()
    for N in range(1, q + 1):
        cur = set(preimage_set(j, k, N, q).members)
        added = cur - prev
        assert added == kth_roots(j_inv * N % q, k, q) - {0}
        prev = cur
    assert prev == set(range(1, q))


def test_character_table_properties():
    for q in [3, 5, 7, 11, 13, 101]:
        tab = character_table(q)
        assert tab.chi[0] == 0
        assert sum(tab.chi) == 0
        assert abs(abs(tab.eps_q) - 1) < 1e-12
        for a in range(1, q):
            for b in range(1, q):
                assert tab.chi[a * b % q] == tab.chi[a] * tab.chi[b]
        assert tab.eps_q == (1 if q % 4 == 1 else 1j)


def test_character_table_is_a_read_only_int64_array():
    for q in (3, 257, 100003):
        chi = character_table(q).chi
        assert chi.dtype == np.int64 and chi.shape == (q,) and not chi.flags.writeable
        squares = np.zeros(q, dtype=bool)
        squares[[x * x % q for x in range(1, q)]] = True
        assert chi[0] == 0 and (chi[1:] == np.where(squares[1:], 1, -1)).all()
        assert int(chi.sum()) == 0
    assert type(gauss_sum(3, 1, 257)) is complex
    above_cap = next(q for q in range(ROOT_TABLE_CAP + 1, ROOT_TABLE_CAP + 200) if is_prime(q))
    with pytest.raises(CapacityError):
        CharacterTable.build(above_cap)


def test_character_table_rejects_q2():
    with pytest.raises(DegenerateError):
        CharacterTable.build(2)


def test_gauss_sum_anchors():
    assert abs(gauss_sum(1, 0, 5) - math.sqrt(5)) < 1e-12
    assert abs(gauss_sum(1, 0, 7) - 1j * math.sqrt(7)) < 1e-12


def test_gauss_sum_modulus_sampled():
    for q in [3, 11, 23, 101, 499]:
        for b in [1, 2, q - 1]:
            for h in [0, 1, q // 2]:
                assert abs(abs(gauss_sum(b, h, q)) - math.sqrt(q)) < 1e-9 * math.sqrt(q)


def test_gauss_sum_no_int64_wrap_at_3000017():
    # b*x*x reaches 2.7e19 here; every product must be reduced mod q first
    q = 3000017
    for b, h in [(q - 2, 1), (q - 1, q - 1), (1, 0)]:
        assert abs(abs(gauss_sum(b, h, q)) - math.sqrt(q)) < 1e-9 * math.sqrt(q)


def test_gauss_sum_capacity_above_word_square():
    q = 3037000507  # the least prime with (q-1)^2 >= 2^63
    assert primes_in(3037000493, q) == [3037000493, q]
    assert (3037000493 - 1) ** 2 < 1 << 63 <= (q - 1) ** 2
    with pytest.raises(CapacityError):
        gauss_sum(1, 0, q)


def test_gauss_sum_degenerate():
    with pytest.raises(DegenerateError):
        gauss_sum(0, 1, 7)
    with pytest.raises(DegenerateError):
        gauss_sum(1, 0, 2)
