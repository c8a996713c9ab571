"""Oracles for cyclic convolution.

These are the routes the certified float FFT and its bit split replaced as
production paths: the quadratic np.convolve route forced at every length,
and number-theoretic transforms modulo the 31-bit primes c*2^20 + 1,
recombined by a balanced CRT whose prime count is sized from an a-priori
magnitude bound.  They share no arithmetic with the float path, so the tests
compare cyclic_convolve against them.  The NTT keeps its own limits: a
transform longer than 2^20 points (q > 2^19), or a bound beyond the whole
prime pool, raises CapacityError.
"""

from functools import lru_cache

import numpy as np

from modroots.convolve import _narrow, _padded_length, _peak
from modroots.errors import CapacityError
from modroots.prodpoly import _prime_pool
from modroots.sets import _INT64_COUNT_CAP, _WORD_CAP, _as_array

_TWO_ADIC = 20  # transforms up to length 2^20


def _operands(u, v):
    """u, v as arrays of equal length, object arrays that fit a word narrowed to int64."""
    u, v = _as_array(u), _as_array(v)
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    if not len(u):
        return u, v, 0, 0
    max_u, max_v = _peak(u), _peak(v)
    return _narrow(u, max_u), _narrow(v, max_v), max_u, max_v


def naive_convolve(u, v) -> np.ndarray:
    """np.convolve folded mod q, int64 or exact object arrays, at any length."""
    u, v, max_u, max_v = _operands(u, v)
    q = len(u)
    if q == 0:
        return np.zeros(0, dtype=np.int64)
    dtype = np.int64 if max(max_u, 1) * max(max_v, 1) * q < _INT64_COUNT_CAP else object
    lin = np.convolve(u.astype(dtype), v.astype(dtype))
    lin[: q - 1] += lin[q:]
    return lin[:q]


@lru_cache(maxsize=64)
def _primitive_root(p: int) -> int:
    n = p - 1
    factors = set()
    m = n
    for f in range(2, 1 << 12):
        while m % f == 0:
            factors.add(f)
            m //= f
    if m > 1:
        factors.add(m)
    g = 2
    while any(pow(g, n // f, p) == 1 for f in factors):
        g += 1
    return g


@lru_cache(maxsize=256)
def _root_powers(p: int, length: int, invert: bool) -> np.ndarray:
    """Powers w^0..w^(length/2 - 1) of the order-`length` root of unity mod p.

    Built by doubling: w^(m..2m-1) = w^(0..m-1) * w^m mod p.
    """
    g = _primitive_root(p)
    w = pow(g, (p - 1) // length, p)
    if invert:
        w = pow(w, p - 2, p)
    half = length // 2
    out = np.empty(half, dtype=np.int64)
    out[0] = 1
    m = 1
    while m < half:
        out[m : 2 * m] = out[:m] * pow(w, m, p) % p
        m <<= 1
    return out


def _ntt(a: np.ndarray, p: int, invert: bool) -> np.ndarray:
    n = len(a)
    # bit-reversal permutation
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    bits = n.bit_length() - 1
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    a = a[rev].copy()
    length = 2
    while length <= n:
        w = _root_powers(p, length, invert)
        blocks = a.reshape(n // length, length)
        u = blocks[:, : length // 2].copy()
        v = (blocks[:, length // 2 :] * w) % p
        blocks[:, : length // 2] = (u + v) % p
        blocks[:, length // 2 :] = (u - v) % p
        length <<= 1
    if invert:
        inv_n = pow(n, p - 2, p)
        a = (a * inv_n) % p
    return a


def _convolve_mod(u: np.ndarray, v: np.ndarray, p: int, q: int) -> np.ndarray:
    L = _padded_length(q)
    if L > (1 << _TWO_ADIC):
        raise CapacityError(f"transform length {L} exceeds 2^{_TWO_ADIC}")
    ua = np.zeros(L, dtype=np.int64)
    va = np.zeros(L, dtype=np.int64)
    ua[:q] = u
    va[:q] = v
    fu = _ntt(ua, p, invert=False)
    fv = _ntt(va, p, invert=False)
    lin = _ntt((fu * fv) % p, p, invert=True)
    out = lin[:q].copy()
    out[: q - 1] = (out[: q - 1] + lin[q : 2 * q - 1]) % p
    return out


def ntt_convolve(u, v) -> np.ndarray:
    """NTT+CRT cyclic convolution: int64 below the 2^62 magnitude bound, object above."""
    u, v, max_u, max_v = _operands(u, v)
    q = len(u)
    if q == 0 or max_u == 0 or max_v == 0:
        return np.zeros(q, dtype=np.int64)

    if q * max_u * max_v < _WORD_CAP:  # u and v are int64 and no sum below can wrap
        bound = min(int(np.abs(u).sum()) * max_v, int(np.abs(v).sum()) * max_u)
    else:
        bound = min(np.abs(u.astype(object)).sum() * max_v, np.abs(v.astype(object)).sum() * max_u)

    primes = []
    modulus = 1
    for p in _prime_pool():
        primes.append(p)
        modulus *= p
        if modulus > 2 * bound + 1:
            break
    else:
        raise CapacityError("magnitude bound exceeds CRT prime pool capacity")

    # balanced CRT reconstruction: sum_i residue_i * basis_i mod M, lifted to (-M/2, M/2]
    out = 0
    for p in primes:
        mi = modulus // p
        w = _convolve_mod((u % p).astype(np.int64), (v % p).astype(np.int64), p, q)
        out = out + w.astype(object) * (mi * pow(mi % p, p - 2, p))
    out %= modulus
    out[out > modulus // 2] -= modulus
    return out.astype(np.int64) if bound < _INT64_COUNT_CAP else out
