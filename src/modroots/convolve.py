"""Exact cyclic convolution of integer vectors.

Three paths with identical output, chosen by method="auto":
  * naive O(q^2) np.convolve (int64, or exact object arrays once
    max|u| * max|v| * q reaches 2^62) for q <= NAIVE_THRESHOLD;
  * a float64 FFT (numpy.fft, zero-padded to L = 2^ceil(log2(2q - 1))),
    rounded to int64.  It is taken only when Percival's a-priori error bound
    (Math. Comp. 72 (2003), Thm 5.1) certifies every linear-convolution entry
    to within 1/4, computed from exact integer sums of squares, and when the
    rounded result satisfies the exact identity sum(w) = sum(u) * sum(v);
  * otherwise number-theoretic transforms modulo a pool of 31-bit primes
    c*2^20 + 1, recombined by CRT, with the prime count sized from an
    a-priori magnitude bound so reconstruction is always exact.  Transforms
    longer than 2^20, or a bound beyond the whole pool, raise CapacityError.

The result is an int64 array when the a-priori magnitude bound is below 2^62
and an object array of exact Python ints above it.  Entries may be
arbitrary-precision (and negative); the CRT reconstruction is balanced.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .modular import is_prime
from .sets import _INT64_COUNT_CAP, _WORD_CAP, _as_array, _exact_dot, _exact_sum

NAIVE_THRESHOLD = 512
_TWO_ADIC = 20  # transforms up to length 2^20
_FLOAT_PEAK_CAP = 1 << 31  # float path inputs: entries (and their squares) fit exactly


@lru_cache(maxsize=1)
def _prime_pool() -> tuple:
    """All primes c*2^20 + 1 below 2^31, largest first (modmuls fit in int64)."""
    pool = []
    for c in range(2047, 0, -2):
        p = (c << _TWO_ADIC) | 1
        if is_prime(p):
            pool.append(p)
    return tuple(pool)


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


def _padded_length(q: int) -> int:
    """Smallest power of two >= 2q - 1: the linear convolution does not wrap."""
    return 1 << (2 * q - 2).bit_length()


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


@lru_cache(maxsize=None)
def _norm_limit(levels: int) -> int:
    """Least integer S with S >= 1 / (16 f^2), f Percival's relative error factor.

    f = (1+e)^(3n) (1+e*sqrt5)^(3n+1) (1+b)^(3n) - 1 with e = 2^-53 (float64
    rounding), b = 2^-50 (twiddle error) and n = `levels`, evaluated exactly with
    sqrt5 rounded up.  An integer |u|^2 |v|^2 < S gives |u| |v| f < 1/4.
    """
    eps, beta = Fraction(1, 1 << 53), Fraction(1, 1 << 50)
    sqrt5 = Fraction(math.isqrt(5 << 120) + 1, 1 << 60)
    n3 = 3 * levels
    f = (1 + eps) ** n3 * (1 + eps * sqrt5) ** (n3 + 1) * (1 + beta) ** n3 - 1
    return math.ceil(1 / (16 * f * f))


def _peak(x: np.ndarray) -> int:
    """max |x_i| of a nonempty array, as an exact Python int."""
    return max(int(x.max()), -int(x.min()))


def _float_convolve(u: np.ndarray, v: np.ndarray):
    """Cyclic convolution of int64 arrays by float64 FFT, or None when uncertified.

    The linear convolution is computed at length L = 2^ceil(log2(2q - 1)) and
    each entry rounded, then folded mod q.  Percival's bound, counted over
    log2(L) + 1 levels to cover the real-input packing of rfft, puts every
    linear entry within |u| |v| f < 1/4 of its true value, so rounding is
    exact.  Returns None (the caller falls back to the NTT) when the bound
    fails, when an entry reaches 2^31, or when sum(w) != sum(u) * sum(v).
    """
    q = len(u)
    if u.dtype != np.int64 or v.dtype != np.int64:
        return None
    pu, pv = _peak(u), _peak(v)
    if max(pu, pv) >= _FLOAT_PEAK_CAP:
        return None
    L = _padded_length(q)
    su = _exact_dot(u, u, pu * pu)
    sv = su if v is u else _exact_dot(v, v, pv * pv)
    if su * sv >= _norm_limit(L.bit_length()):
        return None
    fu = np.fft.rfft(u, L)
    if v is u:
        fu *= fu
    else:
        fu *= np.fft.rfft(v, L)
    lin = np.fft.irfft(fu, L)
    del fu
    np.rint(lin, out=lin)
    # every rounded entry is an exact integer below 2^53, and so is each folded sum
    lin[: q - 1] += lin[q : 2 * q - 1]
    w = lin[:q].astype(np.int64)
    if _exact_sum(w, _peak(w)) != _exact_sum(u, pu) * _exact_sum(v, pv):
        return None
    return w


def cyclic_convolve(u, v, method: str = "auto") -> np.ndarray:
    """w(d) = sum_x u(x) * v(d - x mod q), exact.

    u and v may be lists, int64 arrays or object arrays of arbitrary-precision
    ints.  method: "auto" picks naive for q <= NAIVE_THRESHOLD, else the float
    FFT when Percival's bound certifies it, else NTT+CRT; "naive" / "ntt" force
    a path (used by oracle-equality tests).  Returns an int64 array, or an
    object array when the magnitude bound reaches 2^62.
    """
    u = _as_array(u)
    v = _as_array(v)
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    q = len(u)
    if method not in ("auto", "naive", "ntt"):
        raise ValueError(f"unknown method {method!r}")
    if q == 0:
        return np.zeros(0, dtype=np.int64)

    max_u, max_v = _peak(u), _peak(v)
    if u.dtype == object and max_u < _WORD_CAP:
        u = u.astype(np.int64)
    if v.dtype == object and max_v < _WORD_CAP:
        v = v.astype(np.int64)
    if method == "naive" or (method == "auto" and q <= NAIVE_THRESHOLD):
        dtype = np.int64 if max(max_u, 1) * max(max_v, 1) * q < _INT64_COUNT_CAP else object
        lin = np.convolve(u.astype(dtype), v.astype(dtype))
        lin[: q - 1] += lin[q:]
        return lin[:q]

    if max_u == 0 or max_v == 0:
        return np.zeros(q, dtype=np.int64)
    if method == "auto":
        w = _float_convolve(u, v)
        if w is not None:
            return w

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
