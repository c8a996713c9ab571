"""Exact cyclic convolution of integer vectors.

Two paths with identical output:
  * naive O(q^2) np.convolve (int64, or exact object arrays once
    max|u| * max|v| * q reaches 2^62) for q <= NAIVE_THRESHOLD;
  * number-theoretic transforms modulo a pool of 31-bit primes c*2^20 + 1,
    recombined by CRT, with the prime count sized from an a-priori magnitude
    bound so reconstruction is always exact.

Entries may be arbitrary-precision (and negative); the CRT reconstruction is
balanced.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .modular import is_prime
from .sets import _as_array

NAIVE_THRESHOLD = 512
_TWO_ADIC = 20  # transforms up to length 2^20


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
    """Powers w^0..w^(length/2 - 1) of the order-`length` root of unity mod p."""
    g = _primitive_root(p)
    w = pow(g, (p - 1) // length, p)
    if invert:
        w = pow(w, p - 2, p)
    out = np.empty(length // 2, dtype=np.int64)
    acc = 1
    for i in range(length // 2):
        out[i] = acc
        acc = acc * w % p
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
    L = 1
    while L < 2 * q - 1:
        L <<= 1
    if L > (1 << _TWO_ADIC):
        raise ValueError(f"transform length {L} exceeds 2^{_TWO_ADIC}")
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


def cyclic_convolve(u, v, method: str = "auto") -> list:
    """w(d) = sum_x u(x) * v(d - x mod q), exact.

    u and v may be lists, int64 arrays or object arrays of arbitrary-precision
    ints.  method: "auto" picks naive for q <= NAIVE_THRESHOLD, else NTT+CRT;
    "naive" / "ntt" force a path (used by oracle-equality tests).
    """
    u = _as_array(u)
    v = _as_array(v)
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    q = len(u)
    if q == 0:
        return []
    if method not in ("auto", "naive", "ntt"):
        raise ValueError(f"unknown method {method!r}")

    abs_u = np.abs(u.astype(object))
    abs_v = np.abs(v.astype(object))
    max_u, max_v = abs_u.max(), abs_v.max()
    if method == "naive" or (method == "auto" and q <= NAIVE_THRESHOLD):
        dtype = np.int64 if max(max_u, 1) * max(max_v, 1) * q < (1 << 62) else object
        lin = np.convolve(u.astype(dtype), v.astype(dtype))
        lin[: q - 1] += lin[q:]
        return lin[:q].tolist()

    bound = min(abs_u.sum() * max_v, abs_v.sum() * max_u)
    if bound == 0:
        return [0] * q

    primes = []
    modulus = 1
    for p in _prime_pool():
        primes.append(p)
        modulus *= p
        if modulus > 2 * bound + 1:
            break
    else:
        raise ValueError("magnitude bound exceeds CRT prime pool capacity")

    # balanced CRT reconstruction: sum_i residue_i * basis_i mod M, lifted to (-M/2, M/2]
    out = 0
    for p in primes:
        mi = modulus // p
        w = _convolve_mod((u % p).astype(np.int64), (v % p).astype(np.int64), p, q)
        out = out + w.astype(object) * (mi * pow(mi % p, p - 2, p))
    out %= modulus
    out[out > modulus // 2] -= modulus
    return out.tolist()
