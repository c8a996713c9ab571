"""Exact cyclic convolution of integer vectors.

Two paths with identical output:
  * naive O(q^2) np.convolve (int64, or exact object arrays once
    max|u| * max|v| * q reaches 2^62) for q <= NAIVE_THRESHOLD;
  * above it, a float64 FFT (numpy.fft, zero-padded to L = 2^ceil(log2(2q - 1))),
    rounded to int64, for pairs that Percival's a-priori error bound (Math.
    Comp. 72 (2003), Thm 5.1) certifies.  A pair it does not certify is split:
    the operand x with the larger peak is hi * 2^b + lo, b half its bit
    length, lo = x & (2^b - 1) and hi = x >> b (exact for negative and
    arbitrary-precision entries), and each half is convolved the same way.
    Only operands in {-1, 0, 1} can fail for good, with CapacityError.

The float FFT, _float_convolve, works along the last axis: energy._dense_counts
passes it whole blocks of 0/1 rows, one transform and one certificate a block,
and reads the difference counts as correlations, from conj(rfft).

cyclic_convolve's result is int64 when the a-priori bound
min(|u|_1 max|v|, |v|_1 max|u|) is below 2^62 and an object array of exact
Python ints above it.  The NTT+CRT route is the test oracle
(tests/convolve_oracles.py).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .sets import _INT64_COUNT_CAP, _WORD_CAP, _as_array, _exact_sums

NAIVE_THRESHOLD = 512
_FLOAT_PEAK_CAP = 1 << 31  # float path inputs: entries (and their squares) fit exactly


def _padded_length(q: int) -> int:
    """Smallest power of two >= 2q - 1: the linear convolution does not wrap."""
    return 1 << (2 * q - 2).bit_length()


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


def _narrow(x: np.ndarray, peak: int) -> np.ndarray:
    """x as int64 when it is an object array whose entries all fit a word."""
    return x.astype(np.int64) if x.dtype == object and peak < _WORD_CAP else x


def _float_convolve(u: np.ndarray, v: np.ndarray, negate: bool = False):
    """Cyclic convolutions of int64 rows by float64 FFT, along the last axis, or
    None when uncertified.

    Row r of the result is w(d) = sum_x u_r(x) v_r(d - x mod q), or, when
    negate, the correlation sum_x u_r(x) v_r(x - d), from conj(rfft(v)).  The
    linear convolution is computed at length L = 2^ceil(log2(2q - 1)) and each
    entry rounded, then folded mod q (a correlation's lag d - q sits at
    L + d - q).  Percival's bound, counted over log2(L) + 1 levels to cover
    the real-input packing of rfft and taken from the largest row norms of u
    and v, puts every linear entry within |u| |v| f < 1/4 of its true value,
    so rounding is exact; conjugation is exact and keeps the norms, so the
    bound holds for the correlation too.  v is u costs one forward transform.
    Returns None when the bound fails, when an entry reaches 2^31, or for
    object arrays; raises ArithmeticError when a certified row breaks
    sum(w) = sum(u) * sum(v).
    """
    q = u.shape[-1]
    if u.dtype != np.int64 or v.dtype != np.int64:
        return None
    pu, pv = _peak(u), _peak(v)
    if max(pu, pv) >= _FLOAT_PEAK_CAP:
        return None
    L = _padded_length(q)
    su = max(_exact_sums(u * u, pu * pu))  # the largest row norms; squares below 2^62
    sv = su if v is u else max(_exact_sums(v * v, pv * pv))
    if su * sv >= _norm_limit(L.bit_length()):
        return None
    fu = np.fft.rfft(u, L)
    fv = fu if v is u else np.fft.rfft(v, L)
    fu *= np.conj(fv) if negate else fv
    del fv
    lin = np.fft.irfft(fu, L)
    del fu
    np.rint(lin, out=lin)
    # every rounded entry is an exact integer below 2^53, and so is each folded sum
    if negate:
        lin[..., 1:q] += lin[..., L - q + 1 :]
    else:
        lin[..., : q - 1] += lin[..., q : 2 * q - 1]
    w = lin[..., :q].astype(np.int64)
    if _exact_sums(w, _peak(w)) != [a * b for a, b in zip(_exact_sums(u, pu), _exact_sums(v, pv))]:
        raise ArithmeticError(f"certified float convolution of length {q} breaks sum(w) = sum(u) * sum(v)")
    return w


def _split_convolve(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u * v for a pair _float_convolve declined, split at half the larger peak's bit length."""
    pu, pv = _peak(u), _peak(v)
    if pu < pv:
        u, v, pu = v, u, pv
    b = pu.bit_length() // 2
    if b == 0:
        raise CapacityError(f"operands in {{-1, 0, 1}} of length {len(u)} exceed the float error bound")
    halves = []
    for x in (u >> b, u & ((1 << b) - 1)):
        x = _narrow(x, _peak(x))
        w = _float_convolve(x, v)
        halves.append(_split_convolve(x, v) if w is None else w)
    hi, lo = halves
    # int64 only when no entry of hi * 2^b + lo can reach 2^63 (and b < 63 even if hi is 0)
    if hi.dtype == lo.dtype == np.int64 and (max(_peak(hi), 1) << b) + _peak(lo) < _WORD_CAP:
        return hi * (1 << b) + lo
    return hi.astype(object) * (1 << b) + lo.astype(object)


def cyclic_convolve(u, v) -> np.ndarray:
    """w(d) = sum_x u(x) * v(d - x mod q), exact.

    u and v may be lists, int64 arrays or object arrays of arbitrary-precision
    ints.  Naive for q <= NAIVE_THRESHOLD, else the certified float FFT, on
    bit-split halves of the operands where the bound requires.  Returns an int64
    array, or an object array when the magnitude bound reaches 2^62.
    """
    u = _as_array(u)
    v = _as_array(v)
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    q = len(u)
    if q == 0:
        return np.zeros(0, dtype=np.int64)

    max_u, max_v = _peak(u), _peak(v)
    u, v = _narrow(u, max_u), _narrow(v, max_v)
    if q <= NAIVE_THRESHOLD:
        dtype = np.int64 if max(max_u, 1) * max(max_v, 1) * q < _INT64_COUNT_CAP else object
        lin = np.convolve(u.astype(dtype), v.astype(dtype))
        lin[: q - 1] += lin[q:]
        return lin[:q]

    if max_u == 0 or max_v == 0:
        return np.zeros(q, dtype=np.int64)
    w = _float_convolve(u, v)
    if w is not None:
        return w

    if q * max_u * max_v < _WORD_CAP:  # u and v are int64 and no sum below can wrap
        bound = min(int(np.abs(u).sum()) * max_v, int(np.abs(v).sum()) * max_u)
    else:
        bound = min(np.abs(u.astype(object)).sum() * max_v, np.abs(v.astype(object)).sum() * max_u)
    return _split_convolve(u, v).astype(np.int64 if bound < _INT64_COUNT_CAP else object, copy=False)
