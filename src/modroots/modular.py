"""Prime-field arithmetic: primality, prime enumeration, k-th roots, characters, Gauss sums.

power_values(k, q) is the power map x -> x^k on Z_q as one int64 array,
computed by square-and-multiply over the whole residue vector (O(q log k)
numpy work, q <= ROOT_TABLE_CAP).  Root extraction below the cap goes through
residue_map(k, q), which adds to those values their argsort and bucket
starts, so the roots of v are one slice of it.  The table is cached per
(k, q) and serves every dilate j: preimages of j*x^k are a mask over
(j * values) mod q.  Above the cap only square roots are supported
(Tonelli-Shanks).  Other whole-field tables read power_values directly, for
example the inverses x^(q-2) and the quadratic character, whose table marks
the squares x^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DegenerateError
from .sets import IndicatorSet

# Witness set valid deterministically for all n < 3.3 * 10^24 (covers 64-bit).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

WORD_CAP = 1 << 63
SIEVE_CAP = 1 << 40
ROOT_TABLE_CAP = 1 << 26

COMPLEX_RTOL = 1e-9


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for word-size integers."""
    if n >= WORD_CAP:
        raise CapacityError(f"primality test limited to n < 2^63, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in(lo: int, hi: int) -> list:
    """Ascending list of primes in the closed range [lo, hi]."""
    if lo < 0 or hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    if hi >= WORD_CAP:
        raise CapacityError("range exceeds supported word size")
    if hi > SIEVE_CAP:
        raise CapacityError(f"sieve capped at {SIEVE_CAP}")
    if hi < 2:
        return []
    root = math.isqrt(hi)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p :: p] = False
    base_primes = np.nonzero(base)[0]
    lo = max(lo, 2)

    out: list = []
    seg_size = max(1 << 18, root + 1)
    for start in range(lo, hi + 1, seg_size):
        stop = min(start + seg_size - 1, hi)
        seg = np.ones(stop - start + 1, dtype=bool)
        for p in base_primes:
            p = int(p)
            first = max(p * p, ((start + p - 1) // p) * p)
            if first > stop:
                continue
            seg[first - start :: p] = False
        if start <= 1:
            seg[: 2 - start] = False
        out.extend((start + np.nonzero(seg)[0]).tolist())
    return out


@dataclass(frozen=True)
class PrimeModulus:
    """A certified prime modulus."""

    q: int

    def __post_init__(self):
        if self.q < 2 or not is_prime(self.q):
            raise ValueError(f"{self.q} is not prime")


@lru_cache(maxsize=4096)
def _as_q(q) -> int:
    if isinstance(q, PrimeModulus):
        return q.q
    q = int(q)
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    return q


@dataclass(frozen=True, eq=False)
class ResidueMap:
    """The power map x -> x^k on Z_q as read-only int64 arrays.

    values[x] = x^k mod q; order is 0..q-1 stably sorted by value, and
    starts[v] is the first position of value v in it, so the solutions of
    x^k = v are order[starts[v]:starts[v + 1]], ascending.
    """

    q: int
    k: int
    values: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    def roots_of(self, v: int) -> np.ndarray:
        v %= self.q
        return self.order[self.starts[v] : self.starts[v + 1]]


def power_values(k: int, q) -> np.ndarray:
    """values[x] = x^k mod q for x = 0..q-1 (int64; 0^0 = 1)."""
    q = _as_q(q)
    if k < 0:
        raise ValueError("k must be >= 0")
    if q > ROOT_TABLE_CAP:
        raise CapacityError(f"residue table capped at q <= {ROOT_TABLE_CAP}")
    # q <= 2^26 keeps every product below 2^52
    values = np.ones(q, dtype=np.int64)
    base, e = np.arange(q, dtype=np.int64), k
    while e:  # square-and-multiply over the whole residue vector
        if e & 1:
            values = (values * base) % q
        base = (base * base) % q
        e >>= 1
    return values


@lru_cache(maxsize=128)
def residue_map(k: int, q) -> ResidueMap:
    q = _as_q(q)
    if k < 1:
        raise ValueError("k must be >= 1")
    values = power_values(k, q)
    # the keys values*q + x are distinct, so sorting them is a stable argsort by value
    order = np.sort(values * q + np.arange(q, dtype=np.int64)) % q
    starts = np.zeros(q + 1, dtype=np.int64)
    np.cumsum(np.bincount(values, minlength=q), out=starts[1:])
    for arr in (values, order, starts):
        arr.flags.writeable = False
    return ResidueMap(q, k, values, order, starts)


def sqrt_mod(a: int, q) -> list:
    """Solutions of x^2 = a (mod q) for prime q, via Tonelli-Shanks. Sorted."""
    q = _as_q(q)
    a %= q
    if a == 0:
        return [0]
    if q == 2:
        return [a]
    if pow(a, (q - 1) // 2, q) != 1:
        return []
    if q % 4 == 3:
        x = pow(a, (q + 1) // 4, q)
        return sorted({x, q - x})
    # factor q-1 = d * 2^s with d odd
    d, s = q - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    c = pow(z, d, q)
    x = pow(a, (d + 1) // 2, q)
    t = pow(a, d, q)
    m = s
    while t != 1:
        i, e = 0, t
        while e != 1:
            e = e * e % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        x = x * b % q
        c = b * b % q
        t = t * c % q
        m = i
    return sorted({x, q - x})


def kth_roots(a: int, k: int, q) -> set:
    """The set { x in Z_q : x^k = a (mod q) }."""
    try:
        return set(residue_map(k, q).roots_of(a).tolist())
    except CapacityError:  # above the table cap
        if k != 2:
            raise CapacityError("k-th roots above the table cap supported only for k = 2") from None
    return set(sqrt_mod(a, q))


def preimage_set(j: int, k: int, N: int, q) -> IndicatorSet:
    """The set { x in F_q^* : j*x^k mod q lies in {1,...,N} } (natural embedding)."""
    q = _as_q(q)
    j %= q
    if j == 0:
        raise ValueError("j must be nonzero mod q")
    if not (1 <= N <= q):
        raise ValueError(f"N must satisfy 1 <= N <= q, got {N}")
    dilated = residue_map(k, q).values * j  # < q^2 <= 2^52
    dilated %= q
    return IndicatorSet(q, np.flatnonzero((dilated >= 1) & (dilated <= N)))


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Quadratic character chi mod q, the unit eps_q, and the additive character e_q.

    chi is a read-only int64 array: chi[0] = 0, chi[x^2 mod q] = 1 for x != 0,
    and -1 elsewhere, read off the square map power_values(2, q) (so above
    ROOT_TABLE_CAP, build raises CapacityError).
    """

    q: int
    chi: np.ndarray
    eps_q: complex

    @classmethod
    def build(cls, q) -> "CharacterTable":
        q = _as_q(q)
        if q == 2:
            raise DegenerateError("quadratic character table requires odd q")
        chi = np.full(q, -1, dtype=np.int64)
        chi[power_values(2, q)[1:]] = 1
        chi[0] = 0
        chi.flags.writeable = False
        eps = 1.0 + 0.0j if q % 4 == 1 else 1.0j
        return cls(q, chi, eps)

    def e(self, x: int) -> complex:
        return cmath.exp(2j * math.pi * (x % self.q) / self.q)


@lru_cache(maxsize=128)
def character_table(q) -> CharacterTable:
    return CharacterTable.build(q)


@lru_cache(maxsize=128)
def unit_roots(q: int) -> np.ndarray:
    """exp(2*pi*i*x/q) for x = 0..q-1."""
    return np.exp(2j * np.pi * np.arange(q) / q)


def gauss_sum(b: int, h: int, q):
    """sum_x e_q(b*x^2 + h*x): closed-form value plus a cross-checked flag.

    Returns (value, closed_form) where value = eps_q * chi(b) * sqrt(q) *
    e_q(-h^2 * (4b)^{-1}) and closed_form records that the closed form agreed
    with direct summation to relative tolerance COMPLEX_RTOL.
    """
    q = _as_q(q)
    b %= q
    h %= q
    if b == 0:
        raise DegenerateError("quadratic coefficient must be nonzero mod q")
    if q == 2:
        raise DegenerateError("closed form needs (4b)^{-1}, which does not exist mod 2")
    if (q - 1) ** 2 >= WORD_CAP:
        raise CapacityError(f"direct Gauss sum needs (q-1)^2 < 2^63, got q={q}")
    tab = character_table(q)
    roots = unit_roots(q)
    xs = np.arange(q, dtype=np.int64)
    # reduce after every product: both factors are below q, so none exceeds (q-1)^2
    phase = (xs * xs) % q
    phase *= b
    phase %= q
    phase += (h * xs) % q
    phase %= q
    direct = complex(np.sum(roots[phase]))
    inv4b = pow(4 * b, q - 2, q)
    closed = tab.eps_q * int(tab.chi[b]) * math.sqrt(q) * tab.e(-h * h * inv4b)
    if abs(direct - closed) > COMPLEX_RTOL * math.sqrt(q):
        raise ArithmeticError(
            f"gauss sum cross-check failed at (b={b}, h={h}, q={q}): "
            f"direct={direct}, closed={closed}"
        )
    return closed, True
