"""Product polynomials vanishing on k-th powers of additive quadruples.

For each k the grouped product over k-th roots of unity

    (-1)^k * prod_{w2, w3} ((X1 + w2*X2 - w3*X3)^k - X4^k)

expands, over Z[w]/Phi_k, to a polynomial whose coefficients are rational
integers and whose exponents are all divisible by k; dividing the exponents
by k yields an integer polynomial F of homogeneous degree k^2 with
F(u^k, v^k, x^k, y^k) = 0 whenever u + v = x + y, over any commutative ring.
The expansion asserts integrality and exponent divisibility; for k <= 3 the
grouped product is cross-checked against the full product of k^3 linear
factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .convolve import _prime_pool
from .errors import BudgetExceededError, CapacityError

DEFAULT_K_CAP = 5
DEFAULT_ZERO_BUDGET = 2 * 10**7  # grid tuples per count_box_zeros call
_FULL_CROSS_CHECK_CAP = 3


@lru_cache(maxsize=32)
def cyclotomic_poly(k: int) -> tuple:
    """Coefficients of the k-th cyclotomic polynomial, low degree first, monic."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # (x^k - 1) / prod of Phi_d over proper divisors d of k, by exact division
    num = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            den = list(cyclotomic_poly(d))
            num = _poly_divexact(num, den)
    return tuple(num)


def _poly_divexact(num: list, den: list) -> list:
    out = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        c //= den[-1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                rem[i + j] -= c * dj
    if any(rem):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=32)
def _cyc_context(k: int):
    """phi(k), and reduction rows: x^m mod Phi_k for m in [0, 2*phi-2]."""
    phi_poly = cyclotomic_poly(k)
    phi = len(phi_poly) - 1
    rows = []
    cur = [0] * phi
    if phi > 0:
        cur[0] = 1
    for m in range(2 * phi - 1):
        rows.append(tuple(cur))
        # multiply by x, reduce by x^phi = -(low coeffs of Phi_k)
        top = cur[phi - 1]
        cur = [0] + cur[: phi - 1]
        if top:
            for t in range(phi):
                cur[t] -= top * phi_poly[t]
    return phi, tuple(rows)


def _cyc_mul(a, b, phi, rows):
    prod = [0] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    out = list(prod[:phi])
    for m in range(phi, 2 * phi - 1):
        c = prod[m]
        if c:
            row = rows[m]
            for t in range(phi):
                out[t] += c * row[t]
    return tuple(out)


@lru_cache(maxsize=32)
def _omega_powers(k: int) -> tuple:
    """w^t mod Phi_k for t = 0..k-1, as coefficient tuples."""
    phi, rows = _cyc_context(k)
    pows = []
    cur = tuple([1] + [0] * (phi - 1))
    x = tuple([0, 1] + [0] * (phi - 2)) if phi >= 2 else _reduced_x(k)
    for _ in range(k):
        pows.append(cur)
        cur = _cyc_mul(cur, x, phi, rows)
    return tuple(pows)


def _reduced_x(k: int) -> tuple:
    # phi(k) = 1 only for k in {1, 2}: x = 1 resp. x = -1
    return (1,) if k == 1 else (-1,)


@dataclass(frozen=True)
class IntPoly:
    """Sparse integer polynomial in four variables."""

    terms: tuple  # sorted tuple of ((e1,e2,e3,e4), coeff)

    @classmethod
    def of(cls, mapping) -> "IntPoly":
        items = tuple(sorted((tuple(e), int(c)) for e, c in mapping.items() if c))
        return cls(items)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def __add__(self, other):
        out = self.as_dict()
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return IntPoly.of(out)

    def __neg__(self):
        return IntPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: dict = {}
        for e, c in self.terms:
            for f, d in other.terms:
                key = tuple(a + b for a, b in zip(e, f))
                out[key] = out.get(key, 0) + c * d
        return IntPoly.of(out)

    def scale(self, c: int) -> "IntPoly":
        return IntPoly(tuple((e, c * coeff) for e, coeff in self.terms))

    def homogeneous_degree(self):
        degs = {sum(e) for e, _ in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def evaluate(self, n, mod=None) -> int:
        """Exact value at an integer 4-tuple, optionally reduced mod m."""
        if len(n) != 4:
            raise ValueError("needs a 4-tuple")
        pows = [dict() for _ in range(4)]
        total = 0
        for e, c in self.terms:
            t = c
            for i in range(4):
                ei = e[i]
                if ei:
                    cache = pows[i]
                    if ei not in cache:
                        cache[ei] = pow(n[i], ei, mod) if mod else n[i] ** ei
                    t *= cache[ei]
                    if mod:
                        t %= mod
            total += t
            if mod:
                total %= mod
        return total % mod if mod else total


def to_text(F: IntPoly) -> str:
    """Canonical text form: one "e1 e2 e3 e4 coefficient" line, lexicographic."""
    return "\n".join(f"{e[0]} {e[1]} {e[2]} {e[3]} {c}" for e, c in F.terms)


def from_text(text: str) -> IntPoly:
    out = {}
    for line in text.strip().splitlines():
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"bad polynomial line: {line!r}")
        e = tuple(int(x) for x in parts[:4])
        out[e] = int(parts[4])
    return IntPoly.of(out)


def _pack(e1: int, e2: int, e3: int, e4: int, stride: int) -> int:
    return ((e1 * stride + e2) * stride + e3) * stride + e4


def _unpack(key: int, stride: int):
    e4 = key % stride
    key //= stride
    e3 = key % stride
    key //= stride
    e2 = key % stride
    return key // stride, e2, e3, e4


def _multinomials(k: int):
    for a in range(k + 1):
        for b in range(k + 1 - a):
            c = k - a - b
            yield a, b, c, math.factorial(k) // (
                math.factorial(a) * math.factorial(b) * math.factorial(c)
            )


def _mul_into(poly: dict, factor: list, phi: int, rows) -> dict:
    out: dict = {}
    for key_p, cp in poly.items():
        for key_f, cf in factor:
            c = _cyc_mul(cp, cf, phi, rows)
            key = key_p + key_f
            prev = out.get(key)
            out[key] = c if prev is None else tuple(x + y for x, y in zip(prev, c))
    return {key: c for key, c in out.items() if any(c)}


def _expand_grouped(k: int) -> dict:
    """prod over (w2, w3) of ((X1 + w2 X2 - w3 X3)^k - X4^k), packed keys.

    Grouping the triple product over the first root of unity gives the factor
    prod_w (w*Z - W) = (-1)^(k+1) * (Z^k - W^k); across the k^2 remaining
    (w2, w3) pairs the prefactor aggregates to (-1)^((k+1)*k^2) = +1, so no
    global sign is applied (asserted against the full product for small k).
    """
    phi, rows = _cyc_context(k)
    omega = _omega_powers(k)
    stride = k**3 + 1
    one = tuple([1] + [0] * (phi - 1))
    poly = {_pack(0, 0, 0, 0, stride): one}
    minus_one = tuple(-x for x in one)
    for i2 in range(k):
        for i3 in range(k):
            factor = []
            for a, b, c, m in _multinomials(k):
                w = omega[(i2 * b + i3 * c) % k]
                sign = -1 if c % 2 else 1
                coeff = tuple(sign * m * x for x in w)
                factor.append((_pack(a, b, c, 0, stride), coeff))
            factor.append((_pack(0, 0, 0, k, stride), minus_one))
            poly = _mul_into(poly, factor, phi, rows)
    return poly


def _expand_full(k: int) -> dict:
    """prod over (w1, w2, w3) of (w1 X1 + w2 X2 - w3 X3 - X4), packed keys."""
    phi, rows = _cyc_context(k)
    omega = _omega_powers(k)
    stride = k**3 + 1
    one = tuple([1] + [0] * (phi - 1))
    poly = {_pack(0, 0, 0, 0, stride): one}
    minus_one = tuple(-x for x in one)
    for i1 in range(k):
        for i2 in range(k):
            for i3 in range(k):
                factor = [
                    (_pack(1, 0, 0, 0, stride), omega[i1]),
                    (_pack(0, 1, 0, 0, stride), omega[i2]),
                    (_pack(0, 0, 1, 0, stride), tuple(-x for x in omega[i3])),
                    (_pack(0, 0, 0, 1, stride), minus_one),
                ]
                poly = _mul_into(poly, factor, phi, rows)
    return poly


def _collapse(k: int, cyc_terms: dict) -> IntPoly:
    """Assert rational-integer coefficients and k-divisible exponents; divide by k."""
    stride = k**3 + 1
    out = {}
    for key, coeff in cyc_terms.items():
        if any(coeff[1:]):
            raise ArithmeticError(f"non-integer coefficient {coeff} in expansion (k={k})")
        c = coeff[0]
        if c == 0:
            continue
        e = _unpack(key, stride)
        if any(x % k for x in e):
            raise ArithmeticError(f"exponent {e} not divisible by k={k}")
        out[tuple(x // k for x in e)] = c
    poly = IntPoly.of(out)
    if poly.homogeneous_degree() != k * k:
        raise ArithmeticError(f"expansion not homogeneous of degree k^2 (k={k})")
    return poly


@lru_cache(maxsize=8)
def product_poly(k: int, k_cap: int = DEFAULT_K_CAP) -> IntPoly:
    """The canonical integer polynomial extracted from the root-of-unity product.

    Canonical means: exactly what the grouped product determines, with no sign
    or content normalisation applied afterwards.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > k_cap:
        raise CapacityError(f"k={k} above construction cap {k_cap}")
    grouped = _expand_grouped(k)
    if k <= _FULL_CROSS_CHECK_CAP:
        full = _expand_full(k)
        if grouped != full:
            raise ArithmeticError(f"grouped and full expansions disagree at k={k}")
    return _collapse(k, grouped)


def classic_square_poly() -> IntPoly:
    """64*UVXY - (4UV + 4XY - (X + Y - U - V)^2)^2, the known quartic identity."""
    U = IntPoly.of({(1, 0, 0, 0): 1})
    V = IntPoly.of({(0, 1, 0, 0): 1})
    X = IntPoly.of({(0, 0, 1, 0): 1})
    Y = IntPoly.of({(0, 0, 0, 1): 1})
    s = X + Y - U - V
    inner = (U * V).scale(4) + (X * Y).scale(4) - s * s
    return (U * V * X * Y).scale(64) - inner * inner


def _select_eval_primes(count: int = 3) -> tuple:
    return _prime_pool()[:count]


def batch_values_mod(F: IntPoly, cols, p: int) -> np.ndarray:
    """Values of F mod p at a batch of 4-tuples given as four int64 arrays."""
    cols = [np.asarray(c, dtype=np.int64) % p for c in cols]
    n = len(cols[0])
    acc = np.zeros(n, dtype=np.int64)
    pow_cache: list = [dict() for _ in range(4)]

    def powed(i, e):
        cache = pow_cache[i]
        if e not in cache:
            if e == 0:
                cache[e] = np.ones(n, dtype=np.int64)
            else:
                half = powed(i, e // 2)
                v = (half * half) % p
                if e % 2:
                    v = (v * cols[i]) % p
                cache[e] = v
        return cache[e]

    for e, c in F.terms:
        t = np.full(n, c % p, dtype=np.int64)
        for i in range(4):
            if e[i]:
                t = (t * powed(i, e[i])) % p
        acc = (acc + t) % p
    return acc


def count_box_zeros_upto(k: int, N: int, budget: int = DEFAULT_ZERO_BUDGET) -> list:
    """[T(1), ..., T(N)] where T(n) counts zeros of the product polynomial in [1,n]^4.

    Candidate zeros are screened modulo a few primes on the full grid and every
    candidate is then confirmed by exact integer evaluation; a value nonzero
    modulo any single prime is exactly nonzero, so the counts are exact.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N**4 > budget:
        raise BudgetExceededError(f"N^4 = {N**4} exceeds budget {budget}")
    F = product_poly(k)
    primes = _select_eval_primes()
    by_e1: dict = {}
    for e, c in F.terms:
        by_e1.setdefault(e[0], []).append((e[1:], c))

    rng = np.arange(1, N + 1, dtype=np.int64)
    g2, g3, g4 = np.meshgrid(rng, rng, rng, indexing="ij")
    cols = (g2.ravel(), g3.ravel(), g4.ravel())
    maxes_rest = np.maximum(np.maximum(cols[0], cols[1]), cols[2])

    # per prime, per e1-slice: value of the slice polynomial on the (n2,n3,n4) grid
    dummy = np.zeros(len(cols[0]), dtype=np.int64)
    slices = {}
    for p in primes:
        rows = {}
        for e1, terms in by_e1.items():
            sub = IntPoly.of({(0, e[0], e[1], e[2]): c for e, c in terms})
            rows[e1] = batch_values_mod(sub, (dummy, cols[0], cols[1], cols[2]), p)
        slices[p] = rows

    counts_by_max = [0] * (N + 1)
    for n1 in range(1, N + 1):
        mask = None
        for p in primes:
            rows = slices[p]
            acc = np.zeros(len(cols[0]), dtype=np.int64)
            for e1, vals in rows.items():
                acc = (acc + pow(n1, e1, p) * vals) % p
            zero = acc == 0
            mask = zero if mask is None else (mask & zero)
            if not mask.any():
                break
        if mask is None or not mask.any():
            continue
        idx = np.nonzero(mask)[0]
        for i in idx:
            tup = (n1, int(cols[0][i]), int(cols[1][i]), int(cols[2][i]))
            if F.evaluate(tup) == 0:
                counts_by_max[max(n1, int(maxes_rest[i]))] += 1
    out = []
    running = 0
    for n in range(1, N + 1):
        running += counts_by_max[n]
        out.append(running)
    return out


def count_box_zeros(k: int, N: int, budget: int = DEFAULT_ZERO_BUDGET) -> int:
    return count_box_zeros_upto(k, N, budget)[-1]
