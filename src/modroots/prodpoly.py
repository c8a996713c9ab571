"""Product polynomials vanishing on k-th powers of additive quadruples.

For each k the grouped product over k-th roots of unity

    prod_{w2, w3} ((X1 + w2*X2 - w3*X3)^k - X4^k)

expands, over Z[w]/Phi_k, to a polynomial whose coefficients are rational
integers and whose exponents are all divisible by k; dividing the exponents
by k yields an integer polynomial F of homogeneous degree k^2 with
F(u^k, v^k, x^k, y^k) = 0 whenever u + v = x + y, over any commutative ring.

The expansion is dense int64 array arithmetic modulo a few pool primes.  It
is dehomogenised by X1 = 1 (the X1 exponent is k^3 minus the others), keeps
the X4 axis in powers of X4^k, and works in Z[x]/(x^k - 1), where
multiplying by w^j rolls the coordinate axis; Phi_k divides x^k - 1, so
reducing mod Phi_k at the end gives the Z[w]/Phi_k expansion.  The prime
count comes from an a-priori bound on every coordinate (the product of the
factors' l1 norms), so the CRT rebuild is exact.  The expansion asserts that
every non-constant w-coordinate rebuilds to 0 (integrality), that exponents
are divisible by k and that the X1 exponent is never negative (homogeneity);
for k <= 3 the grouped product is cross-checked against the full product of
k^3 linear factors.

count_box_zeros_upto adds the 2n^2 - n diagonal zeros in closed form and
screens the rest of the box by one exact float64 tensor contraction modulo a
prime; every screened primitive zero is confirmed by exact evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError, CapacityError
from .modular import is_prime

DEFAULT_K_CAP = 5
DEFAULT_ZERO_BUDGET = 2 * 10**7  # grid tuples per count_box_zeros call
_FULL_CROSS_CHECK_CAP = 3
_FLOAT_EXACT = 1 << 53  # float64 holds every integer below this exactly
_SCREEN_CHUNK = 1 << 20  # grid values per screening temporary


@lru_cache(maxsize=1)
def _prime_pool() -> tuple:
    """All primes c*2^20 + 1 below 2^31, largest first (modmuls fit in int64)."""
    pool = []
    for c in range(2047, 0, -2):
        p = (c << 20) | 1
        if is_prime(p):
            pool.append(p)
    return tuple(pool)


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
def _reduction_rows(k: int) -> np.ndarray:
    """[m, u] = coefficient of x^u in x^m mod Phi_k, for m = 0..k-1."""
    phi_poly = cyclotomic_poly(k)
    phi = len(phi_poly) - 1
    rows = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(k):
        rows.append(cur)
        top = cur[-1]  # x * cur, with x^phi = -(low coefficients of Phi_k)
        cur = [0] + cur[:-1]
        cur = [c - top * t for c, t in zip(cur, phi_poly)]
    return np.array(rows, dtype=np.int64)


def _shift_sum(parts) -> np.ndarray:
    """sum of sign * x^j * X2^o2 X3^o3 X4^o4 * poly over parts (poly, (o2, o3, o4), sign, j).

    A poly is an int64 array [prime, t, e2, e3, e4] over Z[x]/(x^k - 1): x^j
    moves coordinate t to t + j mod k.  Nothing is reduced mod the primes.
    """
    first = parts[0][0]
    k = first.shape[1]
    shape = np.max([np.add(poly.shape[2:], off) for poly, off, _, _ in parts], axis=0)
    out = np.zeros((first.shape[0], k, *shape), dtype=np.int64)
    for poly, (o2, o3, o4), sign, j in parts:
        n2, n3, n4 = poly.shape[2:]
        view = out[:, :, o2 : o2 + n2, o3 : o3 + n3, o4 : o4 + n4]
        for dst, src in ((view[:, j:], poly[:, : k - j]), (view[:, :j], poly[:, k - j :])):
            if sign > 0:
                dst += src
            else:
                dst -= src
    return out


def _one(k: int, primes: np.ndarray) -> np.ndarray:
    poly = np.zeros((len(primes), k, 1, 1, 1), dtype=np.int64)
    poly[:, 0] = 1
    return poly


def _expand_grouped(k: int, primes: np.ndarray) -> np.ndarray:
    """prod over (w2, w3) of ((1 + w2 X2 - w3 X3)^k - Y) with Y = X4^k, mod each prime.

    Grouping the triple product over the first root of unity gives the factor
    prod_w (w*Z - W) = (-1)^(k+1) * (Z^k - W^k); across the k^2 remaining
    (w2, w3) pairs the prefactor aggregates to (-1)^((k+1)*k^2) = +1, so no
    global sign is applied (asserted against the full product for small k).
    Entries stay below 3^k * p + p < 2^40 between reductions.
    """
    pcol = primes[:, None, None, None, None]
    poly = _one(k, primes)
    for i2 in range(k):
        for i3 in range(k):
            power = poly
            for _ in range(k):
                power = _shift_sum(
                    [(power, (0, 0, 0), 1, 0), (power, (1, 0, 0), 1, i2), (power, (0, 1, 0), -1, i3)]
                )
            poly = _shift_sum([(power, (0, 0, 0), 1, 0), (poly, (0, 0, 1), -1, 0)])
            poly %= pcol
    return poly


def _expand_full(k: int, primes: np.ndarray) -> np.ndarray:
    """prod over (w1, w2, w3) of (w1 + w2 X2 - w3 X3 - X4), mod each prime."""
    pcol = primes[:, None, None, None, None]
    poly = _one(k, primes)
    for i1 in range(k):
        for i2 in range(k):
            for i3 in range(k):
                poly = _shift_sum(
                    [(poly, (0, 0, 0), 1, i1), (poly, (1, 0, 0), 1, i2),
                     (poly, (0, 1, 0), -1, i3), (poly, (0, 0, 1), -1, 0)]
                )
                poly %= pcol
    return poly


def _reduce(poly: np.ndarray, k: int, primes: np.ndarray) -> np.ndarray:
    """Coordinates [prime, e2, e3, e4, u] over Z[w]/Phi_k, mod each prime."""
    red = np.tensordot(poly, _reduction_rows(k), axes=([1], [0]))
    return red % primes[:, None, None, None, None]


def _crt(residues: np.ndarray, primes: tuple) -> list:
    """Balanced CRT rebuild of each column of residues [prime, i], as Python ints."""
    modulus = math.prod(primes)
    total = 0
    for r, p in zip(residues, primes):
        mi = modulus // p
        total = total + r.astype(object) * (mi * pow(mi, -1, p))
    return [c - modulus if c > modulus // 2 else c for c in (total % modulus).tolist()]


def _primes_for(bound: int) -> tuple:
    """Pool primes whose product exceeds 2 * bound + 1: balanced rebuild of |c| <= bound."""
    primes, modulus = [], 1
    for p in _prime_pool():
        primes.append(p)
        modulus *= p
        if modulus > 2 * bound + 1:
            return tuple(primes)
    raise CapacityError("coefficient bound exceeds the CRT prime pool")


def _collapse(k: int, red: np.ndarray, primes: tuple) -> "IntPoly":
    """Assert integrality, k-divisible exponents and homogeneity; divide exponents by k."""
    if red[..., 1:].any():
        raise ArithmeticError(f"non-integer coefficient in expansion (k={k})")
    const = red[..., 0]
    e2, e3, y = np.nonzero(const.any(axis=0))
    bad = np.flatnonzero((e2 % k) | (e3 % k))
    if len(bad):
        i = bad[0]
        raise ArithmeticError(f"exponent {(int(e2[i]), int(e3[i]), k * int(y[i]))} not divisible by k={k}")
    e1 = k**3 - e2 - e3 - k * y
    if (e1 < 0).any():
        raise ArithmeticError(f"expansion not homogeneous of degree k^2 (k={k})")
    coeffs = _crt(const[:, e2, e3, y], primes)
    exps = np.stack([e1 // k, e2 // k, e3 // k, y], axis=1).tolist()
    poly = IntPoly.of({tuple(e): c for e, c in zip(exps, coeffs)})
    if poly.homogeneous_degree() != k * k:
        raise ArithmeticError(f"expansion not homogeneous of degree k^2 (k={k})")
    return poly


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


@lru_cache(maxsize=8)
def product_poly(k: int) -> IntPoly:
    """The canonical integer polynomial extracted from the root-of-unity product.

    Canonical means: exactly what the grouped product determines, with no sign
    or content normalisation applied afterwards.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > DEFAULT_K_CAP:
        raise CapacityError(f"k={k} above construction cap {DEFAULT_K_CAP}")
    # every coordinate is at most (l1 of a factor)^(factors) times the largest reduction entry
    row_peak = int(np.abs(_reduction_rows(k)).max())
    bound = row_peak * (3**k + 1) ** (k * k)
    full = k <= _FULL_CROSS_CHECK_CAP
    if full:
        bound = max(bound, row_peak * 4 ** (k**3))
    primes = _primes_for(bound)
    pcol = np.array(primes, dtype=np.int64)
    grouped = _reduce(_expand_grouped(k, pcol), k, pcol)
    if full:
        expanded = _reduce(_expand_full(k, pcol), k, pcol)
        off_k = np.ones(expanded.shape[3], dtype=bool)
        off_k[::k] = False
        if expanded[:, :, :, off_k].any() or not np.array_equal(expanded[:, :, :, ::k], grouped):
            raise ArithmeticError(f"grouped and full expansions disagree at k={k}")
    return _collapse(k, grouped, primes)


def classic_square_poly() -> IntPoly:
    """64*UVXY - (4UV + 4XY - (X + Y - U - V)^2)^2, the known quartic identity."""
    U = IntPoly.of({(1, 0, 0, 0): 1})
    V = IntPoly.of({(0, 1, 0, 0): 1})
    X = IntPoly.of({(0, 0, 1, 0): 1})
    Y = IntPoly.of({(0, 0, 0, 1): 1})
    s = X + Y - U - V
    inner = (U * V).scale(4) + (X * Y).scale(4) - s * s
    return (U * V * X * Y).scale(64) - inner * inner


@lru_cache(maxsize=8)
def _screen_prime(k: int) -> int:
    """The largest prime p with (k^2 + 1) * p^2 + p < 2^53: exact float64 contractions."""
    p = math.isqrt(_FLOAT_EXACT // (k * k + 2))
    while not is_prime(p):
        p -= 1
    return p


def _balance(x: np.ndarray, p: int) -> np.ndarray:
    """x - p * rint(x / p) in place: x mod p as a float in (-p, p), 0 exactly when p | x.

    x is an integer below 2^53 - p, so p * rint(x / p) <= x + p is exact.
    """
    m = x / p
    np.rint(m, out=m)
    m *= p
    x -= m
    return x


def _screen_values(F: IntPoly, k: int, N: int, p: int):
    """Chunks (n1 offset, F mod p on [n1 chunk] x [1, N]^3), as floats in (-p, p).

    The dense coefficient tensor is contracted with the power table
    [n, e] = n^e mod p along each axis; every partial sum is below 2^53.
    """
    d = k * k + 1
    coeff = np.zeros((d, d, d, d))
    for e, c in F.terms:
        coeff[e] = c % p
    powers = np.ones((N, d), dtype=np.int64)
    ns = np.arange(1, N + 1, dtype=np.int64)
    for e in range(1, d):
        powers[:, e] = powers[:, e - 1] * ns % p
    powers = powers.astype(np.float64)
    head = _balance(np.tensordot(powers, coeff, axes=([1], [0])), p)  # [n1, e2, e3, e4]
    step = max(1, _SCREEN_CHUNK // N**3)
    for start in range(0, N, step):
        vals = head[start : start + step]
        for _ in range(3):  # contract e2, e3, e4 in turn; each n axis moves to the back
            vals = _balance(np.tensordot(vals, powers, axes=([1], [1])), p)
        yield start, vals


def count_box_zeros_upto(k: int, N: int, budget: int = DEFAULT_ZERO_BUDGET) -> list:
    """[T(1), ..., T(N)] where T(n) counts zeros of the product polynomial in [1,n]^4.

    The diagonal tuples (a, b, a, b) and (a, b, b, a) are zeros (one linear
    factor vanishes), 2n^2 - n of them in [1,n]^4.  By homogeneity every other
    zero is g times a primitive non-diagonal zero, so a primitive zero with
    largest entry m adds floor(n / m) to T(n).  Candidates are screened modulo
    one prime on the whole grid, and every primitive non-diagonal candidate is
    confirmed by exact integer evaluation, so the counts are exact.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N**4 > budget:
        raise BudgetExceededError(f"N^4 = {N**4} exceeds budget {budget}")
    F = product_poly(k)
    p = _screen_prime(k)
    ns = np.arange(1, N + 1, dtype=np.int64)
    n2, n3, n4 = ns[:, None, None], ns[None, :, None], ns[None, None, :]
    primitive_by_max = [0] * (N + 1)
    for start, vals in _screen_values(F, k, N, p):
        n1 = ns[start : start + len(vals), None, None, None]
        diagonal = ((n3 == n1) & (n4 == n2)) | ((n3 == n2) & (n4 == n1))
        hits = np.argwhere((vals == 0) & ~diagonal) + 1
        hits[:, 0] += start
        for tup in hits.tolist():
            if math.gcd(*tup) == 1 and F.evaluate(tup) == 0:
                primitive_by_max[max(tup)] += 1
    return [
        2 * n * n - n + sum(c * (n // m) for m, c in enumerate(primitive_by_max[: n + 1]) if c)
        for n in range(1, N + 1)
    ]


def count_box_zeros(k: int, N: int, budget: int = DEFAULT_ZERO_BUDGET) -> int:
    return count_box_zeros_upto(k, N, budget)[-1]
