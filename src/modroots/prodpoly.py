"""Product polynomials vanishing on k-th powers of additive quadruples.

For each k the grouped product over k-th roots of unity

    G(X1, X2, X3, X4) = prod_{w2, w3} ((X1 + w2*X2 - w3*X3)^k - X4^k)

is a polynomial in X1^k, ..., X4^k with rational integer coefficients: it
is fixed by X2 -> w*X2, X3 -> w*X3 and the Galois group, and homogeneous of
degree k^3.  Writing Yi = Xi^k gives an integer polynomial F of homogeneous
degree k^2 with F(u^k, v^k, x^k, y^k) = 0 whenever u + v = x + y, over any
commutative ring.

F is found by evaluation and interpolation (von zur Gathen and Gerhard,
Modern Computer Algebra, ch. 5 and 10).  For a pool prime p = 1 (mod k)
every k-th root of unity lies in F_p: G(1, b, c, d) mod p is evaluated in
int64 on a grid of k^2 + 1 nodes per variable with distinct k-th powers,
and three Vandermonde solves give F(1, Y2, Y3, Y4) mod p.  CRT rebuilds
the coefficients under an a-priori bound.  Three checks guard the route:
Y-degree at most k^2 (homogeneity), agreement with G modulo a spare prime
outside the CRT set (Schwartz-Zippel) and, for k <= 3, grouped = full.

count_box_zeros_upto adds the 2n^2 - n diagonal zeros in closed form and
screens the rest of the box by one exact float64 tensor contraction modulo a
prime; every screened primitive zero is confirmed by exact evaluation.

IntPoly holds F's sparse terms and evaluates them, and to_text writes the
canonical text form; F is built by interpolation, never by multiplying
polynomials, so IntPoly has no ring arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError, CapacityError
from .modular import _prime_factors, is_prime
from .rng import SplitMix64

DEFAULT_K_CAP = 5
DEFAULT_ZERO_BUDGET = 2 * 10**7  # grid tuples per count_box_zeros call
_FULL_CROSS_CHECK_CAP = 3
_CHECK_POINTS = 3  # Schwartz-Zippel points modulo the spare prime
_FLOAT_EXACT = 1 << 53  # float64 holds every integer below this exactly
_SCREEN_CHUNK = 1 << 20  # grid values per screening temporary


_POOL = []  # the pool primes found so far, largest first
_UNTESTED = iter(range(2047, 0, -2))  # the c of the candidates c*2^20 + 1 not yet tested


def _pool_primes():
    """The primes c*2^20 + 1 below 2^31, largest first (modmuls fit in int64).

    The pool is filled on demand: a candidate is tested once a process, when a
    caller first walks past the primes found so far.
    """
    for i in itertools.count():
        while i == len(_POOL):
            c = next(_UNTESTED, None)
            if c is None:
                return
            if is_prime(p := c << 20 | 1):
                _POOL.append(p)
        yield _POOL[i]


def _prime_pool() -> tuple:
    """The whole pool, every candidate tested."""
    return tuple(_pool_primes())


def _crt(residues: np.ndarray, primes: tuple) -> list:
    """Balanced CRT rebuild of each column of residues [prime, i], as Python ints."""
    modulus = math.prod(primes)
    total = 0
    for r, p in zip(residues, primes):
        mi = modulus // p
        total = total + r.astype(object) * (mi * pow(mi, -1, p))
    return [c - modulus if c > modulus // 2 else c for c in (total % modulus).tolist()]


def _coefficient_bound(k: int) -> int:
    """A bound on |coefficient| of the grouped product, and for k <= 3 of the full one.

    Expanded over Z[x]/(x^k - 1) with w -> x, every monomial's coordinates
    have l1 norm at most the product of the factors' l1 norms, and the
    integer coefficient is that coordinate vector evaluated at |w| = 1.
    """
    bound = (3**k + 1) ** (k * k)
    if k <= _FULL_CROSS_CHECK_CAP:
        bound = max(bound, 4 ** (k**3))
    return bound


def _primes_for(bound: int, k: int) -> tuple:
    """(primes, spare): pool primes p = 1 (mod k) whose product exceeds 2 * bound + 1,
    so a balanced rebuild of |c| <= bound is exact, and the next such prime."""
    primes, modulus = [], 1
    for p in _pool_primes():
        if (p - 1) % k:
            continue
        if modulus > 2 * bound + 1:
            return tuple(primes), p
        primes.append(p)
        modulus *= p
    raise CapacityError("coefficient bound exceeds the CRT prime pool")


def _root_of_unity(k: int, p: int) -> int:
    """A residue of exact multiplicative order k modulo p (k divides p - 1)."""
    factors = _prime_factors(k)
    for z in range(2, p):
        w = pow(z, (p - 1) // k, p)
        if all(pow(w, k // r, p) != 1 for r in factors):
            return w
    raise ArithmeticError(f"no element of order {k} modulo {p}")


def _nodes(k: int, p: int) -> tuple:
    """(t, y): k^2 + 1 residues t whose k-th powers y = t^k mod p are distinct."""
    ys, t = {}, 1  # y -> the first t with t^k = y
    while len(ys) <= k * k:
        ys.setdefault(pow(t, k, p), t)
        t += 1
    return np.array(list(ys.values()), dtype=np.int64), np.array(list(ys), dtype=np.int64)


def _grouped_values(k: int, p: int, w: int, b, c, d) -> np.ndarray:
    """G(1, b, c, d) mod p, broadcast over int64 residue arrays; w has order k.

    Grouping the full product over its first root of unity gives the factor
    prod_w (Z - w*X4) = Z^k - X4^k and a prefactor that aggregates to
    (-1)^((k+1)*k^2) = +1 across the k^2 pairs, so no sign is applied
    (checked against the full product for small k).  Every product of two
    residues is below 2^62.
    """
    ws = [pow(w, i, p) for i in range(k)]
    wb = [wi * b % p for wi in ws]
    wc = [wi * c % p for wi in ws]
    dk = _power(d, k, p)
    out = 1
    for x, y in itertools.product(wb, wc):
        out = out * ((_power((1 + x - y) % p, k, p) - dk) % p) % p
    return out


def _full_values(k: int, p: int, w: int, b, c, d) -> np.ndarray:
    """prod over (w1, w2, w3) of (w1 + w2*b - w3*c - d) mod p, broadcast like _grouped_values."""
    ws = [pow(w, i, p) for i in range(k)]
    out = 1
    for w1, w2, w3 in itertools.product(ws, repeat=3):
        out = out * ((w1 + w2 * b - w3 * c - d) % p) % p
    return out


def _power(x, e: int, p: int):
    out = x
    for _ in range(e - 1):
        out = out * x % p
    return out


def _vandermonde_inverse(y: np.ndarray, p: int) -> np.ndarray:
    """inv[e, i] with sum_i inv[e, i] * y_i^f = [e == f] mod p.

    Row e holds the Y^e coefficients of the Lagrange basis: L_i(Y) is
    M(Y) / (Y - y_i) over M'(y_i), with M(Y) = prod_j (Y - y_j); the
    quotients come from one synthetic division for every i at once.
    """
    n = len(y)
    master = np.zeros(n + 1, dtype=np.int64)  # low degree first
    master[0] = 1
    den = np.ones(n, dtype=np.int64)  # M'(y_i) = prod_{j != i} (y_i - y_j)
    for yj in y.tolist():
        master = (np.roll(master, 1) - yj * master) % p
        den = den * np.where(y == yj, 1, y - yj) % p
    quot = np.zeros((n, n), dtype=np.int64)  # [i, e]
    quot[:, n - 1] = master[n]
    for e in range(n - 1, 0, -1):
        quot[:, e - 1] = (master[e] + y * quot[:, e]) % p
    inv_den = np.array([pow(x, -1, p) for x in den.tolist()], dtype=np.int64)
    return (quot * inv_den[:, None] % p).T


def _contract(vals: np.ndarray, inv: np.ndarray, p: int) -> np.ndarray:
    """sum_i inv[e, i] * vals[i, ...] mod p, with the e axis moved to the back.

    inv is split into 16-bit limbs, so with residues below 2^31 every partial
    sum of n terms stays below n * 2^47 < 2^63.
    """
    lo = np.tensordot(vals, inv & 0xFFFF, axes=([0], [1]))
    hi = np.tensordot(vals, inv >> 16, axes=([0], [1])) % p
    return (lo + (hi << 16)) % p


def _interpolate(k: int, p: int) -> np.ndarray:
    """Coefficients [e2, e3, e4] of F(1, Y2, Y3, Y4) mod p, each exponent up to k^2."""
    w = _root_of_unity(k, p)
    t, y = _nodes(k, p)
    vals = _grouped_values(k, p, w, t[:, None, None], t[None, :, None], t[None, None, :])
    inv = _vandermonde_inverse(y, p)
    for _ in range(3):  # contract b, c, d in turn; each exponent axis moves to the back
        vals = _contract(vals, inv, p)
    return vals


def _check_spare_prime(F: "IntPoly", k: int, p: int) -> None:
    """F(1, x2^k, x3^k, x4^k) = G(1, x2, x3, x4) mod p at a few fixed points."""
    rng = SplitMix64(k)
    xs = np.array([[rng.randint(1, p - 1) for _ in range(3)] for _ in range(_CHECK_POINTS)], dtype=np.int64)
    expected = _grouped_values(k, p, _root_of_unity(k, p), xs[:, 0], xs[:, 1], xs[:, 2])
    for x, g in zip(xs.tolist(), expected.tolist()):
        if F.evaluate((1, *(pow(v, k, p) for v in x)), mod=p) != g:
            raise ArithmeticError(f"expansion disagrees with the product modulo the spare prime {p} (k={k})")


def _check_full(k: int, primes: tuple) -> None:
    """Grouped = full product on the simplex b + c + d <= k^3, unisolvent for degree k^3."""
    grid = np.indices((k**3 + 1,) * 3, dtype=np.int64).reshape(3, -1)
    b, c, d = grid[:, grid.sum(axis=0) <= k**3]
    for p in primes:
        w = _root_of_unity(k, p)
        if not np.array_equal(_grouped_values(k, p, w, b, c, d), _full_values(k, p, w, b, c, d)):
            raise ArithmeticError(f"grouped and full expansions disagree at k={k}")


@dataclass(frozen=True)
class IntPoly:
    """Sparse integer polynomial in four variables."""

    terms: tuple  # sorted tuple of ((e1,e2,e3,e4), coeff)

    @classmethod
    def of(cls, mapping) -> "IntPoly":
        items = tuple(sorted((tuple(e), int(c)) for e, c in mapping.items() if c))
        return cls(items)

    def homogeneous_degree(self):
        degs = {sum(e) for e, _ in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def evaluate(self, n, mod=None) -> int:
        """Exact value at an integer 4-tuple, optionally reduced mod m >= 1."""
        if len(n) != 4:
            raise ValueError("needs a 4-tuple")
        if mod is not None and mod < 1:
            raise ValueError(f"modulus must be >= 1, got {mod}")
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
    primes, spare = _primes_for(_coefficient_bound(k), k)
    coeffs = np.stack([_interpolate(k, p) for p in primes])  # [prime, e2, e3, e4]
    e2, e3, e4 = np.nonzero(coeffs.any(axis=0))
    if (e2 + e3 + e4 > k * k).any():
        raise ArithmeticError(f"expansion not homogeneous of degree k^2 (k={k})")
    values = _crt(coeffs[:, e2, e3, e4], primes)
    exps = np.stack([k * k - e2 - e3 - e4, e2, e3, e4], axis=1).tolist()
    F = IntPoly.of({tuple(e): c for e, c in zip(exps, values)})
    _check_spare_prime(F, k, spare)
    if k <= _FULL_CROSS_CHECK_CAP:
        _check_full(k, primes)
    return F


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
