"""The discrete-log table of F_q, the quadratic character and the Gauss sum;
bilinear exponential sums over modular square roots, smoothed variants, and the
character/inverse moment with its diagonal-plus-square-root-cancellation envelope.

index_table(q) holds a primitive root g, pw[i] = g^i and ind[x] = log_g x as
read-only int32 arrays, built in O(q) by block doubling and cached per q (the
cache is bounded by the residues it holds, not by its entries; character_table
and unit_roots are cached under the same bound).  Square roots, inverses and
the quadratic character are exponent arithmetic on it: x^2 = g^i has the roots
g^(i/2) and -g^(i/2) when i is even, x^-1 = pw[-ind x] and chi(x) = (-1)^(ind x).

Dyadic convention throughout: m ~ M means M/2 <= m < M.  Both root sums read
f(v) = sum_{x^2 = a v} e_q(h x), evaluated only at the products m n mod q
they use: the square roots of a v are two gathers from the table.  W is
alpha . f[m n mod q] . beta and V is alpha . f[m n mod q] . phi(n), one
einsum each (no BLAS call, so no BLAS thread pool wakes).  The moment reads
c y^{-1} = pw[ind c - ind y] from the same table and takes every window of U0
terms in O(q) from block prefix sums (van Herk 1992; Gil and Werman 1993),
within an a-priori bound of the slice-by-slice sum (_window_sums).  Oracle
comparisons of W and V are at relative tolerance 1e-9; f is never tabulated
over all of Z_q, and its DFT identity against the Gauss sum is checked in
tests/algebra_oracles.py.
"""

from __future__ import annotations

import cmath
import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import wraps

import numpy as np

from .errors import CapacityError, DegenerateError
from .modular import ROOT_TABLE_CAP, WORD_CAP, _as_q, _prime_factors

COMPLEX_RTOL = 1e-9


def _primitive_root(q: int) -> int:
    """The least generator of F_q^* (trial division of q - 1, q <= ROOT_TABLE_CAP)."""
    if q == 2:
        return 1
    g, factors = 2, _prime_factors(q - 1)
    while any(pow(g, (q - 1) // p, q) == 1 for p in factors):
        g += 1
    return g


@dataclass(frozen=True, eq=False)
class IndexTable:
    """Discrete logarithms to the primitive root g of F_q as read-only int32 arrays.

    pw[i] = g^i mod q for i = 0..q-2, and ind[x] = log_g x for x = 1..q-1
    (ind[0] = 0 is a placeholder: every query treats x = 0 itself).
    """

    q: int
    g: int
    pw: np.ndarray
    ind: np.ndarray


# residues each per-q cache holds at once, but always the latest table: 32 MiB of
# index tables (two int32 a residue), 32 MiB of characters, 64 MiB of unit roots
INDEX_CACHE_RESIDUES = 1 << 22

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _cache_by_residues(cap: int):
    """An lru cache of one table per prime q, bounded by the sum of the q it holds.

    A sweep that walks more primes than a count-bounded cache holds, cyclically,
    would miss on every lookup; a bound in residues keeps all the small tables.
    """

    def decorate(build):
        tables = OrderedDict()
        stats = {"hits": 0, "misses": 0}

        @wraps(build)
        def cached(q):
            q = _as_q(q)
            if q in tables:
                stats["hits"] += 1
                tables.move_to_end(q)
                return tables[q]
            stats["misses"] += 1
            table = tables[q] = build(q)
            while len(tables) > 1 and sum(tables) > cap:
                tables.popitem(last=False)
            return table

        cached.cache_info = lambda: _CacheInfo(stats["hits"], stats["misses"], cap, sum(tables))

        def cache_clear():
            tables.clear()
            stats.update(hits=0, misses=0)

        cached.cache_clear = cache_clear
        return cached

    return decorate


@_cache_by_residues(INDEX_CACHE_RESIDUES)
def index_table(q: int) -> IndexTable:
    """The IndexTable of F_q, built in O(q) by block doubling; q <= ROOT_TABLE_CAP."""
    if q > ROOT_TABLE_CAP:
        raise CapacityError(f"residue table capped at q <= {ROOT_TABLE_CAP}")
    g = _primitive_root(q)
    n = q - 1
    pw = np.empty(n, dtype=np.int32)
    pw[0] = 1
    b = 1
    while b < n:  # pw[b:2b] = pw[:b] * g^b, products below q^2 <= 2^52
        m = min(b, n - b)
        block = np.multiply(pw[:m], pow(g, b, q), dtype=np.int64)
        block %= q
        pw[b : b + m] = block
        b += m
    ind = np.zeros(q, dtype=np.int32)
    ind[pw] = np.arange(n, dtype=np.int32)
    pw.flags.writeable = False
    ind.flags.writeable = False
    return IndexTable(q, g, pw, ind)


@_cache_by_residues(INDEX_CACHE_RESIDUES)
def character_table(q) -> np.ndarray:
    """The quadratic character mod an odd prime q as a read-only int64 array: chi[0] = 0
    and chi[x] = (-1)^(log_g x), the parity of index_table(q).ind (so CapacityError
    above ROOT_TABLE_CAP, before anything is allocated)."""
    if q == 2:
        raise DegenerateError("quadratic character table requires odd q")
    chi = 1 - 2 * (index_table(q).ind & 1).astype(np.int64)  # (-1)^(log_g x)
    chi[0] = 0
    chi.flags.writeable = False
    return chi


@_cache_by_residues(INDEX_CACHE_RESIDUES)
def unit_roots(q: int) -> np.ndarray:
    """exp(2*pi*i*x/q) for x = 0..q-1."""
    return np.exp(2j * np.pi * np.arange(q) / q)


def gauss_sum(b: int, h: int, q):
    """sum_x e_q(b*x^2 + h*x) by its closed form eps_q * chi(b) * sqrt(q) *
    e_q(-h^2 * (4b)^{-1}), eps_q = 1 or i as q = 1 or 3 (mod 4), cross-checked
    against direct summation: ArithmeticError unless they agree to relative
    tolerance COMPLEX_RTOL.
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
    chi = character_table(q)
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
    eps = 1.0 + 0.0j if q % 4 == 1 else 1.0j
    closed = eps * int(chi[b]) * math.sqrt(q) * cmath.exp(2j * math.pi * (-h * h * inv4b % q) / q)
    if abs(direct - closed) > COMPLEX_RTOL * math.sqrt(q):
        raise ArithmeticError(
            f"gauss sum cross-check failed at (b={b}, h={h}, q={q}): "
            f"direct={direct}, closed={closed}"
        )
    return closed


def dyadic_range(X: int) -> range:
    """Integers a with X/2 <= a < X."""
    return range((X + 1) // 2, X)


@dataclass(frozen=True)
class BilinearQuery:
    """Weights alpha over m ~ M and beta over n ~ N (indexed in dyadic order)."""

    a: int
    h: int
    M: int
    N: int
    q: int
    alpha: tuple
    beta: tuple

    def __post_init__(self):
        q = _as_q(self.q)
        if self.a % q == 0:
            raise ValueError("a must be nonzero mod q")
        if len(self.alpha) != len(dyadic_range(self.M)):
            raise ValueError("alpha length must match the dyadic m-range")
        if len(self.beta) != len(dyadic_range(self.N)):
            raise ValueError("beta length must match the dyadic n-range")


def _root_sums(a: int, h: int, q: int, vs: np.ndarray) -> np.ndarray:
    """f(v) = sum_{x^2 = a v} e_q(h x) at every residue v of the int64 array vs.

    With g_2 = gcd(2, q - 1) and i = ind(a v), x^2 = a v is solvable iff g_2 | i, and
    its roots are pw[i/g_2 + j (q-1)/g_2] for j < g_2 (one root at q = 2).
    """
    table = index_table(q)  # CapacityError above the cap, before any q-sized allocation
    roots = unit_roots(q)
    a %= q
    h %= q  # a, h, v and every root are below q <= 2^26: products stay under 2^52
    t = (a * vs.ravel()) % q
    f = np.zeros(t.shape, dtype=np.complex128)
    f[t == 0] = roots[0]  # the root x = 0
    nonzero = np.flatnonzero(t)
    g2 = math.gcd(2, q - 1)
    iv = table.ind[t[nonzero]].astype(np.int64)
    solvable = iv % g2 == 0
    xs = table.pw[iv[solvable, None] // g2 + (q - 1) // g2 * np.arange(g2)].astype(np.int64)
    f[nonzero[solvable]] = roots[(h * xs) % q].sum(axis=1)
    return f.reshape(vs.shape)


def _root_sum_form(a: int, h: int, q, ms, ns, u, v) -> complex:
    """u . F . v with F[m, n] = f(m n mod q), f evaluated only at those products."""
    q = _as_q(q)
    m = np.asarray(ms, dtype=np.int64) % q
    n = np.asarray(ns, dtype=np.int64) % q  # both below q <= 2^26: products fit in int64
    return complex(np.einsum("i,ij,j->", u, _root_sums(a, h, q, np.outer(m, n) % q), v))


def bilinear_root_sum(query: BilinearQuery) -> complex:
    """sum over m ~ M, n ~ N of alpha_m beta_n sum_{x^2 = a m n} e_q(h x)."""
    return _root_sum_form(
        query.a, query.h, query.q, dyadic_range(query.M), dyadic_range(query.N),
        query.alpha, query.beta,
    )


@dataclass(frozen=True)
class SmoothBump:
    """phi(x) = exp(1 - 1/(1 - t^2)) with t = (2x - 3N)/N, supported on (N, 2N).

    The support condition holds exactly: phi is 0 outside (N, 2N), positive inside, and 1 at 3N/2.
    """

    N: int

    def __call__(self, x) -> float:
        t = (2.0 * x - 3.0 * self.N) / self.N
        if abs(t) >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - t * t))

    def support(self) -> range:
        """Integer support: n in (N, 2N)."""
        return range(self.N + 1, 2 * self.N)


def smoothed_root_sum(a: int, h: int, M: int, q, alpha, bump: SmoothBump) -> complex:
    """sum over m ~ M and integer n of alpha_m phi(n) sum_{x^2 = a m n} e_q(h x)."""
    q = _as_q(q)
    if a % q == 0:
        raise ValueError("a must be nonzero mod q")
    ms = dyadic_range(M)
    if len(alpha) != len(ms):
        raise ValueError("alpha length must match the dyadic m-range")
    ns = bump.support()
    return _root_sum_form(a, h, q, ms, ns, alpha, [bump(n) for n in ns])


@dataclass(frozen=True)
class MomentReport:
    moment: float
    envelope: float
    ratio: float


def _window_sums(c: int, U0: int, q: int) -> np.ndarray:
    """inner[lambda] = sum_{u=1..U0} w(lambda + u) for lambda = 0..q-1, where
    w(y) = chi(y) e_q(c y^{-1}) and w(0) = 0, with 1 <= U0 <= q, in O(q) for any U0.

    z[i] = w(i + 1 mod q) is laid out cyclically in nb blocks of U0 that cover the
    terms i < q + U0 - 1, and each block holds its prefix sums P_b in place.  The
    window at lambda = b U0 + o is then block b's suffix from o plus block b+1's
    prefix to o - 1: (P_(b+1)[o-1] - P_b[o-1]) + P_b[U0-1], or P_b[U0-1] at o = 0.
    Two complex buffers live at once: z, of nb U0 < q + 2 U0 entries, and the
    windows, of fewer than q + U0 (the slice loop held w and the windows, q
    entries each).

    Error bound, to first order in u = 2^-53: a prefix of j + 1 unit terms is
    within j (j + 1) u of its exact sum (recursive summation), so each window,
    three prefixes and two additions, is within 3 U0^2 u of the exact sum of its
    U0 rounded terms.  The slice-by-slice sum in the order u = 1..U0 is within
    U0^2 u of it, so the two routes differ by at most 4 U0^2 u in every window.
    """
    table = index_table(q)  # CapacityError above the cap
    roots = unit_roots(q)
    nb = -(-(q + U0 - 1) // U0)
    z = np.zeros((nb, U0), dtype=np.complex128)
    flat = z.reshape(-1)
    # c y^{-1} = g^(ind c - ind y) for y = 1..q-1, in int32; z[q - 1] = w(0) stays 0
    np.take(roots, table.pw[(table.ind[c] - table.ind[1:]) % (q - 1)], out=flat[: q - 1])
    flat[: q - 1] *= character_table(q)[1:]
    flat[q : q + U0 - 1] = flat[: U0 - 1]
    np.cumsum(z, axis=1, out=z)
    windows = np.empty((nb - 1) * U0 + 1, dtype=np.complex128)
    blocks = windows[:-1].reshape(nb - 1, U0)
    np.subtract(z[1:, :-1], z[:-1, :-1], out=blocks[:, 1:])
    blocks[:, 1:] += z[:-1, -1:]
    blocks[:, 0] = z[:-1, -1]
    windows[-1] = z[-1, -1]
    return windows[:q]


def char_inverse_moment(c: int, U0: int, r: int, q) -> MomentReport:
    """sum_lambda |sum_{1<=u<=U0} chi(lambda+u) e_q(c (lambda+u)^{-1})|^{2r}.

    Terms with lambda + u = 0 vanish (chi(0) = 0 convention).  The envelope is
    q^(1/2) U0^(2r) + q U0^r: square-root cancellation off the diagonal plus
    the diagonal count.  The inner sums come from _window_sums in O(q), each
    within 4 U0^2 2^-53 of the slice-by-slice sum.
    """
    q = _as_q(q)
    if r < 1:
        raise ValueError("r must be >= 1")
    if U0 < 0 or U0 > q:
        raise ValueError("requires 0 <= U0 <= q")
    if c % q == 0:
        raise ValueError("c must be nonzero mod q")
    if U0 == 0:
        return MomentReport(0.0, 0.0, 0.0)
    inner = _window_sums(c % q, U0, q)
    moment = float(np.sum(np.abs(inner) ** (2 * r)))
    envelope = math.sqrt(q) * U0 ** (2 * r) + q * U0**r
    return MomentReport(moment, envelope, moment / envelope)


def bilinear_envelope(q: int, M: int, N: int) -> float:
    return (
        q ** (1 / 8)
        * (N * M) ** (3 / 4)
        * (N ** (3 / 16) / q ** (1 / 16) + 1)
        * (M ** (3 / 16) / q ** (1 / 16) + 1)
    )


def smoothed_envelope(q: int, M: int, N: int, r: int) -> float:
    main = q ** (1 / 2 - 1 / (4 * r)) * N ** (1 / (2 * r)) * M ** (1 - 1 / (2 * r))
    return main * (1 + (M * N) ** 0.5 / q ** (1 / 2 - 1 / (4 * r)))


@dataclass(frozen=True)
class RatioReport:
    value: complex
    envelope: float
    ratio: float


def bilinear_bound_ratio(query: BilinearQuery) -> RatioReport:
    """|W| over its envelope (sup-norm-1 weights assumed; o(1) factors dropped)."""
    if max((abs(x) for x in query.alpha + query.beta), default=0) > 1 + 1e-12:
        raise ValueError("weights must have sup norm <= 1")
    w = bilinear_root_sum(query)
    env = bilinear_envelope(query.q, query.M, query.N)
    return RatioReport(w, env, abs(w) / env)


def smoothed_bound_ratio(a, h, M, q, alpha, bump: SmoothBump, r: int = 2) -> RatioReport:
    if r < 1:
        raise ValueError("r must be >= 1")
    if max((abs(x) for x in alpha), default=0) > 1 + 1e-12:
        raise ValueError("weights must have sup norm <= 1")
    v = smoothed_root_sum(a, h, M, q, alpha, bump)
    env = smoothed_envelope(q, M, bump.N, r)
    return RatioReport(v, env, abs(v) / env)
