"""Bilinear exponential sums over modular square roots, smoothed variants,
and the character/inverse moment with its diagonal-plus-square-root-cancellation
envelope.

Dyadic convention throughout: m ~ M means M/2 <= m < M.  Both root sums read
f(v) = sum_{x^2 = a v} e_q(h x), evaluated only at the products m n mod q
they use: the square roots of a v are two gathers from modular.index_table.
W is alpha . f[m n mod q] . beta and V is alpha . f[m n mod q] . phi(n), one
einsum each (no BLAS call, so no BLAS thread pool wakes).  The moment reads
c y^{-1} = pw[ind c - ind y] from the same table and takes every window of U0
terms in O(q) from block prefix sums (van Herk 1992; Gil and Werman 1993),
within an a-priori bound of the slice-by-slice sum (_window_sums).  Oracle
comparisons of W and V are at relative tolerance 1e-9; f is never tabulated
over all of Z_q, and its DFT identity against the Gauss sum is checked in
tests/algebra_oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modular import _as_q, character_table, index_table, unit_roots


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
    """f(v) = sum_{x^2 = a v} e_q(h x) at every residue v of the int64 array vs."""
    table = index_table(q)  # CapacityError above the cap, before any q-sized allocation
    roots = unit_roots(q)
    a %= q
    h %= q  # a, h, v and every root are below q <= 2^26: products stay under 2^52
    t = (a * vs.ravel()) % q
    f = np.zeros(t.shape, dtype=np.complex128)
    f[t == 0] = roots[0]  # the root x = 0
    nonzero = np.flatnonzero(t)
    solvable, xs = table.roots(t[nonzero], 2)
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
    flat[: q - 1] *= character_table(q).chi[1:]
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
