"""Prime-field arithmetic: primality, prime enumeration, k-th roots, characters, Gauss sums.

Dense power and root queries below ROOT_TABLE_CAP read one discrete-log table
per prime, index_table(q): a primitive root g, pw[i] = g^i and ind[x] =
log_g x as read-only int32 arrays, built in O(q) by block doubling and cached
per q (the cache is bounded by the residues it holds, not by its entries;
character_table and unit_roots are cached under the same bound).
Powers, inverses and the quadratic character are exponent arithmetic on it:
x^k = pw[k ind x mod (q-1)], x^-1 = pw[-ind x] and chi(x) = (-1)^(ind x).
With g_k = gcd(k, q-1) and h = (q-1)/g_k, x^k = v has roots only when g_k
divides ind v, and they are pw[(ind v / g_k) (k/g_k)^-1 mod h + i h] for
i < g_k; so preimage_set costs O(g_k N), whatever the dilate j.  Sparse root
queries (kth_roots, the roots of primes, the coset energies of the prime
average) read root_rows at any prime q, or at an array of primes, one a
row: Adleman-Manders-Miller by square-and-multiply over an array, with no
q-sized table.
"""

from __future__ import annotations

import cmath
import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .errors import CapacityError, DegenerateError
from .sets import IndicatorSet

# Witness set valid deterministically for all n < 3.3 * 10^24 (covers 64-bit).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

WORD_CAP = 1 << 63
SIEVE_CAP = 1 << 40
PRIME_SWEEP_CAP = 1 << 24  # largest Q of the prime average, and P of the prime-roots discrepancy
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
    return prime_array(lo, hi).tolist()


def prime_array(lo: int, hi: int) -> np.ndarray:
    """Ascending int64 array of the primes in the closed range [lo, hi], by a segmented sieve."""
    if lo < 0 or hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    if hi >= WORD_CAP:
        raise CapacityError("range exceeds supported word size")
    if hi > SIEVE_CAP:
        raise CapacityError(f"sieve capped at {SIEVE_CAP}")
    if hi < 2:
        return np.zeros(0, dtype=np.int64)
    root = math.isqrt(hi)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p :: p] = False
    base_primes = np.nonzero(base)[0]
    lo = max(lo, 2)

    out = []
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
        out.append(start + np.flatnonzero(seg))
    return np.concatenate(out)


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


def _prime_factors(n: int) -> dict:
    """{p: v_p(n)} for n >= 1, by trial division."""
    factors, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


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

    def roots(self, vs, k: int):
        """(solvable, roots) for nonzero residues vs: x^k = vs[i] is solvable iff
        solvable[i], and roots[r] holds the g_k = gcd(k, q - 1) roots of the r-th
        solvable value (int64, shape (solvable.sum(), g_k))."""
        gk = math.gcd(k, self.q - 1)
        iv = self.ind[np.asarray(vs, dtype=np.int64)].astype(np.int64)
        solvable = iv % gk == 0
        return solvable, self.power_roots(iv[solvable] // gk, k)

    def power_roots(self, t: np.ndarray, k: int) -> np.ndarray:
        """Row r holds the g_k distinct roots of x^k = g^(g_k t[r]), for int64 0 <= t < (q-1)/g_k."""
        gk = math.gcd(k, self.q - 1)
        h = (self.q - 1) // gk
        # roots of x^k = g^(gk t): g^(t (k/gk)^-1 mod h + i h) for i < gk; both factors below 2^26
        base = t * pow(k // gk, -1, h) % h
        return self.pw[base[:, None] + h * np.arange(gk)].astype(np.int64)


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


def kth_root_set(vs, k: int, q) -> np.ndarray:
    """Ascending int64 array of the x in Z_q with x^k in vs, for distinct residues vs.

    O(g_k |vs|) gathers from index_table(q), g_k = gcd(k, q - 1); CapacityError above the cap.
    """
    q = _as_q(q)
    if k < 1:
        raise ValueError("k must be >= 1")
    vs = np.asarray(vs, dtype=np.int64)
    nonzero = vs[vs != 0]
    roots = index_table(q).roots(nonzero, k)[1].ravel()
    if len(nonzero) < len(vs):  # 0^k = 0
        roots = np.append(roots, 0)
    return np.sort(roots)


def _one_value(a):
    """a as one Python int when its entries are all equal, else as an array."""
    a = np.asarray(a)
    return int(a.flat[0]) if a.size and (a == a.flat[0]).all() else a


def _power(x, e, q):
    """x^e mod q elementwise by square-and-multiply.  The exponents e >= 0 and the
    moduli q are each one integer or an array that broadcasts against x; an array of
    one value, such as the per-row data of a one-prime root_rows call, is taken as
    that value, so a scalar exponent skips the per-bit select and a scalar modulus
    the per-row divisor."""
    out = np.ones(np.broadcast_shapes(np.shape(x), np.shape(e), np.shape(q)), dtype=np.asarray(x).dtype)
    e, q = _one_value(e), _one_value(q)
    for i in reversed(range(int(np.max(e, initial=0)).bit_length())):  # left to right
        out = out * out % q
        if np.ndim(e):
            out = np.where(e & 1 << i, out * x % q, out)
        elif e >> i & 1:
            out = out * x % q
    return out


def _sylow_root(a: np.ndarray, l: int, e: int, ps: np.ndarray, at):
    """(x, w): x holds an l^e-th root of each unit in a that has one, by Adleman-Manders-Miller,
    and w has order l^e; a[r] is a residue mod the prime ps[at][r], l is a prime and l^e
    divides every q - 1 = l^s t, t prime to l.  at indexes ps by row.

    z = c^t, c no l-th power, generates the l-Sylow subgroup.  With l^e u = 1 (mod t) and
    y = a^(u-1), x = y a has x^(l^e) = a b, b = y^(l^e) a^(l^e - 1) = z^L, and l^e | L if a
    has a root: one power to an exponent below t, the others below l^e.
    Round i = e..s-1 reads the base-l digit d_i of L from b^(l^(s-1-i)) = zeta^(d_i),
    zeta = z^(l^(s-1)), and clears it by x <- x z^(-d_i l^(i-e)), in the rows whose
    prime has s > i.  s, t, c, z, zeta and z^-1 are arrays over ps, computed once a
    prime and gathered by row.
    """
    n = ps - 1
    s, t = np.zeros(len(ps), dtype=np.int64), n.copy()
    while (m := (t % l == 0)).any():
        s, t = s + m, np.where(m, t // l, t)
    c, todo, window = np.zeros_like(ps), np.arange(len(ps)), np.arange(2, 10, dtype=ps.dtype)
    while len(todo):  # c is the least non-l-th power, almost always below 10
        other = _power(window, (n // l)[todo, None], ps[todo, None]) != 1
        hit = other.any(axis=1)
        c[todo[hit]] = window[other[hit].argmax(axis=1)]
        todo, window = todo[~hit], window + len(window)
    z = _power(c, t, ps)
    u = np.array([pow(l**e, -1, m) or m for m in t.tolist()], dtype=ps.dtype)  # 1 <= u <= t
    zetas = _power(_power(z, l ** (s - 1), ps)[:, None], np.arange(l), ps[:, None])  # [p, j] = zeta^j
    zinv = _power(z, ps - 2, ps)
    q, s = ps[at], s[at]
    y = _power(a, (u - 1)[at], q)
    x, b = y * a % q, _power(y, l**e, q) * _power(a, l**e - 1, q) % q
    for i in range(e, int(s.max(initial=0))):
        r = np.flatnonzero(s > i)  # the rows with a digit left
        d = np.argmax(_power(b[r], l ** (s[r] - 1 - i), q[r])[:, None] == zetas[at][r], axis=1)
        step = _power(zinv[at][r], d, q[r])
        x[r], b[r] = x[r] * step % q[r], b[r] * _power(step, l**e, q[r]) % q[r]
        zinv = _power(zinv, l, ps)  # z^(-l^(i+1-e))
    return x, _power(z[at], l ** (s - e), q)


def root_rows(vs, k: int, q):
    """(solvable, rows) for nonzero residues vs, as IndexTable.roots with no q-sized table.

    q is one prime, or an int64 array of primes aligned with vs, one a row, that share
    g_k = gcd(k, q - 1).  Each row of rows is ascending, int64 when every q < 2^31 (products
    of two residues stay below 2^62) and Python ints above.  One _sylow_root pass per prime
    l | g_k gives a g_k-th root, its (k/g_k)^-1 mod (q-1)/g_k power x is a k-th root if any,
    and x times the g_k-th roots of unity are all of them; solvable is the exact test x^k = v.
    The data of each distinct prime are computed once and gathered by row.
    """
    vs = np.asarray(vs, dtype=np.int64)
    if np.ndim(q):  # the distinct primes, ascending (np.unique would import numpy.ma)
        ps = np.sort(np.asarray(q, dtype=np.int64))
        ps = ps[np.diff(ps, prepend=-1) != 0]
        at = ps.searchsorted(q)
    else:
        ps, at = np.array([_as_q(q)], dtype=np.int64), np.zeros(len(vs), dtype=np.intp)
    g = math.gcd(k, int(ps[0]) - 1)
    if (np.gcd(k, ps - 1) != g).any():
        raise ValueError(f"root_rows takes one g_k = gcd(k, q - 1) a call, k={k}")
    ps = ps.astype(np.int64 if ps[-1] < 1 << 31 else object)
    vs = vs.astype(ps.dtype)
    n, qs = ps - 1, ps[at]
    x, omega = vs, np.ones_like(qs)
    for l, e in _prime_factors(g).items():
        x, w = _sylow_root(x, l, e, ps, at)
        omega = omega * w % qs  # of order g once every l is done
    inverse = np.array([pow(k // g, -1, m) for m in (n // g).tolist()], dtype=ps.dtype)
    x = _power(x, inverse[at], qs)
    solvable = _power(x, (k % n)[at], qs) == vs
    unity = _power(omega[:, None], np.arange(g), qs[:, None])
    return solvable, np.sort(x[solvable, None] * unity[solvable] % qs[solvable, None], axis=1)


def sqrt_mod(a: int, q) -> list:
    """The sorted solutions of x^2 = a (mod q) for prime q.  Only the bench tracer
    (perfbench/tracing.py) reads it; it leaves with ROADMAP item 2."""
    return sorted(kth_roots(a, 2, q))


def kth_roots(a: int, k: int, q) -> set:
    """The set { x in Z_q : x^k = a (mod q) }, from root_rows for every prime q."""
    q = _as_q(q)
    if k < 1:
        raise ValueError("k must be >= 1")
    if a % q == 0:
        return {0}
    return set(root_rows([a % q], k, q)[1].ravel().tolist())


def preimage_set(j: int, k: int, N: int, q) -> IndicatorSet:
    """The set { x in F_q^* : j*x^k mod q lies in {1,...,N} } (natural embedding).

    The union of the k-th roots of j^{-1} n for n = 1..N: O(g_k N) work.
    """
    q = _as_q(q)
    j %= q
    if j == 0:
        raise ValueError("j must be nonzero mod q")
    if not (1 <= N <= q):
        raise ValueError(f"N must satisfy 1 <= N <= q, got {N}")
    index_table(q)  # CapacityError above the cap, before the N-sized arange
    # n = q would give v = 0, whose only root is 0, outside F_q^*
    vs = (pow(j, -1, q) * np.arange(1, min(N, q - 1) + 1, dtype=np.int64)) % q  # < q^2 <= 2^52
    return IndicatorSet(q, kth_root_set(vs, k, q))


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Quadratic character chi mod q, the unit eps_q, and the additive character e_q.

    chi is a read-only int64 array: chi[0] = 0 and chi[x] = (-1)^(log_g x),
    the parity of index_table(q).ind (so above ROOT_TABLE_CAP, build raises
    CapacityError).
    """

    q: int
    chi: np.ndarray
    eps_q: complex

    @classmethod
    def build(cls, q) -> "CharacterTable":
        q = _as_q(q)
        if q == 2:
            raise DegenerateError("quadratic character table requires odd q")
        chi = 1 - 2 * (index_table(q).ind & 1).astype(np.int64)  # (-1)^(log_g x)
        chi[0] = 0
        chi.flags.writeable = False
        eps = 1.0 + 0.0j if q % 4 == 1 else 1.0j
        return cls(q, chi, eps)

    def e(self, x: int) -> complex:
        return cmath.exp(2j * math.pi * (x % self.q) / self.q)


@_cache_by_residues(INDEX_CACHE_RESIDUES)
def character_table(q) -> CharacterTable:
    return CharacterTable.build(q)


@_cache_by_residues(INDEX_CACHE_RESIDUES)
def unit_roots(q: int) -> np.ndarray:
    """exp(2*pi*i*x/q) for x = 0..q-1."""
    return np.exp(2j * np.pi * np.arange(q) / q)


def gauss_sum(b: int, h: int, q):
    """sum_x e_q(b*x^2 + h*x) by its closed form eps_q * chi(b) * sqrt(q) *
    e_q(-h^2 * (4b)^{-1}), cross-checked against direct summation: ArithmeticError
    unless they agree to relative tolerance COMPLEX_RTOL.
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
    return closed
