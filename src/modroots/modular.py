"""Prime-field arithmetic: primality, prime enumeration, powers and k-th roots, with no
q-sized table.

Dense root queries below ROOT_TABLE_CAP, preimage_set and kth_root_set, are one
power scan: x^k mod q for every x in Z_q, in chunks of at most _SCAN_CHUNK
residues, kept by a mask; the members come out ascending.  Sparse root queries
(kth_roots, the roots of primes, the coset energies of the prime average) read
root_rows at any prime q, or at an array of primes, one a row:
Adleman-Manders-Miller by square-and-multiply over an array.  The discrete-log
table, the quadratic character and the Gauss sum live in expsums, their one
reader.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .sets import IndicatorSet

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (psi_k, k): the first k prime witnesses decide every n < psi_k, the least
# strong pseudoprime to all of them (OEIS A014233; psi_8 = psi_7 and
# psi_9 = psi_10 = psi_11).  All 12 decide every n < psi_12 > 2^64.
_MR_PREFIXES = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
)

WORD_CAP = 1 << 63
SIEVE_CAP = 1 << 40
PRIME_SWEEP_CAP = 1 << 24  # largest Q of the prime average, and P of the prime-roots discrepancy
ROOT_TABLE_CAP = 1 << 26


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for word-size integers, with the shortest
    prefix of the 12 prime witnesses that decides n: k witnesses below psi_k
    (_MR_PREFIXES), all 12 from 3825123056546413051 up.  Trial division by the
    12 first settles every n they divide, themselves included."""
    if n >= WORD_CAP:
        raise CapacityError(f"primality test limited to n < 2^63, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    k = next((k for bound, k in _MR_PREFIXES if n < bound), len(_MR_WITNESSES))
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[:k]:
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


@lru_cache(maxsize=4096)
def _as_q(q) -> int:
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


def _one_value(a):
    """a as one Python int when its entries are all equal, else as an array."""
    if isinstance(a, int):
        return a
    a = np.asarray(a)
    return int(a.flat[0]) if a.size and (a == a.flat[0]).all() else a


# int64 entries from which one modulus reduces by floor division: numpy's
# floor_divide by a scalar goes through libdivide, and a - a // q * q in place took
# 0.4-0.8 times the time of % from 2000 to 200000 entries, at q = 503 to 2^31 - 1
# (2-vCPU VM); the two were even at 500, and below 100 its two extra calls cost more
_DIVIDE_MIN = 1 << 9


def _mod(a, q):
    """a mod q for a >= 0 that the caller owns: in place as a - a // q * q when q is one
    int and a has at least _DIVIDE_MIN int64 entries, else a % q."""
    if not isinstance(q, int) or a.dtype != np.int64 or a.size < _DIVIDE_MIN:
        return a % q
    t = a // q
    t *= q
    a -= t
    return a


def _power(x, e, q):
    """x^e mod q elementwise by square-and-multiply, for 0 <= x < 2^31 (any x >= 0 in
    an object array).  The exponents e >= 0 and the moduli q are each one integer or
    an array that broadcasts against x; an array of one value, such as the per-row
    data of a one-prime root_rows call, is taken as that value.  One exponent e >= 1
    starts from x and reads its bits after the leading one, so e = 2 is one product
    and no bit pays a select; one modulus reduces by _mod."""
    x = np.asarray(x)
    if not (isinstance(e, int) and isinstance(q, int)):  # x as broadcast against them
        shape = np.broadcast_shapes(x.shape, np.shape(e), np.shape(q))
        x = x if shape == x.shape else np.broadcast_to(x, shape)
    e, q = _one_value(e), _one_value(q)
    one_e = isinstance(e, int)
    if not one_e or e == 0:
        out = np.ones(x.shape, dtype=x.dtype)
        top = int(np.max(e, initial=0)).bit_length()
    else:  # x is the leading bit
        out, top = x % q if e == 1 else x, e.bit_length() - 1
    for i in reversed(range(top)):  # left to right
        out = _mod(out * out, q)
        if not one_e:
            out = np.where(e & 1 << i, _mod(out * x, q), out)
        elif e >> i & 1:
            out = _mod(out * x, q)
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
    """(solvable, rows) for nonzero residues vs, with no q-sized table: x^k = vs[i] is
    solvable iff solvable[i], and the r-th row holds the g_k roots of the r-th solvable value.

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


# residues a chunk of the power scan: its int64 arrays, 256 KiB each, stay in cache; at
# q = 2*10^5 and 10^6 a preimage took 0.4-0.6 times its time in chunks of 2^20 (2-vCPU VM)
_SCAN_CHUNK = 1 << 15


def kth_root_set(vs, k: int, q) -> np.ndarray:
    """Ascending int64 array of the x in Z_q with x^k in vs, for residues vs.

    One power scan: x^k mod q for x = 0..q-1, in chunks of at most _SCAN_CHUNK
    residues (q <= ROOT_TABLE_CAP keeps every product below 2^52), kept by a boolean
    membership mask of vs.  O(q) work whatever |vs| and g_k, and no table;
    CapacityError above ROOT_TABLE_CAP, before anything of size q is allocated.
    """
    q = _as_q(q)
    if k < 1:
        raise ValueError("k must be >= 1")
    if q > ROOT_TABLE_CAP:
        raise CapacityError(f"power scan capped at q <= {ROOT_TABLE_CAP}")
    member = np.zeros(q, dtype=bool)
    member[np.asarray(vs, dtype=np.int64)] = True
    parts = []
    for lo in range(0, q, _SCAN_CHUNK):
        x = np.arange(lo, min(lo + _SCAN_CHUNK, q), dtype=np.int64)
        parts.append(x[member[_power(x, k, q)]])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def preimage_set(j: int, k: int, N: int, q) -> IndicatorSet:
    """The set { x in F_q^* : j*x^k mod q lies in {1,...,N} } (natural embedding).

    kth_root_set of the v = j^-1 n for n = 1..min(N, q - 1) (n = q would give v = 0,
    whose only root is 0, outside F_q^*): one power scan, O(q) work whatever N and g_k,
    and no table; CapacityError above ROOT_TABLE_CAP.
    """
    q = _as_q(q)
    j %= q
    if j == 0:
        raise ValueError("j must be nonzero mod q")
    if not (1 <= N <= q):
        raise ValueError(f"N must satisfy 1 <= N <= q, got {N}")
    if q > ROOT_TABLE_CAP:  # before the N-sized arange
        raise CapacityError(f"power scan capped at q <= {ROOT_TABLE_CAP}")
    vs = pow(j, -1, q) * np.arange(1, min(N, q - 1) + 1, dtype=np.int64) % q  # < q^2 <= 2^52
    return IndicatorSet(q, kth_root_set(vs, k, q))
