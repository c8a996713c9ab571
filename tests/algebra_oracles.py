"""Pure-Python oracles for the algebra layer.

These are the routes the array kernels replaced: Gowers norms over Python
sets (the recursion over difference-set shifts and the square sum over every
shift tuple, both bottoming out in a pair-difference bincount); the product
polynomial expanded as dicts of packed exponents over Z[w]/Phi_k, grouped and
full; the term-by-term evaluation of a polynomial mod p at a batch of
4-tuples; and the box-zero count that screens the whole grid per n1 and
confirms every candidate, diagonal ones included, by exact evaluation.  They
share no arithmetic with modroots.gowers and modroots.prodpoly's kernels, so
the property tests compare the production routes against them.

One exception: the Gowers row stacks over every shift in Z_q, which the
folded stacks (shifts 0..q//2, weighted) replaced, score their rows with
modroots.gowers._stack_energy at weight 1, so they check the fold alone.
_stack_energy itself is checked against rowwise_stack_energy, which scores
each row alone by one cyclic_convolve of its indicator, with no complement:
the route of a dense row before energy._pair_counts took dense blocks.

The character/inverse moment's oracle is the slice loop that
expsums._window_sums replaced: each window summed slice by slice in the order
u = 1..U0, in O(U0 q).  Its terms come from the same tables, so the two routes
differ only by rounding, which window_bound and moment_tolerance bound.

Three checks with no production reader live here too: the ring arithmetic of
IntPoly that builds the classic quartic identity, the parser of to_text's
format, and the DFT identity of the root sums f against the Gauss sum.
"""

import cmath
import math
from functools import lru_cache
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from modroots.convolve import cyclic_convolve
from modroots.expsums import _root_sums, character_table, index_table, unit_roots
from modroots.gowers import _shifted, _stack_energy
from modroots.prodpoly import IntPoly, _prime_pool, product_poly
from modroots.sets import IndicatorSet, RepFn


# ---------------------------------------------------------------------------
# Gowers norms over Python sets


def _diff_square_sum(members: np.ndarray, q: int) -> int:
    """sum_d (#{(a,b): a-b=d})^2, i.e. the additive energy of the set."""
    if len(members) == 0:
        return 0
    diffs = (members[:, None] - members[None, :]) % q
    counts = np.bincount(diffs.ravel(), minlength=q)
    return int(np.dot(counts, counts))


def _intersect_shift(members: set, s: int, q: int) -> set:
    return {x for x in members if (x + s) % q in members}


def _norm_recursive(members: set, q: int, k: int) -> int:
    """U^k via the recursion over difference-set shifts; U^1(B) = (#B)^2."""
    if not members:
        return 0
    if k == 1:
        return len(members) ** 2
    if k == 2:
        return _diff_square_sum(np.fromiter(members, dtype=np.int64), q)
    total = 0
    diffs = {(a - b) % q for a in members for b in members}
    for s in sorted(diffs):
        total += _norm_recursive(_intersect_shift(members, s, q), q, k - 1)
    return total


def _norm_square_sum(members: set, q: int, k: int) -> int:
    """U^k as the sum over (k-1)-tuples of shifts of squared intersection sizes."""
    if not members:
        return 0
    if k == 1:
        return len(members) ** 2

    def rec(current: set, depth: int) -> int:
        if depth == 0:
            return len(current) ** 2
        if not current:
            return 0
        if depth == 1:
            return _diff_square_sum(np.fromiter(current, dtype=np.int64), q)
        total = 0
        for s in range(q):
            total += rec(_intersect_shift(current, s, q), depth - 1)
        return total

    return rec(set(members), k - 1)


def set_norms(A: IndicatorSet, k: int) -> tuple:
    """U^k of A by the recursion route and by the square-sum route."""
    members = set(A.members.tolist())
    return _norm_recursive(members, A.q, k), _norm_square_sum(members, A.q, k)


def row_energy(row: np.ndarray, negate: bool) -> int:
    """E(B) of the boolean row B: the square sum of its indicator convolved with
    itself, or with its reflection x -> -x for the difference counts."""
    ind = row.astype(np.int64)
    return RepFn(len(row), cyclic_convolve(ind, np.roll(ind[::-1], 1) if negate else ind)).square_sum()


def rowwise_stack_energy(rows: np.ndarray, weights: np.ndarray, negate: bool) -> int:
    """sum of weight * E(B) over the rows B, each scored alone by row_energy."""
    return sum(w * row_energy(row, negate) for row, w in zip(rows, weights.tolist()))


_ROW_CHUNK = 1 << 20  # entries per temporary of the unfolded row stacks


def _unit_energy(rows: np.ndarray, negate: bool) -> int:
    return _stack_energy(rows, np.ones(len(rows), dtype=np.int64), negate)


def _full_shift_stack(rows: np.ndarray, depth: int):
    """Chunks of the nonempty rows B & roll(B, -s_1) & ..., every s_i in Z_q."""
    if depth == 0:
        yield rows
        return
    q = rows.shape[1]
    step, s_step = max(1, _ROW_CHUNK // (q * q)), min(q, max(1, _ROW_CHUNK // q))
    for i in range(0, len(rows), step):
        block = rows[i : i + step]
        for s in range(0, q, s_step):
            grown = (block[:, None, :] & _shifted(block)[:, s : s + s_step]).reshape(-1, q)
            yield from _full_shift_stack(grown[grown.any(axis=1)], depth - 1)


def _full_cube_stack(a: np.ndarray, depth: int):
    """Chunks of the rows prod_eps a[x + eps.s], one per shift tuple s in Z_q^depth."""
    q = len(a)
    if depth == 0:
        yield a[None, :]
        return
    eps = np.array(list(product((0, 1), repeat=depth)), dtype=np.int64)  # [v, i]
    shifted = sliding_window_view(np.tile(a, depth + 1), q)  # [u, x] = a[x + u mod q]
    step = max(1, _ROW_CHUNK // (len(eps) * q))
    total = q**depth
    for start in range(0, total, step):
        flat = np.arange(start, min(start + step, total), dtype=np.int64)
        shifts = np.stack([(flat // q**i) % q for i in range(depth)], axis=1)  # [r, i]
        yield shifted[shifts @ eps.T].all(axis=1)


def full_shift_norm(a: np.ndarray, k: int) -> int:
    """U^k of the indicator a by the shift recursion over every shift, unfolded."""
    if k == 1:
        return int(np.count_nonzero(a)) ** 2
    return sum(_unit_energy(rows, True) for rows in _full_shift_stack(a[None, :], k - 2))


def full_cube_norm(a: np.ndarray, k: int) -> int:
    """U^k of the indicator a by the cube rows of every shift tuple, unfolded."""
    if k == 1:
        return int(np.count_nonzero(a)) ** 2
    return sum(_unit_energy(rows, False) for rows in _full_cube_stack(a, k - 2))


def fourier_u2(A: IndicatorSet) -> int:
    """U^2 = (1/q) sum_xi |1_A^(xi)|^4, rounded (Tao-Vu, Additive Combinatorics, ch. 11)."""
    f = np.fft.fft(A.vector().astype(np.float64))
    return round(float(np.sum(np.abs(f) ** 4)) / A.q)


# ---------------------------------------------------------------------------
# product polynomial as dicts over Z[w]/Phi_k


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


def dict_product_poly(k: int, full: bool = False) -> IntPoly:
    """The product polynomial by the dict expansion, grouped or full."""
    return _collapse(k, _expand_full(k) if full else _expand_grouped(k))


# ---------------------------------------------------------------------------
# IntPoly arithmetic, the classic quartic and the text format


def poly_add(f: IntPoly, g: IntPoly) -> IntPoly:
    out = dict(f.terms)
    for e, c in g.terms:
        out[e] = out.get(e, 0) + c
    return IntPoly.of(out)


def poly_scale(f: IntPoly, c: int) -> IntPoly:
    return IntPoly.of({e: c * coeff for e, coeff in f.terms})


def poly_sub(f: IntPoly, g: IntPoly) -> IntPoly:
    return poly_add(f, poly_scale(g, -1))


def poly_mul(f: IntPoly, g: IntPoly) -> IntPoly:
    out: dict = {}
    for e, c in f.terms:
        for e2, c2 in g.terms:
            key = tuple(a + b for a, b in zip(e, e2))
            out[key] = out.get(key, 0) + c * c2
    return IntPoly.of(out)


def classic_square_poly() -> IntPoly:
    """64*UVXY - (4UV + 4XY - (X + Y - U - V)^2)^2, the known quartic identity."""
    U, V, X, Y = (IntPoly.of({tuple(int(i == j) for j in range(4)): 1}) for i in range(4))
    UV, XY = poly_mul(U, V), poly_mul(X, Y)
    s = poly_sub(poly_add(X, Y), poly_add(U, V))
    inner = poly_sub(poly_scale(poly_add(UV, XY), 4), poly_mul(s, s))
    return poly_sub(poly_scale(poly_mul(UV, XY), 64), poly_mul(inner, inner))


def from_text(text: str) -> IntPoly:
    """The polynomial of prodpoly.to_text's format: one "e1 e2 e3 e4 coefficient" line a term."""
    out = {}
    for line in text.strip().splitlines():
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"bad polynomial line: {line!r}")
        out[tuple(int(x) for x in parts[:4])] = int(parts[4])
    return IntPoly.of(out)


# ---------------------------------------------------------------------------
# box zeros, screened on the whole grid


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


def screened_box_zeros_upto(k: int, N: int) -> list:
    """[T(1), ..., T(N)] where T(n) counts zeros of the product polynomial in [1,n]^4.

    Candidate zeros are screened modulo a few primes on the full grid and every
    candidate is then confirmed by exact integer evaluation; a value nonzero
    modulo any single prime is exactly nonzero, so the counts are exact.
    """
    F = product_poly(k)
    primes = _prime_pool()[:3]
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


# ---------------------------------------------------------------------------
# the character/inverse moment, slice by slice

UNIT_ROUNDOFF = 2.0**-53


def slice_windows(c: int, U0: int, q: int) -> np.ndarray:
    """inner[lambda] = sum_{u=1..U0} chi(lambda+u) e_q(c (lambda+u)^{-1}), added in the
    order u = 1..U0 as the two slices w[u:] and w[:u]: O(U0 q)."""
    table = index_table(q)
    roots = unit_roots(q)
    chi = np.asarray(character_table(q), dtype=np.float64)
    w = chi * roots[table.pw[(table.ind[c % q] - table.ind) % (q - 1)]]
    w[0] = 0.0
    inner = np.empty(q, dtype=np.complex128)
    inner[: q - 1], inner[q - 1] = w[1:], w[0]
    for u in range(2, U0 + 1):
        inner[: q - u] += w[u:]
        inner[q - u :] += w[:u]
    return inner


def window_bound(U0: int) -> float:
    """The a-priori bound of expsums._window_sums, 4 U0^2 u, on the distance of each of
    its windows from the slice loop's."""
    return 4 * U0 * U0 * UNIT_ROUNDOFF


def moment_tolerance(windows: np.ndarray, U0: int, r: int) -> float:
    """How far sum |x|^(2r) over either route's windows may be from the other's, given
    one route's windows: by the mean value theorem each term moves by at most
    2r d (|x| + 2d)^(2r-1), d = window_bound(U0), and each side's abs, power and
    pairwise sum round by at most (2r + 2 + log2 q) u of the moment."""
    d = window_bound(U0)
    a = np.abs(windows)
    moment = float(np.sum(a ** (2 * r)))
    spread = float(np.sum(2 * r * d * (a + 2 * d) ** (2 * r - 1)))
    return spread + 2 * (2 * r + 2 + len(windows).bit_length()) * UNIT_ROUNDOFF * moment


# ---------------------------------------------------------------------------
# the DFT of the root sums against the Gauss sum


def fourier_vs_gauss_residual(a: int, h: int, m: int, n: int, q: int) -> float:
    """|DFT_lambda of f_m at n  -  eps_q chi(a m n) e_q(-a m (4n)^{-1} h^2)|.

    f_m(v) = sum_{x^2 = a m v} e_q(h x); requires n and a*m*n nonzero mod q.
    """
    if n % q == 0 or (a * m * n) % q == 0:
        raise ValueError("requires n and a*m*n nonzero mod q")
    chi = character_table(q)
    roots = unit_roots(q)
    lam = np.arange(q, dtype=np.int64)
    f = _root_sums(a * m % q, h, q, lam)
    direct = np.sum(f * roots[(lam * n) % q]) / math.sqrt(q)
    inv4n = pow(4 * n % q, q - 2, q)
    eps_q = 1.0 + 0.0j if q % 4 == 1 else 1.0j
    e_q = cmath.exp(2j * math.pi * ((-a * m * inv4n * h * h) % q) / q)
    closed = eps_q * int(chi[(a * m * n) % q]) * e_q
    return abs(direct - closed)
