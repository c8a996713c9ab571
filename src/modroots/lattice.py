"""Congruence lattices and boxes: exact point counts, the successive minima of
a box and of its dual body { x : sum w_i |x_i| <= 1 } with respect to the dual
lattice, and the classical inequality checks (Minkowski's second theorem, the
counting bound, Mahler transference) plus the short-dual-point trichotomy.

All minima are exact rationals.  One integral LLL reduction B of the primal
basis (weights 1/w_i^2; Cohen, GTM 138, §2.6: integer Gram determinants in
place of a rational Gram-Schmidt) serves both sides: |det B| = q, so the
dual's integer basis q*B^{-T} is adj(B)^T up to sign, and the dual lattice is
never built apart.  Each side's radius is the largest norm of a row of its
basis (d independent vectors), so the greedy extraction below sees every
candidate vector.  The norms max_i |v_i| / w_i and sum_i w_i |v_i| are compared
as integers scaled by an lcm of the widths, in int64 arrays while they stay
below 2^63 and in object arrays above.

Two walks over the box, and one over the reduced basis.  The primal walk
enumerates a box's free coordinates in blocks of at most _CHUNK tuples and
solves the congruence for the widest one: point counts sum its residue
classes, box points lift them.  The residue walk visits the min(q, 2*b_f + 1)
residues that the narrowest bound b_f meets, never all of [0, q): trichotomy
case (iii) compares their balanced lifts with the exact integer thresholds
floor(4320*MN/K), so no product can wrap int64.  Both minima enumerate
v = c . basis in reduced coordinates (Fincke and Pohst, Math. Comp. 44, 1985;
Cohen, GTM 138, §2.7): c = v . adj / det bounds each coefficient over the
radius box (a sum over the box's coordinates; for the dual's l1 body a max over
its vertices).  Two routes enumerate that coefficient box, and one rule picks
between them.  When the whole box holds at most _CHUNK candidates, and those
plus the tuples of all but the widest coefficient fit the budget, it is one
array C and the points are the rows of C @ basis inside the radius box.  Every
other box (thin lattices, wide boxes, budget refusals) is walked: the widest
coefficient is solved per tuple of the others as the intersection of d
intervals, and the candidates come in arrays of at most _CHUNK rows, however
long one interval is.  The walk counts at most the box's candidates against
the budget, so it would refuse nothing the product takes: both routes give the
same points, witnesses and refusals.  The greedy witness choice takes each
witness from one masked product with the normals of the span so far.

Trichotomy case (ii), lambda_1 <= 1 < lambda_2, is read from the box's own
points: it holds iff the box is not degenerate, 1 < K <= 2*w_2 + 1 (w_2 the
second-largest half-width) and every box point is parallel to one nonzero box
point.  Collinear box points are the 2T + 1 multiples of one primitive u.  If u
lay on the widest axis alone it would be a multiple of q there, so that width
would be at least q, and the free tuple with one coordinate 1 and the other 0
would lift to a box point off the line.  Hence u has a nonzero free coordinate,
whose width is at most w_2, and T <= w_2.  So box_points lists at most
2*w_2 + 1 points, no more than the free volume count_points has already
walked: no LLL and no radius box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np

from .errors import BudgetExceededError, CapacityError, DegenerateError

DEFAULT_ENUM_BUDGET = 10**7
_CHUNK = 1 << 13  # elements per enumeration chunk (64 KiB as int64)
_WORD_CAP = 1 << 63


@dataclass(frozen=True)
class CongruenceLattice:
    """{ n in Z^d : a_1 n_1 + ... + a_d n_d = 0 (mod q) }; covolume q."""

    coeffs: tuple
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if len(self.coeffs) not in (2, 3):
            raise ValueError("dimension restricted to 2 or 3")
        for a in self.coeffs:
            if math.gcd(a, self.q) != 1:
                raise ValueError(f"coefficient {a} not coprime to {self.q}")

    @property
    def d(self) -> int:
        return len(self.coeffs)

    def basis(self) -> list:
        """Rows generating the lattice (solved coordinate: the last)."""
        d, q = self.d, self.q
        s = d - 1
        inv = pow(self.coeffs[s], -1, q)  # 0 when q = 1
        rows = []
        for i in range(d - 1):
            row = [0] * d
            row[i] = 1
            row[s] = (-self.coeffs[i] * inv) % q
            rows.append(row)
        last = [0] * d
        last[s] = q
        rows.append(last)
        return rows


@dataclass(frozen=True)
class BoxBody:
    """{ x : |x_i| <= w_i } with rational half-widths."""

    half_widths: tuple

    def __post_init__(self):
        object.__setattr__(self, "half_widths", tuple(Fraction(w) for w in self.half_widths))
        if any(w < 0 for w in self.half_widths):
            raise ValueError("half-widths must be >= 0")

    @property
    def d(self) -> int:
        return len(self.half_widths)

    @property
    def degenerate(self) -> bool:
        return any(w == 0 for w in self.half_widths)


def _fold(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc folded over the d columns of the (n, d) array a, one call a column:
    a numpy reduction along a last axis of length 2 or 3 costs several times
    more per row."""
    return reduce(ufunc, a.T)


def _class_counts(res: np.ndarray, bound: int, q: int):
    """Per residue class r (mod q): t-range for members r + t*q in [-bound, bound]."""
    tmin = -((bound + res) // q)
    tmax = (bound - res) // q
    counts = np.maximum(tmax - tmin + 1, 0)
    return tmin, counts


def _lift_total(counts: np.ndarray, bound: int, q: int) -> int:
    """The exact sum of _class_counts' counts: each is at most 2*bound//q + 1, so
    their int64 sum can wrap only once that times their number reaches 2^63."""
    if (2 * bound // q + 1) * len(counts) >= _WORD_CAP:
        counts = counts.astype(object)
    return int(counts.sum())


def _expand_classes(free_cols: list, res: np.ndarray, classes, q: int, at: int) -> list:
    """Every solved value res + q*t in [-bound, bound] per free tuple, for
    classes = _class_counts(res, bound, q): the free columns repeated, with the
    solved column inserted at position at."""
    tmin, counts = classes
    total = int(counts.sum())
    rep = np.repeat(np.arange(len(res)), counts)
    solved = np.arange(total, dtype=np.int64)  # becomes res + q*t, in place
    solved -= (np.cumsum(counts) - counts - tmin)[rep]
    solved *= q
    solved += res[rep]
    cols = [col[rep] for col in free_cols]
    cols.insert(at, solved)
    return cols


def _mulmod(c: int, r: np.ndarray, q: int) -> np.ndarray:
    """(c * r) % q for 0 <= c, r < q, through Python ints once (q-1)^2 reaches 2^63."""
    if (q - 1) ** 2 < _WORD_CAP:
        return (c * r) % q
    return ((c * r.astype(object)) % q).astype(np.int64)


def _primal_walk(lat: CongruenceLattice, bounds: list, budget: int):
    """Walk the box |v_i| <= bounds_i over the free coordinates; the congruence
    solves for the widest one, s.  Raises before allocating if the walk would
    exceed the budget or int64, then yields (s, axes, res) per block of at most
    _CHUNK free tuples: the block's values of each free coordinate (a grid), and
    per grid tuple, in row-major order, the residue mod q forced on v_s."""
    d, q = lat.d, lat.q
    s = max(range(d), key=lambda i: bounds[i])
    free = [i for i in range(d) if i != s]
    volume = math.prod(2 * bounds[i] + 1 for i in free)
    if volume > budget:
        raise BudgetExceededError(f"enumeration volume {volume} exceeds budget {budget}")
    # every int64 intermediate (multiplier times free value, residue sums, solved values) is below this
    if q * (sum(bounds[i] for i in free) + 2) + bounds[s] >= _WORD_CAP:
        raise CapacityError(f"enumeration at q={q}, bounds={bounds} overflows int64")
    inv = pow(lat.coeffs[s], -1, q)  # 0 when q = 1
    cmul = [(-lat.coeffs[i] * inv) % q for i in free]
    # blocks of whole rows of the last free coordinate, or of one row's pieces
    steps = [max(1, _CHUNK // (2 * bounds[free[-1]] + 1))] * (len(free) - 1) + [_CHUNK]
    for starts in product(*(range(-bounds[i], bounds[i] + 1, st) for i, st in zip(free, steps))):
        ends = [min(lo + st, bounds[i] + 1) for lo, st, i in zip(starts, steps, free)]
        axes = [np.arange(lo, hi, dtype=np.int64) for lo, hi in zip(starts, ends)]
        res = np.zeros((), dtype=np.int64)
        for c, v in zip(cmul, axes):
            res = (res[..., None] + c * v) % q
        yield s, axes, res.ravel()


def count_points(lat: CongruenceLattice, box: BoxBody, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """#(lattice ∩ box), origin included: walk the free coordinates and count
    the solutions of the congruence for the remaining one."""
    if box.d != lat.d:
        raise ValueError("dimension mismatch")
    bounds = [int(w) for w in box.half_widths]  # floor of nonnegative rationals
    return sum(
        _lift_total(_class_counts(res, bounds[s], lat.q)[1], bounds[s], lat.q)
        for s, _, res in _primal_walk(lat, bounds, budget)
    )


def box_points(lat: CongruenceLattice, bounds, budget: int = DEFAULT_ENUM_BUDGET) -> np.ndarray:
    """All lattice points v with |v_i| <= bounds_i, as an (n, d) int64 array: the
    lifts of the walk's blocks.  The lifts count against the budget too:
    BudgetExceededError before a block is expanded once the points lifted so far
    exceed it."""
    bounds = [int(b) for b in bounds]
    pieces, lifted = [], 0
    for s, axes, res in _primal_walk(lat, bounds, budget):
        classes = _class_counts(res, bounds[s], lat.q)
        lifted += _lift_total(classes[1], bounds[s], lat.q)
        if lifted > budget:
            raise BudgetExceededError(f"{lifted} lifted points exceed budget {budget}")
        grid = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
        pieces.append(np.stack(_expand_classes(grid, res, classes, lat.q, s), axis=1))
    return np.concatenate(pieces)


def _residue_walk(coeffs, q: int, bounds: list, step: int):
    """The residues t_i = a_i * lambda mod q of the lambda whose narrowest
    coordinate f has t_f in [-b_f, b_f] (mod q): per chunk of at most step of the
    min(q, 2*b_f + 1) such r = t_f, never all of [0, q), the columns
    t_i = cmul_i * r mod q with cmul_i = a_i * a_f^{-1}."""
    f = min(range(len(coeffs)), key=bounds.__getitem__)
    inv = pow(coeffs[f], -1, q)
    cmul = [(a * inv) % q for a in coeffs]
    b = bounds[f]
    spans = [(0, q)] if 2 * b + 1 >= q else [(0, b + 1), (q - b, q)]
    for lo, hi in spans:
        for start in range(lo, hi, step):
            r = np.arange(start, min(start + step, hi), dtype=np.int64)
            yield [_mulmod(c, r, q) for c in cmul]


# ---------------------------------------------------------------------------
# weighted LLL (exact integer arithmetic)


def _swap(basis: list, d: list, lam: list, k: int) -> None:
    """Swap rows k-1 and k and update the integral Gram-Schmidt data in place.

    Cohen's SWAPI (GTM 138, Alg. 2.6.7): only d[k] and the lam of rows k-1, k
    and the rows below change, each by one exact division.
    """
    basis[k], basis[k - 1] = basis[k - 1], basis[k]
    for j in range(k - 1):
        lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
    l = lam[k][k - 1]
    b = (d[k - 1] * d[k + 1] + l * l) // d[k]
    for i in range(k + 1, len(basis)):
        t = lam[i][k]
        lam[i][k] = (d[k + 1] * lam[i][k - 1] - l * t) // d[k]
        lam[i][k - 1] = (b * t + l * lam[i][k]) // d[k + 1]
    d[k] = b


# the Lovasz parameter delta = 3/4 as the two integers of the swap test
_DELTA_NUM, _DELTA_DEN = 3, 4


def _lll(rows: list, weights: list) -> list:
    """LLL-reduce integer rows under <x,y> = sum w_i x_i y_i (w_i > 0 integers).

    Integral LLL (Cohen, GTM 138, §2.6): the Gram-Schmidt data are kept as the
    integers d[i+1] (the Gram determinant of rows 0..i) and lam[k][j] = d[j+1] *
    mu[k][j], computed once and then updated by each size reduction and swap.  mu
    is rounded half to even, as round(Fraction) does, so the steps are those of the
    rational algorithm; rational weights scaled to integers by a common factor
    reduce the same way.
    """
    basis = [list(r) for r in rows]
    n = len(basis)

    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(w * a * b for w, a, b in zip(weights, basis[i], basis[j]))
            for h in range(j):
                u = (d[h + 1] * u - lam[i][h] * lam[j][h]) // d[h]  # exact
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000:
            raise ArithmeticError("LLL failed to terminate")
        for j in range(k - 1, -1, -1):
            fl, rem = divmod(lam[k][j], d[j + 1])
            r = fl + (2 * rem > d[j + 1] or (2 * rem == d[j + 1] and fl % 2 == 1))
            if r:
                basis[k] = [a - r * b for a, b in zip(basis[k], basis[j])]
                lam[k][j] -= r * d[j + 1]
                for h in range(j):
                    lam[k][h] -= r * lam[j][h]
        # Lovasz: |b*_k|^2 >= (delta - mu^2) |b*_{k-1}|^2, times d[k] * d[k-1] * _DELTA_DEN
        if _DELTA_DEN * d[k + 1] * d[k - 1] >= _DELTA_NUM * d[k] ** 2 - _DELTA_DEN * lam[k][k - 1] ** 2:
            k += 1
        else:
            _swap(basis, d, lam, k)
            k = max(k - 1, 1)
    return basis


def _cross(u, v) -> list:
    """The cross product u x v of two integer 3-vectors."""
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _independent_rows(chosen: list, pts: np.ndarray) -> np.ndarray:
    """Mask of the rows of pts outside the span of the chosen integer vectors,
    from one product with every normal of that span."""
    if not chosen:
        return _fold(np.logical_or, pts != 0)
    d = pts.shape[1]
    if len(chosen) == 1:  # not parallel to u: some minor u_i x_j - u_j x_i is nonzero
        u = chosen[0]
        normals = []
        for i in range(d):
            for j in range(i + 1, d):
                n = [0] * d
                n[i], n[j] = -u[j], u[i]
                normals.append(n)
    else:  # off the plane of u and v: x . (u x v) is nonzero
        normals = [_cross(*chosen)]
    if max(sum(map(abs, n)) for n in normals) * int(np.abs(pts).max()) >= _WORD_CAP:
        pts = pts.astype(object)
    return _fold(np.logical_or, pts @ np.array(normals, dtype=pts.dtype).T != 0)


def _greedy_minima(scaled: np.ndarray, pts: np.ndarray, picks: list) -> list:
    """The first rows in (scaled, row) order, each outside the span of those
    before it, at most d of them: the witnesses of the successive minima.

    picks are the (scaled, row) pairs chosen from earlier chunks; the greedy
    choice over all chunks equals the greedy choice over the earlier picks and
    the new chunk (a matroid's lexicographically first basis).  Each witness is
    the first hit of one masked product of all the rows with every normal of
    the span so far: the rows before the last witness lie in that span, so
    scanning them again picks nothing earlier."""
    d = pts.shape[1]
    if picks:
        scaled = np.concatenate((np.array([s for s, _ in picks], dtype=scaled.dtype), scaled))
        pts = np.concatenate((np.array([v for _, v in picks], dtype=pts.dtype), pts))
    order = np.lexsort(tuple(pts[:, i] for i in reversed(range(d))) + (scaled,))
    scaled, pts = scaled[order], pts[order]
    chosen: list = []
    mask = _independent_rows([], pts)
    while mask.any():
        i = int(mask.argmax())
        chosen.append((int(scaled[i]), tuple(pts[i].tolist())))
        if len(chosen) == d:
            break
        mask = _independent_rows([v for _, v in chosen], pts)
    return chosen


@dataclass(frozen=True)
class MinimaResult:
    lambdas: tuple  # Fractions, or () when degenerate
    witnesses: tuple  # integer vectors
    degenerate: bool = False


# ---------------------------------------------------------------------------
# enumeration in the reduced basis


def _adjugate(rows: list) -> tuple:
    """(adj, |det|) for the integer matrix adj with rows @ adj = det(rows) * I
    (d = 2 or 3): for d = 3 column j of adj is the cross product of rows j+1
    and j+2 (mod 3)."""
    if len(rows) == 2:
        (a, b), (c, e) = rows
        adj = [[e, -b], [-c, a]]
    else:
        cols = [_cross(rows[(j + 1) % 3], rows[(j + 2) % 3]) for j in range(3)]
        adj = [list(r) for r in zip(*cols)]
    return adj, abs(sum(x * row[0] for x, row in zip(rows[0], adj)))


def _coefficient_box(basis: list, caps: list, bounds: list, dtype) -> np.ndarray:
    """The rows of C @ basis inside the bounds, for the array C of every c with
    |c_j| <= caps_j: in int64 when dtype is and every |(C @ basis)_i| <=
    sum_j caps_j |basis[j][i]| stays below 2^63, in object arrays otherwise."""
    d = len(basis)
    if max(sum(c * abs(row[i]) for c, row in zip(caps, basis)) for i in range(d)) >= _WORD_CAP:
        dtype = object
    C = np.indices([2 * c + 1 for c in caps]).reshape(d, -1).T - np.array(caps)
    pts = C.astype(dtype) @ np.array(basis, dtype=dtype)
    return pts.compress(_fold(np.logical_and, np.abs(pts) <= np.array(bounds, dtype=dtype)), axis=0)


def _basis_points(basis: list, caps: list, bounds: list, budget: int):
    """The points v = c . basis with |v_i| <= bounds_i, for the coefficient
    vectors c with |c_j| <= caps_j, in (n, d) arrays of at most _CHUNK rows.

    Two routes, one point set.  Let s be the widest coefficient, volume the
    number of tuples of the others (the outer box) and box = volume *
    (2 * caps_s + 1) the whole coefficient box.  When box <= _CHUNK and
    volume + box <= budget, the box is one array C and the points are the rows
    of C @ basis inside the bounds, in one array: int64 while the walk's bound
    (reach, below) and the product bound sum_j caps_j |basis[j][i]| stay below
    2^63, object arrays above.  Otherwise s is solved, not walked: for
    each tuple of the others (the outer box, in blocks of at most _CHUNK tuples)
    with partial sum u, the t with |u_i + t * basis[s][i]| <= bounds_i for every
    i form one interval, the intersection of d.  A long interval is expanded
    over several arrays.  The budget counts the outer volume, checked before
    anything is allocated, plus the lifts, summed over the blocks before the
    first is expanded: a refusal stops at the first block that crosses it, and
    a box of one block computes its intervals once.  The lifts are the points,
    at most box, so the walk refuses nothing the product route takes."""
    d = len(basis)
    s = max(range(d), key=caps.__getitem__)
    outer = [j for j in range(d) if j != s]
    volume = math.prod(2 * caps[j] + 1 for j in outer)
    # bounds_i + max |u_i| bounds every |u_i|, |t * basis[s][i]| and interval end
    # below, so an interval length is at most twice the largest of these plus 1
    reach = [b + sum(caps[j] * abs(basis[j][i]) for j in outer) for i, b in enumerate(bounds)]
    dtype = np.int64 if 2 * max(reach + [caps[s]]) + 1 < _WORD_CAP else object
    box = volume * (2 * caps[s] + 1)
    if box <= _CHUNK and volume + box <= budget:
        yield _coefficient_box(basis, caps, bounds, dtype)
        return
    if volume > budget:
        raise BudgetExceededError(f"enumeration volume {volume} exceeds budget {budget}")
    rows = np.array([basis[j] for j in outer], dtype=dtype)
    step = np.array(basis[s], dtype=dtype)
    # blocks of whole rows of the last outer coefficient, or of one row's pieces
    steps = [max(1, _CHUNK // (2 * caps[outer[-1]] + 1))] * (d - 2) + [_CHUNK]

    def intervals(starts):
        """(u, lo, counts): the block's partial sums u, and t = lo .. lo + counts - 1."""
        u = np.zeros((1, d), dtype=dtype)  # c_outer . rows over the block, row-major
        for lo, st, j, r in zip(starts, steps, outer, rows):
            c = np.arange(lo, min(lo + st, caps[j] + 1)).astype(dtype)
            u = (u[:, None, :] + c[None, :, None] * r).reshape(-1, d)
        lo = np.full(len(u), -caps[s], dtype=dtype)
        hi = np.full(len(u), caps[s], dtype=dtype)
        for b, bound, ui in zip(basis[s], bounds, u.T):
            if b > 0:
                lo = np.maximum(lo, -((bound + ui) // b))
                hi = np.minimum(hi, (bound - ui) // b)
            elif b < 0:
                lo = np.maximum(lo, -((bound - ui) // -b))
                hi = np.minimum(hi, (bound + ui) // -b)
            else:
                hi = np.where(np.abs(ui) <= bound, hi, lo - 1)
        return u, lo, np.maximum(hi - lo + 1, 0)

    blocks = list(product(*(range(-caps[j], caps[j] + 1, st) for j, st in zip(outer, steps))))
    lifted = 0
    for block in map(intervals, blocks):  # every block's lifts, before the first is expanded
        lifted += _lift_total(block[2], caps[s], 1)
        if volume + lifted > budget:
            raise BudgetExceededError(
                f"enumeration volume {volume} plus {lifted} lifts exceeds budget {budget}"
            )
    for u, lo, counts in [block] if len(blocks) == 1 else map(intervals, blocks):
        counts = counts.astype(np.int64)
        ends = np.cumsum(counts)
        for first in range(0, int(ends[-1]), _CHUNK):
            k = np.arange(first, min(first + _CHUNK, int(ends[-1])))
            row = np.searchsorted(ends, k, side="right")
            t = lo[row] + (k - ends[row] + counts[row])
            yield u[row] + t[:, None] * step


def _reduce(lat: CongruenceLattice, box: BoxBody) -> list:
    """The lattice basis LLL-reduced for the box: weights 1 / w_i^2, passed as
    the integers r_i^2 * (S / p_i^2) with S = lcm(p_i^2) for w_i = p_i / r_i in
    lowest terms: the rationals r_i^2 / p_i^2 times S, so the reduction takes the
    steps of the rational one, with no Fraction arithmetic."""
    squares = [(wi.numerator**2, wi.denominator**2) for wi in box.half_widths]
    S = math.lcm(*(p2 for p2, _ in squares))
    return _lll(lat.basis(), [r2 * (S // p2) for p2, r2 in squares])


def _primal_picks(reduced: list, adjugate: tuple, box: BoxBody, budget: int) -> tuple:
    """The witnesses of the box's minima as (scaled, v) picks, and the denominator
    P with lambda = scaled / P: scaled = max_i |v_i| * r_i * (P / p_i) for the
    half-widths w_i = p_i / r_i.  The radius is the largest scaled norm of a
    reduced row, and c = v . adj / det bounds |c_j| over the radius box, for
    adjugate = _adjugate(reduced)."""
    w = box.half_widths
    P = math.lcm(*(wi.numerator for wi in w))
    mult = [wi.denominator * (P // wi.numerator) for wi in w]
    radius = max(max(abs(x) * m for x, m in zip(row, mult)) for row in reduced)
    bounds = [radius // m for m in mult]
    adj, det = adjugate
    caps = [sum(b * abs(row[j]) for b, row in zip(bounds, adj)) // det for j in range(len(w))]
    mult = np.array(mult, dtype=np.int64 if radius < _WORD_CAP else object)
    picks: list = []
    for pts in _basis_points(reduced, caps, bounds, budget):
        scaled = _fold(np.maximum, np.abs(pts) * mult)
        nonzero = scaled > 0
        picks = _greedy_minima(scaled[nonzero], pts[nonzero], picks)
    return picks, P


def _dual_picks(reduced: list, adjugate: tuple, box: BoxBody, budget: int) -> tuple:
    """The witnesses m of the dual body's minima as (scaled, m) picks, and the
    denominator q*R with lambda = scaled / (q*R): scaled = sum_i |m_i| * p_i * (R / r_i).

    The dual needs no reduction of its own: q * B^{-T} = adj(B)^T / (det / q) is
    adj(B)^T up to sign, a basis of q * (dual lattice), and its rows certify the
    radius.  m = c . adj^T has c_j = (m . B_j) / det, whose largest |c_j| over the
    body sum_i mult_i |m_i| <= radius is at a vertex (radius / mult_i) e_i, for
    adjugate = _adjugate(reduced)."""
    w = box.half_widths
    R = math.lcm(*(wi.denominator for wi in w))
    mult = [wi.numerator * (R // wi.denominator) for wi in w]
    adj, det = adjugate
    dual = [list(col) for col in zip(*adj)]
    limit = max(sum(abs(x) * m for x, m in zip(row, mult)) for row in dual)
    bounds = [limit // m for m in mult]
    caps = [max(limit * abs(x) // (m * det) for x, m in zip(row, mult)) for row in reduced]
    mult = np.array(mult, dtype=np.int64 if limit * len(w) < _WORD_CAP else object)
    picks: list = []
    for pts in _basis_points(dual, caps, bounds, budget):
        scaled = _fold(np.add, np.abs(pts) * mult)
        keep = (scaled <= limit) & (scaled > 0)
        picks = _greedy_minima(scaled[keep], pts[keep], picks)
    return picks, det * R


def successive_minima(
    lat: CongruenceLattice, box: BoxBody, budget: int = DEFAULT_ENUM_BUDGET
) -> MinimaResult:
    """Exact successive minima of the box with respect to the lattice."""
    if box.d != lat.d:
        raise ValueError("dimension mismatch")
    if box.degenerate:
        return MinimaResult((), (), degenerate=True)
    reduced = _reduce(lat, box)
    picks, P = _primal_picks(reduced, _adjugate(reduced), box, budget)
    return _minima_result(picks, lat.d, P, "enumeration radius")


def _minima_result(picks: list, d: int, denom: int, route: str) -> MinimaResult:
    if len(picks) < d:
        raise ArithmeticError(f"{route} failed to produce d independent vectors")
    return MinimaResult(tuple(Fraction(s, denom) for s, _ in picks), tuple(v for _, v in picks))


def dual_minima(
    lat: CongruenceLattice, box: BoxBody, budget: int = DEFAULT_ENUM_BUDGET
) -> MinimaResult:
    """Successive minima of the dual body {sum w_i|x_i| <= 1} w.r.t. the dual lattice,
    enumerated in the basis dual to the primal reduced basis."""
    if box.d != lat.d:
        raise ValueError("dimension mismatch")
    if box.degenerate:
        return MinimaResult((), (), degenerate=True)
    reduced = _reduce(lat, box)
    picks, qR = _dual_picks(reduced, _adjugate(reduced), box, budget)
    return _minima_result(picks, lat.d, qR, "dual enumeration radius")


# ---------------------------------------------------------------------------
# geometry report and trichotomy


@dataclass(frozen=True)
class GeometryReport:
    minima: MinimaResult
    dual: MinimaResult
    point_count: int
    count_bound: Fraction
    minkowski_ok: bool
    minkowski_slack: Fraction
    counting_ok: bool
    transference_ok: bool
    transference_slacks: tuple

    @property
    def all_ok(self) -> bool:
        return self.minkowski_ok and self.counting_ok and self.transference_ok


def verify_geometry(
    lat: CongruenceLattice, box: BoxBody, budget: int = DEFAULT_ENUM_BUDGET
) -> GeometryReport:
    """Both minima from one reduction, the point count, and Minkowski's second
    theorem, the counting bound and transference, each compared as an integer
    inequality on the scaled norms: lambda_j = s_j / P, lambda*_j = t_j / (q*R)
    and w_i = p_i / r_i."""
    if box.d != lat.d:
        raise ValueError("dimension mismatch")
    if box.degenerate:
        raise DegenerateError("the geometry checks need every half-width positive")
    d, q, w = lat.d, lat.q, box.half_widths
    reduced = _reduce(lat, box)
    adjugate = _adjugate(reduced)
    primal, P = _primal_picks(reduced, adjugate, box, budget)
    dual, qR = _dual_picks(reduced, adjugate, box, budget)
    minima = _minima_result(primal, d, P, "enumeration radius")
    dual_result = _minima_result(dual, d, qR, "dual enumeration radius")
    s, t = [x for x, _ in primal], [x for x, _ in dual]
    fact, prod_s = math.factorial(d), math.prod(s)
    K = count_points(lat, box, budget=budget)

    # Minkowski: prod(lambda) * d! * vol / (2^d q) >= 1
    lhs = fact * math.prod(wi.numerator for wi in w) * prod_s
    rhs = q * P**d * math.prod(wi.denominator for wi in w)
    # counting: K <= prod_j (2(j+1) / lambda_j + 1)
    bound_num = math.prod(2 * (j + 1) * P + sj for j, sj in enumerate(s))
    # transference: lambda_j * lambda*_{d-1-j} <= d!
    cross = [sj * tj for sj, tj in zip(s, reversed(t))]
    top = fact * P * qR

    return GeometryReport(
        minima=minima,
        dual=dual_result,
        point_count=K,
        count_bound=Fraction(bound_num, prod_s),
        minkowski_ok=lhs >= rhs,
        minkowski_slack=Fraction(lhs, rhs),
        counting_ok=K * prod_s <= bound_num,
        transference_ok=all(c <= top for c in cross),
        transference_slacks=tuple(Fraction(c, top) for c in cross),
    )


@dataclass(frozen=True)
class TrichotomyResult:
    point_count: int
    case_sparse: bool  # K below the volume/covolume threshold
    case_one_short: bool  # lambda_1 <= 1 < lambda_2
    case_dual_point: bool  # small simultaneous lifts of (a,b,c)*lambda exist
    degenerate_box: bool

    @property
    def holds(self) -> bool:
        return self.case_sparse or self.case_one_short or self.case_dual_point


def trichotomy_check(
    a: int, b: int, c: int, L: int, M: int, N: int, q: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> TrichotomyResult:
    """Which of the three lemma cases hold for the lattice a*l + b*m + c*n = 0 (mod q)
    and the box |l| <= N, |m| <= M, |n| <= L.

    Case (ii) holds iff the box is not degenerate, 1 < K <= 2*w_2 + 1 for the
    second-largest half-width w_2, and every box point is parallel to one
    nonzero box point (see the module docstring for the bound on K).

    Case (iii) asks for lambda in F_q^* whose balanced lifts of (a, b, c)*lambda
    are at most floor(4320*MN/K), floor(4320*LN/K), floor(4320*LM/K), walking the
    residues of the narrowest; the constants 640 and 4320 are verbatim.
    """
    for x in (a, b, c):
        if x % q == 0:
            raise ValueError("a, b, c must be nonzero mod q")
    if min(L, M, N) < 0:
        raise ValueError("box parameters must be nonnegative")
    lat = CongruenceLattice((a % q, b % q, c % q), q)
    box = BoxBody((N, M, L))
    K = count_points(lat, box, budget=budget)

    case_i = K < max(Fraction(640 * L * M * N, q), 1)

    # collinear box points are the 2T + 1 multiples of one u, with T <= w_2
    case_ii = False
    if not box.degenerate and 1 < K <= 2 * sorted((L, M, N))[1] + 1:
        pts = box_points(lat, [N, M, L], budget)
        v = pts[pts.any(axis=1)][0]
        case_ii = not _independent_rows([v.tolist()], pts).any()

    # bal * K <= n iff bal <= n // K (K >= 1: the origin is counted); bal < q
    caps = [min(4320 * n // K, q) for n in (M * N, L * N, L * M)]

    def dual_point(cols):
        ok = cols[0] != 0  # r = 0 is lambda = 0
        for t, cap in zip(cols, caps):
            ok &= np.minimum(t, q - t) <= cap
        return bool(ok.any())

    case_iii = any(map(dual_point, _residue_walk(lat.coeffs, q, caps, _CHUNK)))

    return TrichotomyResult(K, bool(case_i), bool(case_ii), case_iii, box.degenerate)
