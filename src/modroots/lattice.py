"""Congruence lattices and boxes: exact point counts, successive minima, duals,
and the classical inequality checks (Minkowski's second theorem, the counting
bound, Mahler transference) plus the short-dual-point trichotomy.

All minima are exact rationals.  Enumeration radii are certified by the
max box-norm of an LLL-reduced basis (d independent vectors), so the greedy
extraction below sees every candidate vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, CapacityError

DEFAULT_ENUM_BUDGET = 10**7
_CHUNK = 1 << 20
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

    def contains(self, v) -> bool:
        return sum(a * x for a, x in zip(self.coeffs, v)) % self.q == 0

    def basis(self) -> list:
        """Rows generating the lattice (solved coordinate: the last)."""
        d, q = self.d, self.q
        s = d - 1
        inv = pow(self.coeffs[s] % q, -1, q) if q > 1 else 0
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

    def volume(self) -> Fraction:
        vol = Fraction(2) ** self.d
        for w in self.half_widths:
            vol *= w
        return vol

    def norm(self, v) -> Fraction:
        """Box norm max_i |v_i| / w_i (the body is the unit ball)."""
        return max(Fraction(abs(x)) / w for x, w in zip(v, self.half_widths))

    def dual_norm(self, v) -> Fraction:
        """Norm of the dual body { x : sum w_i |x_i| <= 1 }."""
        return sum((Fraction(abs(x)) * w for x, w in zip(v, self.half_widths)), Fraction(0))


def _class_counts(res: np.ndarray, bound: int, q: int):
    """Per residue class r (mod q): t-range for members r + t*q in [-bound, bound]."""
    tmin = -((bound + res) // q)
    tmax = (bound - res) // q
    counts = np.maximum(tmax - tmin + 1, 0)
    return tmin, counts


def _expand_classes(free_cols: list, res: np.ndarray, bound: int, q: int):
    """All solved-coordinate values per free tuple; returns stacked columns."""
    tmin, counts = _class_counts(res, bound, q)
    total = int(counts.sum())
    if total == 0:
        return None
    rep = np.repeat(np.arange(len(res)), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    t = np.arange(total) - np.repeat(starts, counts) + np.repeat(tmin, counts)
    solved = res[rep] + q * t
    return [col[rep] for col in free_cols], solved


def _solve_coord(lat: CongruenceLattice, s: int):
    q = lat.q
    if q == 1:
        return [0] * lat.d
    inv = pow(lat.coeffs[s] % q, -1, q)
    return [(-a * inv) % q for a in lat.coeffs]  # entry s unused


def _enumeration_plan(lat: CongruenceLattice, bounds: list, budget: int):
    """The solved coordinate s (the widest), the free ones, and the multipliers
    solving the congruence for s; raises before the enumeration would exceed the
    budget or int64."""
    s = max(range(lat.d), key=lambda i: bounds[i])
    free = [i for i in range(lat.d) if i != s]
    volume = math.prod(2 * bounds[i] + 1 for i in free)
    if volume > budget:
        raise BudgetExceededError(f"enumeration volume {volume} exceeds budget {budget}")
    # every int64 intermediate (multiplier times free value, residue sums, solved values) is below this
    if lat.q * (sum(bounds[i] for i in free) + 2) + bounds[s] >= _WORD_CAP:
        raise CapacityError(f"enumeration at q={lat.q}, bounds={bounds} overflows int64")
    return s, free, _solve_coord(lat, s)


def count_points(lat: CongruenceLattice, box: BoxBody, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """#(lattice ∩ box), origin included: enumerate the free coordinates and
    solve the congruence for the remaining one."""
    if box.d != lat.d:
        raise ValueError("dimension mismatch")
    bounds = [int(w) for w in box.half_widths]  # floor of nonnegative rationals
    s, free, cmul = _enumeration_plan(lat, bounds, budget)
    q = lat.q
    total = 0
    if lat.d == 2:
        f = free[0]
        vf = np.arange(-bounds[f], bounds[f] + 1, dtype=np.int64)
        res = (cmul[f] * vf) % q if q > 1 else np.zeros(len(vf), dtype=np.int64)
        _, counts = _class_counts(res, bounds[s], q)
        return int(counts.sum())
    f1, f2 = free
    v2 = np.arange(-bounds[f2], bounds[f2] + 1, dtype=np.int64)
    r2 = (cmul[f2] * v2) % q if q > 1 else np.zeros(len(v2), dtype=np.int64)
    step = max(1, _CHUNK // max(len(v2), 1))
    for lo in range(-bounds[f1], bounds[f1] + 1, step):
        hi = min(lo + step - 1, bounds[f1])
        v1 = np.arange(lo, hi + 1, dtype=np.int64)
        r1 = (cmul[f1] * v1) % q if q > 1 else np.zeros(len(v1), dtype=np.int64)
        res = (r1[:, None] + r2[None, :]) % q if q > 1 else np.zeros((len(v1), len(v2)), dtype=np.int64)
        _, counts = _class_counts(res.ravel(), bounds[s], q)
        total += int(counts.sum())
    return total


def box_points(lat: CongruenceLattice, bounds, budget: int = DEFAULT_ENUM_BUDGET) -> np.ndarray:
    """All lattice points v with |v_i| <= bounds_i, as an (n, d) int64 array."""
    bounds = [int(b) for b in bounds]
    s, free, cmul = _enumeration_plan(lat, bounds, budget)
    q = lat.q
    pieces = []
    if lat.d == 2:
        f = free[0]
        vf = np.arange(-bounds[f], bounds[f] + 1, dtype=np.int64)
        res = (cmul[f] * vf) % q if q > 1 else np.zeros(len(vf), dtype=np.int64)
        expanded = _expand_classes([vf], res, bounds[s], q)
        if expanded is not None:
            (col_f,), col_s = expanded
            out = np.empty((len(col_s), 2), dtype=np.int64)
            out[:, f] = col_f
            out[:, s] = col_s
            pieces.append(out)
    else:
        f1, f2 = free
        v2 = np.arange(-bounds[f2], bounds[f2] + 1, dtype=np.int64)
        r2 = (cmul[f2] * v2) % q if q > 1 else np.zeros(len(v2), dtype=np.int64)
        step = max(1, _CHUNK // max(len(v2), 1))
        for lo in range(-bounds[f1], bounds[f1] + 1, step):
            hi = min(lo + step - 1, bounds[f1])
            v1 = np.arange(lo, hi + 1, dtype=np.int64)
            g1, g2 = np.meshgrid(v1, v2, indexing="ij")
            g1 = g1.ravel()
            g2 = g2.ravel()
            res = ((cmul[f1] * g1) + (cmul[f2] * g2)) % q if q > 1 else np.zeros(len(g1), dtype=np.int64)
            expanded = _expand_classes([g1, g2], res, bounds[s], q)
            if expanded is None:
                continue
            (col1, col2), col_s = expanded
            out = np.empty((len(col_s), 3), dtype=np.int64)
            out[:, f1] = col1
            out[:, f2] = col2
            out[:, s] = col_s
            pieces.append(out)
    if not pieces:
        return np.empty((0, lat.d), dtype=np.int64)
    return np.concatenate(pieces, axis=0)


# ---------------------------------------------------------------------------
# weighted LLL (exact rational arithmetic)


def _lll(rows: list, weights: list, delta=Fraction(3, 4)) -> list:
    """LLL-reduce integer rows under <x,y> = sum w_i x_i y_i (w_i > 0 rational)."""

    def ip(u, v):
        return sum(w * a * b for w, a, b in zip(weights, u, v))

    basis = [list(r) for r in rows]
    n = len(basis)

    def gso():
        mu = [[Fraction(0)] * n for _ in range(n)]
        star: list = []
        norms: list = []
        for i in range(n):
            vi = [Fraction(x) for x in basis[i]]
            for j in range(i):
                mu[i][j] = ip(basis[i], star[j]) / norms[j]
                vi = [a - mu[i][j] * b for a, b in zip(vi, star[j])]
            star.append(vi)
            norms.append(ip(vi, vi))
        return mu, norms

    mu, norms = gso()
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000:
            raise ArithmeticError("LLL failed to terminate")
        for j in range(k - 1, -1, -1):
            r = round(mu[k][j])
            if r:
                basis[k] = [a - r * b for a, b in zip(basis[k], basis[j])]
                mu, norms = gso()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            mu, norms = gso()
            k = max(k - 1, 1)
    return basis


def _independent(chosen: list, cand) -> bool:
    if not chosen:
        return any(cand)
    if len(chosen) == 1:
        u = chosen[0]
        # parallel test via all 2x2 minors
        for i in range(len(u)):
            for j in range(i + 1, len(u)):
                if u[i] * cand[j] - u[j] * cand[i] != 0:
                    return True
        return False
    u, v = chosen[0], chosen[1]
    det = (
        u[0] * (v[1] * cand[2] - v[2] * cand[1])
        - u[1] * (v[0] * cand[2] - v[2] * cand[0])
        + u[2] * (v[0] * cand[1] - v[1] * cand[0])
    )
    return det != 0


@dataclass(frozen=True)
class MinimaResult:
    lambdas: tuple  # Fractions, or () when degenerate
    witnesses: tuple  # integer vectors
    degenerate: bool = False


def successive_minima(
    lat: CongruenceLattice, box: BoxBody, budget: int = DEFAULT_ENUM_BUDGET
) -> MinimaResult:
    """Exact successive minima of the box with respect to the lattice."""
    if box.d != lat.d:
        raise ValueError("dimension mismatch")
    if box.degenerate:
        return MinimaResult((), (), degenerate=True)
    d = lat.d
    w = box.half_widths
    weights = [1 / (wi * wi) for wi in w]
    reduced = _lll(lat.basis(), weights)
    radius = max(box.norm(row) for row in reduced)
    bounds = [math.floor(radius * wi) for wi in w]
    pts = box_points(lat, bounds, budget=budget)

    # scaled integer norms: |v_i| * r_i * (P / p_i), lambda = scaled / P
    P = math.lcm(*(wi.numerator for wi in w))
    mult = [wi.denominator * (P // wi.numerator) for wi in w]
    scored = []
    for row in pts.tolist():
        if not any(row):
            continue
        scaled = max(abs(x) * m for x, m in zip(row, mult))
        scored.append((scaled, row))
    scored.sort(key=lambda t: (t[0], t[1]))

    lambdas: list = []
    witnesses: list = []
    for scaled, row in scored:
        if _independent(witnesses, row):
            witnesses.append(row)
            lambdas.append(Fraction(scaled, P))
            if len(witnesses) == d:
                break
    if len(witnesses) < d:
        raise ArithmeticError("enumeration radius failed to produce d independent vectors")
    return MinimaResult(tuple(lambdas), tuple(tuple(r) for r in witnesses))


# ---------------------------------------------------------------------------
# dual lattice


@dataclass(frozen=True)
class DualLattice:
    """Dual of a congruence lattice: { m/q : exists lambda, m_j = a_j*lambda (mod q) }.

    The generator parameterization is (lambda * a + q Z^d) / q over lambda in Z.
    """

    primal: CongruenceLattice

    @property
    def q(self) -> int:
        return self.primal.q

    def integer_basis(self) -> list:
        """Basis of q * (dual lattice) as integer rows."""
        a, q, d = self.primal.coeffs, self.q, self.primal.d
        if q == 1:
            return [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        inv = pow(a[0] % q, -1, q)
        first = [(ai * inv) % q for ai in a]
        first[0] = 1
        rows = [first]
        for i in range(1, d):
            row = [0] * d
            row[i] = q
            rows.append(row)
        return rows

    def contains(self, x) -> bool:
        """Membership of a rational vector in the dual lattice."""
        m = []
        for xi in x:
            v = Fraction(xi) * self.q
            if v.denominator != 1:
                return False
            m.append(int(v))
        q = self.q
        if q == 1:
            return True
        a = self.primal.coeffs
        lam = (m[0] * pow(a[0] % q, -1, q)) % q
        return all((ai * lam - mi) % q == 0 for ai, mi in zip(a, m))


def dual_lattice(lat: CongruenceLattice) -> DualLattice:
    return DualLattice(lat)


def dual_minima(
    lat: CongruenceLattice, box: BoxBody, budget: int = DEFAULT_ENUM_BUDGET
) -> MinimaResult:
    """Successive minima of the dual body {sum w_i|x_i| <= 1} w.r.t. the dual lattice."""
    if box.degenerate:
        return MinimaResult((), (), degenerate=True)
    d, q, w = lat.d, lat.q, box.half_widths
    dual = DualLattice(lat)
    rows = dual.integer_basis()
    weights = [wi * wi for wi in w]
    reduced = _lll(rows, weights)
    radius = max(box.dual_norm(row) / q for row in reduced)  # dual norm of m/q

    bounds = [math.floor(radius * q / wi) for wi in w]
    R = math.lcm(*(wi.denominator for wi in w))
    mult = [wi.numerator * (R // wi.denominator) for wi in w]
    scaled_radius = radius * q * R  # compare sum |m_i|*mult_i <= this
    a = lat.coeffs

    scored = []
    if q == 1:
        lam_classes = np.zeros(1, dtype=np.int64)
    else:
        lam_classes = np.arange(q, dtype=np.int64)
    res = [(ai * lam_classes) % q for ai in a]
    count_prod = np.ones(len(lam_classes), dtype=np.int64)
    tmins = []
    for i in range(d):
        tmin, counts = _class_counts(res[i], bounds[i], q)
        count_prod *= counts
        tmins.append((tmin, counts))
    survivors = np.nonzero(count_prod > 0)[0]
    if int(count_prod[survivors].sum()) > budget:
        raise BudgetExceededError("dual enumeration exceeds budget")
    for lam in survivors.tolist():
        coord_options = []
        for i in range(d):
            r = int(res[i][lam])
            tmin = int(tmins[i][0][lam])
            cnt = int(tmins[i][1][lam])
            coord_options.append([r + q * (tmin + t) for t in range(cnt)])
        stack = [[]]
        for opts in coord_options:
            stack = [pref + [o] for pref in stack for o in opts]
        for m in stack:
            if not any(m):
                continue
            scaled = sum(abs(x) * mu for x, mu in zip(m, mult))
            if scaled <= scaled_radius:
                scored.append((scaled, m))
    scored.sort(key=lambda t: (t[0], t[1]))

    lambdas: list = []
    witnesses: list = []
    for scaled, m in scored:
        if _independent(witnesses, m):
            witnesses.append(m)
            lambdas.append(Fraction(scaled, q * R))
            if len(witnesses) == d:
                break
    if len(witnesses) < d:
        raise ArithmeticError("dual enumeration radius failed to produce d independent vectors")
    return MinimaResult(tuple(lambdas), tuple(tuple(m) for m in witnesses))


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
    d = lat.d
    minima = successive_minima(lat, box, budget=budget)
    dual = dual_minima(lat, box, budget=budget)
    lam, dlam = minima.lambdas, dual.lambdas

    prod = math.prod(lam, start=Fraction(1))
    rhs = Fraction(math.factorial(d), 2**d) * box.volume() / lat.q
    minkowski_ok = 1 / prod <= rhs
    minkowski_slack = rhs * prod

    K = count_points(lat, box, budget=budget)
    bound = math.prod((Fraction(2 * (j + 1)) / lam[j] + 1 for j in range(d)), start=Fraction(1))
    counting_ok = K <= bound

    fact = math.factorial(d)
    slacks = tuple(lam[j] * dlam[d - j - 1] / fact for j in range(d))
    transference_ok = all(s <= 1 for s in slacks)

    return GeometryReport(
        minima, dual, K, bound, minkowski_ok, minkowski_slack, counting_ok,
        transference_ok, slacks,
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

    Case (iii) searches lambda over F_q^* with balanced residue lifts; the
    bounds use the verbatim constants 640 and 4320.
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

    if box.degenerate:
        case_ii = False
    else:
        minima = successive_minima(lat, box, budget=budget)
        case_ii = minima.lambdas[0] <= 1 < minima.lambdas[1]

    lams = np.arange(1, q, dtype=np.int64)
    ok = np.ones(len(lams), dtype=bool)
    for coeff, bound_num in ((a, 4320 * M * N), (b, 4320 * L * N), (c, 4320 * L * M)):
        t = (coeff * lams) % q
        bal = np.minimum(t, q - t)
        ok &= bal * K <= bound_num
    case_iii = bool(ok.any())

    return TrichotomyResult(K, bool(case_i), bool(case_ii), case_iii, box.degenerate)
