"""Pure-Python oracles for the lattice layer.

These are the routes the integer lattice code replaced: LLL with the full
rational Gram-Schmidt recomputed after every step, the full integral
Gram-Schmidt that integral LLL recomputed after every swap, a box walk and
scoring loop over Python tuples, a dual enumeration that walks every lambda in
[0, q) with a Python stack, and trichotomy case (iii) scanning every lambda in
[1, q).  The radius-box minima are the route the reduced-basis kernel replaced;
for d = 2 the dual also has a box walk of q * (dual lattice) that works at any
q, and verify_geometry's rational formulas and the dual kernel's budget count
are recomputed with Fractions.  They are slow but share no arithmetic with
modroots.lattice's LLL, walks and minima, so the property tests compare the
production routes against them.  Trichotomy case (ii) has two: a walk over the
whole box with integer cross products, and the retired route through
successive_minima.
"""

import math
from fractions import Fraction
from itertools import product

from modroots.errors import BudgetExceededError
from modroots.lattice import (
    DEFAULT_ENUM_BUDGET,
    BoxBody,
    CongruenceLattice,
    DualLattice,
    MinimaResult,
    successive_minima,
)


def rational_lll(rows: list, weights: list, delta=Fraction(3, 4)) -> list:
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


def integral_gso(basis: list, weights: list):
    """(d, lam) of the integral Gram-Schmidt of the rows under the scaled weights,
    recomputed from scratch: d[i+1] is the Gram determinant of rows 0..i and
    lam[k][j] = d[j+1] * mu[k][j] (Cohen, GTM 138, §2.6)."""
    scale = math.lcm(*(Fraction(w).denominator for w in weights))
    wts = [int(w * scale) for w in weights]
    n = len(basis)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(w * a * b for w, a, b in zip(wts, basis[i], basis[j]))
            for h in range(j):
                u = (d[h + 1] * u - lam[i][h] * lam[j][h]) // d[h]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
    return d, lam


def independent(chosen: list, cand) -> bool:
    """Is cand outside the span of the chosen integer vectors (d <= 3)?"""
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


def _greedy(scored: list, d: int, denom: int) -> MinimaResult:
    scored.sort(key=lambda t: (t[0], t[1]))
    lambdas: list = []
    witnesses: list = []
    for scaled, v in scored:
        if independent(witnesses, v):
            witnesses.append(v)
            lambdas.append(Fraction(scaled, denom))
            if len(witnesses) == d:
                break
    if len(witnesses) < d:
        raise ArithmeticError("enumeration radius failed to produce d independent vectors")
    return MinimaResult(tuple(lambdas), tuple(tuple(v) for v in witnesses))


def oracle_box_points(lat: CongruenceLattice, bounds, budget: int = DEFAULT_ENUM_BUDGET) -> list:
    """Every lattice point with |v_i| <= bounds_i as a tuple of Python ints: each
    tuple of the coordinates other than the widest, s, with every lift of the
    residue the congruence forces on v_s.  The free volume obeys the budget, and
    so does the number of points, counted before a tuple's lifts are listed."""
    d, q = lat.d, lat.q
    s = max(range(d), key=lambda i: bounds[i])
    free = [i for i in range(d) if i != s]
    volume = math.prod(2 * bounds[i] + 1 for i in free)
    if volume > budget:
        raise BudgetExceededError(f"enumeration volume {volume} exceeds budget {budget}")
    inv = pow(lat.coeffs[s], -1, q)
    pts = []
    for vals in product(*(range(-bounds[i], bounds[i] + 1) for i in free)):
        r = -inv * sum(lat.coeffs[i] * v for i, v in zip(free, vals)) % q
        lifts = range(-bounds[s] + (r + bounds[s]) % q, bounds[s] + 1, q)
        if len(pts) + len(lifts) > budget:
            raise BudgetExceededError(f"more than {budget} lifted points")
        for x in lifts:
            v = list(vals)
            v.insert(s, x)
            pts.append(tuple(v))
    return pts


def oracle_successive_minima(
    lat: CongruenceLattice, box: BoxBody, budget: int = DEFAULT_ENUM_BUDGET
) -> MinimaResult:
    """Successive minima: rational LLL radius, the Python box walk, then a Python
    scoring loop."""
    if box.degenerate:
        return MinimaResult((), (), degenerate=True)
    w = box.half_widths
    reduced = rational_lll(lat.basis(), [1 / (wi * wi) for wi in w])
    radius = max(box.norm(row) for row in reduced)
    bounds = [math.floor(radius * wi) for wi in w]
    pts = oracle_box_points(lat, bounds, budget=budget)
    P = math.lcm(*(wi.numerator for wi in w))
    mult = [wi.denominator * (P // wi.numerator) for wi in w]
    scored = [(max(abs(x) * m for x, m in zip(row, mult)), list(row)) for row in pts if any(row)]
    return _greedy(scored, lat.d, P)


def _dual_lifts(lat: CongruenceLattice, box: BoxBody):
    """The dual enumeration's box and norm scale from a rational-LLL radius, and
    lifts(lam): per coordinate, the m_i = a_i*lam (mod q) with |m_i| <= bounds[i]."""
    q, w = lat.q, box.half_widths
    reduced = rational_lll(DualLattice(lat).integer_basis(), [wi * wi for wi in w])
    radius = max(box.dual_norm(row) / q for row in reduced)
    bounds = [math.floor(radius * q / wi) for wi in w]

    def lifts(lam):
        coord = []
        for ai, b in zip(lat.coeffs, bounds):
            r = (ai * lam) % q
            coord.append([r + q * t for t in range(-((b + r) // q), (b - r) // q + 1)])
        return coord

    return radius, lifts


def inverse(rows: list) -> list:
    """The inverse of a nonsingular integer matrix as Fractions, by Gauss-Jordan."""
    d = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(rows)]
    for col in range(d):
        piv = next(r for r in range(col, d) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def dual_candidate_count(lat: CongruenceLattice, box: BoxBody) -> int:
    """The number of candidates the dual enumeration charges against its budget:
    in the basis D = q * B^{-T} dual to the rationally reduced primal basis B,
    the box of coefficient tuples c with |c_j| <= max_i (radius / mult_i) * |(D^{-1})_ij|
    (radius the largest scaled dual norm of a row of D), solved for its widest
    coordinate s: the outer volume, plus, per outer tuple, the number of t with
    every |(c . D)_i| <= radius // mult_i, counted one t at a time."""
    q, w = lat.q, box.half_widths
    B = rational_lll(lat.basis(), [1 / (wi * wi) for wi in w])
    D = [[q * x for x in col] for col in zip(*inverse(B))]
    assert all(x.denominator == 1 for row in D for x in row)
    D = [[int(x) for x in row] for row in D]
    R = math.lcm(*(wi.denominator for wi in w))
    mult = [wi.numerator * (R // wi.denominator) for wi in w]
    radius = max(sum(abs(x) * m for x, m in zip(row, mult)) for row in D)
    bounds = [radius // m for m in mult]
    Dinv = inverse(D)
    d = lat.d
    caps = [math.floor(max(Fraction(radius, m) * abs(Dinv[i][j]) for i, m in enumerate(mult))) for j in range(d)]
    s = caps.index(max(caps))
    outer = [j for j in range(d) if j != s]
    total = math.prod(2 * caps[j] + 1 for j in outer)
    for c in product(*(range(-caps[j], caps[j] + 1) for j in outer)):
        u = [sum(cj * D[j][i] for cj, j in zip(c, outer)) for i in range(d)]
        total += sum(
            all(abs(ui + t * D[s][i]) <= bi for i, (ui, bi) in enumerate(zip(u, bounds)))
            for t in range(-caps[s], caps[s] + 1)
        )
    return total


def oracle_dual_minima(
    lat: CongruenceLattice, box: BoxBody, budget: int = DEFAULT_ENUM_BUDGET
) -> MinimaResult:
    """Dual minima: rational LLL radius, then every lambda in [0, q) with the
    cartesian product of its lifts built as a Python stack."""
    if box.degenerate:
        return MinimaResult((), (), degenerate=True)
    q, w = lat.q, box.half_widths
    radius, lifts = _dual_lifts(lat, box)
    R = math.lcm(*(wi.denominator for wi in w))
    mult = [wi.numerator * (R // wi.denominator) for wi in w]
    scaled_radius = radius * q * R
    if dual_candidate_count(lat, box) > budget:
        raise BudgetExceededError("dual enumeration exceeds budget")
    scored = []
    for lam in range(q):
        stack = [[]]
        for opts in lifts(lam):
            stack = [pref + [o] for pref in stack for o in opts]
        for m in stack:
            if not any(m):
                continue
            scaled = sum(abs(x) * mu for x, mu in zip(m, mult))
            if scaled <= scaled_radius:
                scored.append((scaled, m))
    return _greedy(scored, lat.d, q * R)


def oracle_dual_minima_2d(
    lat: CongruenceLattice, box: BoxBody, budget: int = DEFAULT_ENUM_BUDGET
) -> MinimaResult:
    """Dual minima for d = 2 at any q: q * (dual lattice) is the congruence
    lattice a_1 m_0 - a_0 m_1 = 0 (mod q), so the Python box walk lists its points
    inside the rational-LLL radius, and a Python scoring loop keeps those inside
    the dual body."""
    (a0, a1), q, w = lat.coeffs, lat.q, box.half_widths
    radius, _ = _dual_lifts(lat, box)
    bounds = [math.floor(radius * q / wi) for wi in w]
    pts = oracle_box_points(CongruenceLattice((a1 % q, -a0 % q), q), bounds, budget=budget)
    R = math.lcm(*(wi.denominator for wi in w))
    mult = [wi.numerator * (R // wi.denominator) for wi in w]
    scored = [(sum(abs(x) * m for x, m in zip(v, mult)), list(v)) for v in pts if any(v)]
    return _greedy([t for t in scored if t[0] <= radius * q * R], 2, q * R)


def oracle_geometry_checks(lat: CongruenceLattice, box: BoxBody, lam: tuple, dlam: tuple, K: int) -> dict:
    """verify_geometry's Fractions and verdicts from the minima as Fractions, the
    way it computed them before its integer inequalities."""
    d = lat.d
    prod = math.prod(lam, start=Fraction(1))
    rhs = Fraction(math.factorial(d), 2**d) * box.volume() / lat.q
    bound = math.prod((Fraction(2 * (j + 1)) / lam[j] + 1 for j in range(d)), start=Fraction(1))
    slacks = tuple(lam[j] * dlam[d - j - 1] / math.factorial(d) for j in range(d))
    return {
        "count_bound": bound,
        "minkowski_ok": 1 / prod <= rhs,
        "minkowski_slack": rhs * prod,
        "counting_ok": K <= bound,
        "transference_ok": all(s <= 1 for s in slacks),
        "transference_slacks": slacks,
    }


def oracle_case_dual_point(a: int, b: int, c: int, L: int, M: int, N: int, q: int, K: int) -> bool:
    """Trichotomy case (iii) with point count K: some lambda in [1, q) whose
    balanced residues bal = min(t, q - t) of t = (a, b, c) * lambda mod q satisfy
    bal * K <= 4320 * (MN, LN, LM), every product in Python ints."""
    for lam in range(1, q):
        ok = True
        for coeff, bound_num in ((a, 4320 * M * N), (b, 4320 * L * N), (c, 4320 * L * M)):
            t = (coeff * lam) % q
            ok = ok and min(t, q - t) * K <= bound_num
        if ok:
            return True
    return False


def oracle_case_one_short(a: int, b: int, c: int, L: int, M: int, N: int, q: int) -> bool:
    """Trichotomy case (ii), lambda_1 <= 1 < lambda_2, for the box |l| <= N,
    |m| <= M, |n| <= L: every (l, m, n) in the box with a*l + b*m + c*n = 0 (mod q)
    is visited, and the case holds iff some is nonzero and every cross product
    with the first nonzero one vanishes.  False for a degenerate box."""
    if min(L, M, N) == 0:
        return False
    first = None
    for v in product(range(-N, N + 1), range(-M, M + 1), range(-L, L + 1)):
        if (a * v[0] + b * v[1] + c * v[2]) % q or not any(v):
            continue
        if first is None:
            first = v
        elif (
            first[1] * v[2] - first[2] * v[1],
            first[2] * v[0] - first[0] * v[2],
            first[0] * v[1] - first[1] * v[0],
        ) != (0, 0, 0):
            return False
    return first is not None


def minima_case_one_short(a: int, b: int, c: int, L: int, M: int, N: int, q: int):
    """Trichotomy case (ii) as lambda_1 <= 1 < lambda_2 of successive_minima, the
    route trichotomy_check used to take; None once its radius box exceeds the
    budget.  False for a degenerate box."""
    box = BoxBody((N, M, L))
    if box.degenerate:
        return False
    try:
        lambdas = successive_minima(CongruenceLattice((a, b, c), q), box).lambdas
    except BudgetExceededError:
        return None
    return lambdas[0] <= 1 < lambdas[1]
