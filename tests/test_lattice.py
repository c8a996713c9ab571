import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from modroots.errors import BudgetExceededError, CapacityError, DegenerateError
from modroots.lattice import (
    BoxBody,
    CongruenceLattice,
    box_points,
    count_points,
    dual_minima,
    successive_minima,
    trichotomy_check,
    verify_geometry,
)
from modroots.modular import primes_in
from modroots.rng import SplitMix64

from lattice_oracles import (
    box_norm,
    contains,
    dual_contains,
    dual_integer_basis,
    dual_norm,
    independent,
    oracle_geometry_checks,
)


def L_x_eq_cy(c, q):
    """The lattice x = c*y (mod q) as a congruence lattice."""
    return CongruenceLattice((1, (-c) % q), q)


def test_count_examples():
    assert count_points(L_x_eq_cy(2, 5), BoxBody((2, 2))) == 5
    assert count_points(L_x_eq_cy(2, 5), BoxBody((0, 0))) == 1
    assert count_points(CongruenceLattice((1, 1), 2), BoxBody((1, 1))) == 5


def test_count_against_brute_force():
    rng = SplitMix64(2)
    for _ in range(50):
        q = rng.choice([2, 3, 5, 7, 11, 13])
        d = rng.choice([2, 3])
        coeffs = tuple(rng.randint(1, q - 1) if q > 1 else 1 for _ in range(d))
        bounds = [rng.randint(0, 6) for _ in range(d)]
        lat = CongruenceLattice(coeffs, q)
        box = BoxBody(tuple(bounds))
        brute = 0
        for v in product(*[range(-b, b + 1) for b in bounds]):
            if contains(lat, v):
                brute += 1
        assert count_points(lat, box) == brute
        pts = box_points(lat, bounds)
        assert len(pts) == brute


def test_count_odd_by_negation_symmetry():
    rng = SplitMix64(8)
    for _ in range(30):
        q = rng.choice(primes_in(3, 200))
        coeffs = (rng.randint(1, q - 1), rng.randint(1, q - 1))
        w = (Fraction(rng.randint(1, 40), rng.choice([1, 2, 3])),) * 2
        assert count_points(CongruenceLattice(coeffs, q), BoxBody(w)) % 2 == 1


def test_minima_examples():
    m = successive_minima(L_x_eq_cy(2, 5), BoxBody((2, 2)))
    assert m.lambdas == (1, 1)
    z = successive_minima(CongruenceLattice((1, 1, 1), 1), BoxBody((1, 1, 1)))
    assert z.lambdas == (1, 1, 1)
    m101 = successive_minima(L_x_eq_cy(10, 101), BoxBody((2, 2)))
    assert m101.lambdas[0] == 5


def test_minima_ordering_and_independence():
    rng = SplitMix64(14)
    for _ in range(60):
        q = rng.choice(primes_in(3, 2000))
        d = rng.choice([2, 3])
        coeffs = tuple(rng.randint(1, q - 1) for _ in range(d))
        w = tuple(Fraction(rng.randint(1, 50), rng.choice([1, 2])) for _ in range(d))
        m = successive_minima(CongruenceLattice(coeffs, q), BoxBody(w))
        assert all(m.lambdas[i] <= m.lambdas[i + 1] for i in range(d - 1))
        assert all(independent(m.witnesses[:i], m.witnesses[i]) for i in range(d))  # a nonzero determinant
        box = BoxBody(w)
        for lam, wit in zip(m.lambdas, m.witnesses):
            assert box_norm(box, wit) == lam


def _greedy_from_scored(scored, d):
    scored.sort(key=lambda t: (t[0], t[1]))
    lams, wits = [], []
    for norm, v in scored:
        if independent(wits, list(v)):
            wits.append(list(v))
            lams.append(norm)
            if len(wits) == d:
                break
    return tuple(lams)


def test_minima_against_brute_force_oracle():
    rng = SplitMix64(505)
    for _ in range(60):
        d = 2 if rng.below(2) == 0 else 3
        q = rng.choice([2, 3, 5, 7, 11])
        coeffs = tuple(rng.randint(1, q - 1) if q > 1 else 1 for _ in range(d))
        w = tuple(Fraction(rng.randint(1, 5), rng.choice([1, 2])) for _ in range(d))
        lat, box = CongruenceLattice(coeffs, q), BoxBody(w)
        R = Fraction(q, 1) / min(w)  # q*e_i witnesses bound the largest minimum
        bounds = [int(R * wi) + 1 for wi in w]
        scored = [
            (box_norm(box, v), v)
            for v in product(*[range(-b, b + 1) for b in bounds])
            if any(v) and contains(lat, v)
        ]
        assert successive_minima(lat, box).lambdas == _greedy_from_scored(scored, d)


def test_dual_minima_against_brute_force_oracle():
    rng = SplitMix64(404)
    for _ in range(60):
        d = 2 if rng.below(2) == 0 else 3
        q = rng.choice([2, 3, 5, 7, 11, 13])
        coeffs = tuple(rng.randint(1, q - 1) if q > 1 else 1 for _ in range(d))
        w = tuple(Fraction(rng.randint(1, 6), rng.choice([1, 2, 3])) for _ in range(d))
        lat, box = CongruenceLattice(coeffs, q), BoxBody(w)
        R = max(w)  # q*e_j / q = e_j has dual norm w_j
        bounds = [int(R * q / wi) + 1 for wi in w]
        scored = [
            (dual_norm(box, m) / q, m)
            for m in product(*[range(-b, b + 1) for b in bounds])
            if any(m) and dual_contains(lat, [Fraction(x, q) for x in m])
        ]
        assert dual_minima(lat, box).lambdas == _greedy_from_scored(scored, d)


def test_minima_degenerate_flag():
    m = successive_minima(L_x_eq_cy(2, 5), BoxBody((2, 0)))
    assert m.degenerate and m.lambdas == ()


def test_dual_membership_example():
    D = CongruenceLattice((1, 3), 5)
    assert dual_contains(D, (Fraction(1, 5), Fraction(3, 5)))
    assert dual_contains(D, (0, 0))
    assert not dual_contains(D, (Fraction(1, 5), Fraction(2, 5)))
    assert not dual_contains(D, (Fraction(1, 7), Fraction(3, 7)))
    Z2 = CongruenceLattice((1, 1), 1)  # q = 1: the dual is Z^2
    assert dual_contains(Z2, (2, -1)) and not dual_contains(Z2, (Fraction(1, 3), 0))
    assert dual_integer_basis(Z2) == [[1, 0], [0, 1]]


def test_dual_reciprocity_integer_inner_products():
    rng = SplitMix64(19)
    for _ in range(20):
        q = rng.choice(primes_in(3, 100))
        d = rng.choice([2, 3])
        coeffs = tuple(rng.randint(1, q - 1) for _ in range(d))
        lat = CongruenceLattice(coeffs, q)
        primal = box_points(lat, [6] * d)
        dm = dual_minima(lat, BoxBody((3,) * d))
        for wit in dm.witnesses:
            # wit is q * (dual vector); integrality of <dual, primal>
            for v in primal.tolist():
                assert sum(a * b for a, b in zip(wit, v)) % q == 0


def test_geometry_anchor():
    rep = verify_geometry(L_x_eq_cy(2, 5), BoxBody((2, 2)))
    assert rep.minkowski_ok
    assert rep.minkowski_slack == Fraction(8, 5)
    assert rep.counting_ok and rep.transference_ok
    z = verify_geometry(CongruenceLattice((1, 1, 1), 1), BoxBody((1, 1, 1)))
    assert z.all_ok


def test_geometry_randomized():
    rng = SplitMix64(100)
    for _ in range(200):
        d = rng.choice([2, 3])
        q = rng.choice(primes_in(3, 10000))
        coeffs = tuple(rng.randint(1, q - 1) for _ in range(d))
        e = rng.uniform01() * math.log(2000)
        ws = tuple(
            Fraction(max(1, int(math.exp(rng.uniform01() * e))), rng.choice([1, 2, 3, 4]))
            for _ in range(d)
        )
        rep = verify_geometry(CongruenceLattice(coeffs, q), BoxBody(ws))
        assert rep.all_ok, (d, q, coeffs, ws)


def test_geometry_inequalities_match_fraction_oracle():
    # the integer inequalities give the Fractions and verdicts of the rational formulas
    rng = SplitMix64(23)
    for _ in range(150):
        d = rng.choice([2, 3])
        q = rng.choice(primes_in(3, 3000))
        coeffs = tuple(rng.randint(1, q - 1) for _ in range(d))
        ws = tuple(Fraction(rng.randint(1, 60), rng.choice([1, 2, 3, 4, 7])) for _ in range(d))
        lat, box = CongruenceLattice(coeffs, q), BoxBody(ws)
        rep = verify_geometry(lat, box)
        expect = oracle_geometry_checks(lat, box, rep.minima.lambdas, rep.dual.lambdas, rep.point_count)
        assert {key: getattr(rep, key) for key in expect} == expect
        assert rep.minima == successive_minima(lat, box) and rep.dual == dual_minima(lat, box)
        assert rep.point_count == count_points(lat, box)


def test_geometry_of_a_degenerate_box_is_refused():
    with pytest.raises(DegenerateError):
        verify_geometry(L_x_eq_cy(2, 5), BoxBody((2, 0)))


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        count_points(L_x_eq_cy(2, 10007), BoxBody((10**5, 10**5)), budget=10**3)


def test_trichotomy_examples():
    res = trichotomy_check(1, 1, 1, 10, 10, 10, 997)
    assert res.point_count == 331 and res.holds
    degenerate = trichotomy_check(3, 5, 7, 0, 0, 0, 97)
    assert degenerate.point_count == 1
    assert degenerate.degenerate_box and not res.degenerate_box


def test_trichotomy_randomized():
    rng = SplitMix64(55)
    for _ in range(150):
        q = rng.choice(primes_in(3, 5000))
        a, b, c = (rng.randint(1, q - 1) for _ in range(3))
        L, M, N = (rng.randint(1, 12) for _ in range(3))
        res = trichotomy_check(a, b, c, L, M, N, q)
        assert res.holds or res.degenerate_box, (q, a, b, c, L, M, N, res)


def test_lattice_validation():
    with pytest.raises(ValueError):
        CongruenceLattice((2, 4), 6)
    with pytest.raises(ValueError):
        CongruenceLattice((1,), 5)
    with pytest.raises(ValueError):
        BoxBody((-1, 2))


def exact_count(coeffs, q, bounds):
    """#(lattice ∩ box) in Python ints: enumerate all but the last coordinate
    (whose coefficient must be 1) and count the solutions r + t*q of the last."""
    *head, last = bounds
    total = 0
    for v in product(*(range(-b, b + 1) for b in head)):
        r = -sum(a * x for a, x in zip(coeffs, v)) % q
        total += max(0, (last - r) // q + (last + r) // q + 1)
    return total


def count_or_none(lat, bounds):
    try:
        got = count_points(lat, BoxBody(bounds))
    except CapacityError:
        got = None
    try:
        pts = len(box_points(lat, bounds))
    except CapacityError:
        pts = None
    return got, pts


def test_count_at_large_q_is_exact_or_capacity_error():
    # (q - 3) * v for |v| <= 20000 exceeds 2^63: the int64 product would wrap
    lat = CongruenceLattice((3, 1), 10**15 + 37)
    assert exact_count((3, 1), 10**15 + 37, (20000, 40000)) == 26667
    got, pts = count_or_none(lat, (20000, 40000))
    assert got in (None, 26667) and pts in (None, 26667)


@given(
    st.integers(2, 3),
    st.integers(0, 30),
    st.integers(0, 10**6),
    st.integers(300, 4000),
    st.integers(-(10**6), 10**6),
    st.integers(1, 2**64),
)
@settings(max_examples=80, deadline=None)
def test_count_near_word_boundary(d, b0, extra, per_mille, offset, c):
    # q spans from half to four times 2^63 / (free bound + 2)
    q = max(2, (2**63 // (b0 + 2)) * per_mille // 1000 + offset)
    coeffs = tuple((c * (i + 7)) % q for i in range(d - 1)) + (1,)
    assume(all(math.gcd(a, q) == 1 for a in coeffs))
    bounds = (b0,) * (d - 1) + (b0 + extra,)
    got, pts = count_or_none(CongruenceLattice(coeffs, q), bounds)
    expect = exact_count(coeffs, q, bounds)
    assert got in (None, expect) and pts in (None, expect)
    if q * ((d - 1) * b0 + 2) + b0 + extra < 2**63:
        assert got == pts == expect
