import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from modroots.errors import CapacityError
from modroots.expsums import (
    BilinearQuery,
    SmoothBump,
    _root_sums,
    _window_sums,
    bilinear_bound_ratio,
    bilinear_envelope,
    bilinear_root_sum,
    char_inverse_moment,
    character_table,
    dyadic_range,
    smoothed_bound_ratio,
    smoothed_root_sum,
    unit_roots,
)
from modroots.harness import SweepConfig, run_sweep
from modroots.modular import ROOT_TABLE_CAP, is_prime, kth_roots
from modroots.rng import SplitMix64

from algebra_oracles import fourier_vs_gauss_residual, moment_tolerance, slice_windows, window_bound

TOL = 1e-9


# ---------------------------------------------------------------------------
# oracles: the per-pair root loops and the pow-loop inverse table


def _root_sum(a, h, v, q) -> complex:
    """sum over x^2 = a v (mod q) of e_q(h x), from kth_roots with exact phases."""
    roots = unit_roots(q)
    return sum((roots[h * x % q] for x in kth_roots(a * v % q, 2, q)), 0j)


def w_pair_loop(query: BilinearQuery) -> complex:
    q = query.q
    total = 0j
    for wm, m in zip(query.alpha, dyadic_range(query.M)):
        for wn, n in zip(query.beta, dyadic_range(query.N)):
            total += wm * wn * _root_sum(query.a, query.h, m * n, q)
    return total


def v_pair_loop(a, h, M, q, alpha, bump) -> complex:
    total = 0j
    for wm, m in zip(alpha, dyadic_range(M)):
        for n in bump.support():
            total += wm * bump(n) * _root_sum(a, h, m * n, q)
    return total


def moment_pow_loop(c, U0, r, q) -> float:
    chi = character_table(q)
    roots = unit_roots(q)
    inv = np.zeros(q, dtype=np.int64)
    inv[1:] = [pow(y, q - 2, q) for y in range(1, q)]
    w = np.asarray(chi, dtype=np.float64) * roots[(c * inv) % q]
    w[0] = 0.0
    inner = np.zeros(q, dtype=np.complex128)
    for u in range(1, U0 + 1):
        inner += np.roll(w, -u)
    return float(np.sum(np.abs(inner) ** (2 * r)))


@given(st.sampled_from([2, 3, 5, 13, 17, 65537, 2097169]), st.integers(1, 2**40), st.integers(0, 2**40),
       st.lists(st.integers(0, 2**40), max_size=30))
@example(2, 1, 1, [0, 1])
@example(17, 3, 5, [0, 1, 2, 3])  # q = 1 (mod 8): 2 is a square
@example(65537, 1, 1, [0, 3])  # q - 1 = 2^16, 3 a generator
@settings(max_examples=60, deadline=None)
def test_root_sums_match_kth_roots_exactly(q, a, h, raw):
    # at most two roots a value, so the float sum does not depend on their order; every
    # list holds v = 0 and, for odd q, a v with a v the least non-residue
    a = a if a % q else a + 1
    vs = {v % q for v in raw} | {0}
    if q > 2:
        n = next(n for n in range(2, q) if pow(n, (q - 1) // 2, q) == q - 1)
        vs.add(n * pow(a, -1, q) % q)
    vs = np.array(sorted(vs), dtype=np.int64)
    roots = unit_roots(q)
    want = [sum((roots[h * x % q] for x in kth_roots(a * v % q, 2, q)), 0j) for v in vs.tolist()]
    assert _root_sums(a, h, q, vs).tolist() == want


def _close(got, want, scale):
    """Agreement to TOL relative to the l1 mass of the summed terms (2 roots each)."""
    return abs(got - want) <= TOL * max(1.0, 2 * scale)


SMALL_PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13, 31, 97, 101, 499])
SIGNS = st.sampled_from([-1.0, 0.0, 1.0])


def test_dyadic_convention():
    assert list(dyadic_range(2)) == [1]
    assert list(dyadic_range(8)) == [4, 5, 6, 7]
    assert list(dyadic_range(7)) == [4, 5, 6]


def test_w_single_pair_anchor():
    q = BilinearQuery(2, 1, 2, 2, 7, (1.0,), (1.0,))
    got = bilinear_root_sum(q)
    assert abs(got - 2 * math.cos(6 * math.pi / 7)) < 1e-12


def test_w_zero_weights_and_trivial_roots():
    assert bilinear_root_sum(BilinearQuery(2, 1, 2, 2, 7, (0.0,), (0.0,))) == 0
    assert abs(bilinear_root_sum(BilinearQuery(1, 0, 2, 2, 7, (1.0,), (1.0,))) - 2) < 1e-12


def test_w_character_identity_h_zero():
    # with h = 0 and unit weights: count of roots = 1 + chi(amn) off zero, 1 at zero
    rng = SplitMix64(3)
    for q in (11, 23):
        chi = character_table(q)
        for a in (1, rng.randint(1, q - 1)):
            M = N = 8
            w = bilinear_root_sum(
                BilinearQuery(a, 0, M, N, q, tuple([1.0] * 4), tuple([1.0] * 4))
            )
            expect = 0
            for m in dyadic_range(M):
                for n in dyadic_range(N):
                    v = a * m * n % q
                    expect += 1 if v == 0 else 1 + chi[v]
            assert abs(w - expect) < TOL


def test_w_conjugation_symmetry():
    rng = SplitMix64(7)
    q, M, N = 31, 8, 8
    al = tuple(float(rng.choice([-1, 1])) for _ in dyadic_range(M))
    be = tuple(float(rng.choice([-1, 1])) for _ in dyadic_range(N))
    w1 = bilinear_root_sum(BilinearQuery(3, 5, M, N, q, al, be))
    w2 = bilinear_root_sum(BilinearQuery(3, q - 5, M, N, q, al, be))
    assert abs(w1 - w2.conjugate()) < 1e-12


def test_bump_support():
    bump = SmoothBump(20)
    assert bump(20) == 0.0 and bump(40) == 0.0
    assert bump(30) == 1.0
    assert all(bump(x) > 0 for x in range(21, 40))


def test_v_zero_function():
    class ZeroBump(SmoothBump):
        def __call__(self, x):
            return 0.0

    v = smoothed_root_sum(1, 1, 4, 31, (1.0, 1.0), ZeroBump(8))
    assert v == 0


def test_v_against_reversed_loop_oracle():
    q, a, h, M = 31, 3, 1, 4
    bump = SmoothBump(10)
    v = smoothed_root_sum(a, h, M, q, (1.0, 1.0), bump)
    acc = 0
    for n in bump.support():
        for m in dyadic_range(M):
            for x in kth_roots(a * m * n % q, 2, q):
                acc += bump(n) * cmath.exp(2j * math.pi * x * h / q)
    assert abs(v - acc) <= TOL * max(1.0, abs(acc))


def test_v_empty_root_sets():
    # all amn values land on non-residues: scan small q for an instance
    found = False
    for q in (11, 13, 19, 23):
        chi = character_table(q)
        M = 4
        bump = SmoothBump(4)
        for a in range(1, q):
            vals = [a * m * n % q for m in dyadic_range(M) for n in bump.support()]
            if all(v != 0 and chi[v] == -1 for v in vals):
                v = smoothed_root_sum(a, 1, M, q, (1.0, 1.0), bump)
                assert v == 0
                found = True
                break
        if found:
            break
    assert found


def test_fourier_matches_gauss_evaluation():
    for q in (11, 31, 101):
        for (m, n) in [(1, 1), (2, 5), (3, q - 2)]:
            res = fourier_vs_gauss_residual(2, 3, m, n, q)
            assert res < TOL


def test_moment_anchors():
    assert char_inverse_moment(1, 0, 2, 101).moment == 0
    rep = char_inverse_moment(1, 5, 2, 101)
    assert rep.moment > 0 and rep.ratio < 10
    # r=1, U0=q: inner sum is the same complete sum for every lambda
    q = 61
    rep2 = char_inverse_moment(2, q, 1, q)
    chi = character_table(q)
    roots = unit_roots(q)
    complete = sum(chi[y] * roots[(2 * pow(y, q - 2, q)) % q] for y in range(1, q))
    assert rep2.moment == pytest.approx(q * abs(complete) ** 2, rel=1e-9)


def test_moment_direct_small_case():
    # brute-force the definition for a tiny field
    q, c, U0, r = 13, 3, 4, 2
    chi = character_table(q)
    total = 0.0
    for lam in range(q):
        inner = 0j
        for u in range(1, U0 + 1):
            y = (lam + u) % q
            if y == 0:
                continue
            inner += chi[y] * cmath.exp(2j * math.pi * ((c * pow(y, q - 2, q)) % q) / q)
        total += abs(inner) ** (2 * r)
    rep = char_inverse_moment(c, U0, r, q)
    assert rep.moment == pytest.approx(total, rel=1e-9)


def test_ratio_reports():
    rng = SplitMix64(9)
    q, M, N = 101, 16, 16
    al = tuple(float(rng.choice([-1, 1])) for _ in dyadic_range(M))
    be = tuple(float(rng.choice([-1, 1])) for _ in dyadic_range(N))
    rep = bilinear_bound_ratio(BilinearQuery(5, 7, M, N, q, al, be))
    assert rep.envelope == pytest.approx(bilinear_envelope(q, M, N))
    assert 0 <= rep.ratio < 1000
    zero = bilinear_bound_ratio(BilinearQuery(5, 7, M, N, q, (0.0,) * 8, (0.0,) * 8))
    assert zero.ratio == 0
    vrep = smoothed_bound_ratio(5, 7, 8, 499, tuple([1.0] * 4), SmoothBump(32), r=2)
    assert 0 <= vrep.ratio < 1000
    with pytest.raises(ValueError):
        bilinear_bound_ratio(BilinearQuery(5, 7, M, N, q, (2.0,) * 8, (0.0,) * 8))


def test_ratio_edge_parameters():
    # r = 0 is a bad parameter, not an envelope to divide by; M = 1 has no m ~ M
    with pytest.raises(ValueError, match="r must be >= 1"):
        smoothed_bound_ratio(5, 7, 8, 499, tuple([1.0] * 4), SmoothBump(32), r=0)
    vrep = smoothed_bound_ratio(5, 7, 1, 499, (), SmoothBump(32), r=2)
    assert vrep.value == 0 and vrep.ratio == 0
    wrep = bilinear_bound_ratio(BilinearQuery(5, 7, 1, 1, 101, (), ()))
    assert wrep.value == 0 and wrep.ratio == 0


def test_weight_length_validation():
    with pytest.raises(ValueError):
        BilinearQuery(1, 0, 8, 8, 31, (1.0,), (1.0,) * 4)
    with pytest.raises(ValueError):
        BilinearQuery(31, 0, 4, 4, 31, (1.0,) * 2, (1.0,) * 2)


# ---------------------------------------------------------------------------
# the table paths against the oracles


@given(SMALL_PRIMES, st.integers(1, 2**62), st.integers(0, 2**62), st.integers(2, 40),
       st.integers(2, 40), st.data())
@settings(max_examples=80, deadline=None)
def test_w_matches_pair_loop(q, a, h, M, N, data):
    a = a if a % q else a + 1
    alpha = tuple(data.draw(st.lists(SIGNS, min_size=len(dyadic_range(M)), max_size=len(dyadic_range(M)))))
    beta = tuple(data.draw(st.lists(SIGNS, min_size=len(dyadic_range(N)), max_size=len(dyadic_range(N)))))
    query = BilinearQuery(a, h, M, N, q, alpha, beta)
    scale = sum(map(abs, alpha)) * sum(map(abs, beta))
    assert _close(bilinear_root_sum(query), w_pair_loop(query), scale)


@given(SMALL_PRIMES, st.integers(1, 2**62), st.integers(0, 2**62), st.integers(2, 24),
       st.integers(1, 30), st.data())
@settings(max_examples=60, deadline=None)
def test_v_matches_pair_loop(q, a, h, M, N, data):
    a = a if a % q else a + 1
    alpha = tuple(data.draw(st.lists(SIGNS, min_size=len(dyadic_range(M)), max_size=len(dyadic_range(M)))))
    bump = SmoothBump(N)
    got = smoothed_root_sum(a, h, M, q, alpha, bump)
    scale = sum(map(abs, alpha)) * sum(bump(n) for n in bump.support())
    assert _close(got, v_pair_loop(a, h, M, q, alpha, bump), scale)


@given(st.sampled_from([3, 5, 7, 13, 31, 97, 101, 499]), st.integers(1, 10**6), st.data())
@settings(max_examples=40, deadline=None)
def test_moment_matches_pow_loop_exactly(q, c, data):
    # the blocked windows are within window_bound of the pow loop's, so the moment
    # is within moment_tolerance of it
    c = c if c % q else c + 1
    U0 = data.draw(st.integers(1, q))
    r = data.draw(st.integers(1, 3))
    got = char_inverse_moment(c, U0, r, q).moment
    want = moment_pow_loop(c % q, U0, r, q)
    assert abs(got - want) <= moment_tolerance(_window_sums(c % q, U0, q), U0, r)


@st.composite
def _windows_case(draw):
    """(q, U0): U0 at the edges 1, 2, q - 1 and q, or off them.  The slice loop costs
    O(U0 q), so at q = 65537 the edges q - 1 and q are explicit examples alone."""
    q = draw(st.sampled_from([3, 5, 7, 13, 31, 97, 101, 499, 65537]))
    edges, off = ([1, 2, q - 1, q], st.integers(1, q)) if q < 1000 else ([1, 2], st.integers(3, 600))
    return q, draw(st.one_of(st.sampled_from(edges), off))


@given(_windows_case(), st.integers(1, 2**62), st.integers(1, 3))
@example((7, 3), 1, 2)  # (nb - 1) U0 = q - 1: the last window is the last block's total
@example((7, 4), 2, 1)  # nb U0 > q + U0 - 1: the last block is padded
@example((65537, 65536), 5, 3)
@example((65537, 65537), 5, 3)
@settings(max_examples=40, deadline=None)
def test_window_sums_match_the_slice_loop(case, c, r):
    q, U0 = case
    c = c if c % q else c + 1
    got, want = _window_sums(c % q, U0, q), slice_windows(c, U0, q)
    assert np.abs(got - want).max() <= window_bound(U0)
    moment = char_inverse_moment(c, U0, r, q).moment
    assert abs(moment - float(np.sum(np.abs(want) ** (2 * r)))) <= moment_tolerance(want, U0, r)
    if U0 < q:  # then w(lambda + U0) != w(lambda) at lambda = 0, so a window one off breaks the bound
        assert np.abs(np.roll(got, 1) - want).max() > window_bound(U0)


def test_large_h_and_a_are_reduced_mod_q():
    # h * x used to be formed on int64 before reduction and wrapped for h near 2^50
    q, a = 100003, 5
    h = 2**50 + 5
    vs = np.arange(q, dtype=np.int64)
    assert np.array_equal(_root_sums(a, h, q, vs), _root_sums(a, h % q, q, vs))
    assert np.array_equal(_root_sums(a + 2**50 * q, 3, q, vs), _root_sums(a, 3, q, vs))
    M, N = 64, 64
    rng = SplitMix64(5)
    al = tuple(float(rng.choice([-1, 1])) for _ in dyadic_range(M))
    be = tuple(float(rng.choice([-1, 1])) for _ in dyadic_range(N))
    big = BilinearQuery(a, h, M, N, q, al, be)
    assert bilinear_root_sum(big) == bilinear_root_sum(BilinearQuery(a, h % q, M, N, q, al, be))
    assert _close(bilinear_root_sum(big), w_pair_loop(big), len(al) * len(be))
    c = 2**62 + 3
    assert char_inverse_moment(c, 8, 2, 101).moment == char_inverse_moment(c % 101, 8, 2, 101).moment


def test_tables_above_cap_raise_capacity_error():
    q = ROOT_TABLE_CAP + 1
    while not is_prime(q):
        q += 1
    with pytest.raises(CapacityError):
        char_inverse_moment(1, 4, 2, q)
    with pytest.raises(CapacityError):
        bilinear_root_sum(BilinearQuery(1, 1, 4, 4, q, (1.0, 1.0), (1.0, 1.0)))
    res = run_sweep(SweepConfig("salie-moment", {"q": [q], "U0": [4]}))
    assert [r.params.get("skip") for r in res.rows] == ["CapacityError"]
