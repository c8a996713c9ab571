"""The integer lattice routes against the rational and per-lambda oracles."""

import math
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from modroots import lattice
from modroots.errors import BudgetExceededError, CapacityError
from modroots.lattice import (
    BoxBody,
    CongruenceLattice,
    _independent_rows,
    _lll,
    _mulmod,
    box_points,
    count_points,
    dual_minima,
    successive_minima,
    trichotomy_check,
)
from modroots.modular import is_prime, primes_in

from lattice_oracles import (
    box_norm,
    contains,
    dual_candidate_count,
    dual_contains,
    dual_integer_basis,
    dual_norm,
    independent,
    integral_gso,
    inverse,
    minima_case_one_short,
    oracle_box_points,
    oracle_case_dual_point,
    oracle_case_one_short,
    oracle_dual_minima,
    oracle_dual_minima_2d,
    oracle_successive_minima,
    rational_lll,
)

PRIMES = primes_in(2, 1500)


def full_rank(rows):
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c != 0
    u, v, w = rows
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    ) != 0


positive_fractions = st.builds(
    Fraction, st.integers(1, 10**18), st.integers(1, 10**18)
)


@given(
    st.integers(2, 3).flatmap(
        lambda d: st.tuples(
            st.lists(st.lists(st.integers(-40, 40), min_size=d, max_size=d), min_size=d, max_size=d),
            st.lists(positive_fractions | st.integers(1, 9).map(Fraction), min_size=d, max_size=d),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_integer_lll_matches_rational_oracle(case):
    rows, weights = case
    assume(full_rank(rows))
    assert _lll(rows, weights) == rational_lll(rows, weights)


@given(
    st.integers(2, 3),
    st.integers(-30, 29).map(lambda k: 2 * k + 1),
    st.lists(st.integers(-20, 20), min_size=3, max_size=3),
    positive_fractions,
)
@settings(max_examples=200, deadline=None)
def test_integer_lll_rounds_half_to_even(d, odd, tail, weight):
    # b_0 = (2, 0, ...) and an odd first entry of b_1 give mu = odd / 2 exactly
    rows = [[2] + [0] * (d - 1), [odd] + tail[: d - 1]]
    if d == 3:
        rows.append(tail[1:] + [tail[0] or 1])
    assume(full_rank(rows))
    assert _lll(rows, [weight] * d) == rational_lll(rows, [weight] * d)


def test_integer_lll_half_integer_example():
    # mu = 1/2 rounds to 0; rounding half up would end at [(-1, 1), (1, 1)]
    assert _lll([[2, 0], [1, 1]], [1, 1]) == [[1, 1], [1, -1]]
    assert rational_lll([[2, 0], [1, 1]], [1, 1]) == [[1, 1], [1, -1]]


def test_integer_lll_lovasz_tie():
    # |b*_1|^2 = 2 = (3/4 - (1/2)^2) |b*_0|^2: the Lovasz test holds with equality, no swap
    assert _lll([[2, 0], [1, 1]], [1, 2]) == [[2, 0], [1, 1]]
    assert rational_lll([[2, 0], [1, 1]], [1, 2]) == [[2, 0], [1, 1]]


@given(
    st.integers(2, 3),
    st.sampled_from(PRIMES[-40:] + [65537, 1000003, 999999937, 10**9 + 7]),
    st.integers(1, 2**64),
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 6), st.integers(0, 2**40), st.integers(0, 2**40)),
        min_size=3,
        max_size=3,
    ),
)
@settings(max_examples=150, deadline=None)
def test_swap_updates_match_full_gram_schmidt(d, q, c, widths):
    # congruence lattices with primal and dual weights, as the minima reduce them
    lat = CongruenceLattice(tuple(1 + (c * (i + 3)) % (q - 1) for i in range(d)), q)
    w = [width(*x) for x in widths[:d]]
    swap = lattice._swap

    def checked_swap(basis, dd, lam, k):
        swap(basis, dd, lam, k)
        assert (dd, lam) == integral_gso(basis, weights)

    for rows, weights in (
        (lat.basis(), [1 / (wi * wi) for wi in w]),
        (dual_integer_basis(lat), [wi * wi for wi in w]),
    ):
        with mock.patch.object(lattice, "_swap", checked_swap):
            reduced = _lll(rows, weights)
        assert reduced == rational_lll(rows, weights)


@given(
    st.integers(2, 3).flatmap(
        lambda d: st.tuples(
            st.integers(0, 40).flatmap(
                lambda bits: st.lists(
                    st.lists(st.integers(-(2**bits), 2**bits), min_size=d, max_size=d),
                    min_size=d + 3,
                    max_size=d + 12,
                )
            ),
            st.integers(0, d - 1),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_independent_rows_match_scalar_oracle(case):
    # coordinates up to 2^40: minors and triple products on both sides of 2^63
    rows, n_chosen = case
    chosen, cands = rows[:n_chosen], rows[n_chosen:]
    assume(all(independent(chosen[:i], chosen[i]) for i in range(n_chosen)))
    mask = _independent_rows(chosen, np.array(cands, dtype=np.int64))
    assert mask.tolist() == [independent(chosen, c) for c in cands]


def test_independent_rows_when_a_minor_is_two_to_the_64():
    # int64 products would wrap these nonzero minors to 0
    big = 2**32
    assert _independent_rows([[big, 0]], np.array([[0, big], [big, 0]])).tolist() == [True, False]
    chosen = [[1, 0, 0], [0, big, 0]]
    assert _independent_rows(chosen, np.array([[0, 0, big], [3, 0, 0]])).tolist() == [True, False]


def width(scale_bits, value, jitter_num, jitter_den):
    """A half-width near value whose numerator and denominator are near 2^scale_bits."""
    scale = 1 << scale_bits
    return Fraction(value * scale + jitter_num % scale, scale + jitter_den % scale)


def outcome(fn, lat, box, budget=10**5):
    try:
        return fn(lat, box, budget=budget)
    except (BudgetExceededError, CapacityError) as exc:
        return type(exc)


def assert_matches_oracle(fn, oracle, lat, box):
    """fn at budget 10^5 equals the oracle at 10^7 wherever it returns, and
    raises only where the oracle at 10^5 raises too."""
    got = outcome(fn, lat, box)
    if got is BudgetExceededError:
        assert outcome(oracle, lat, box) is BudgetExceededError
    else:
        assert got == oracle(lat, box, budget=10**7)


@given(
    st.integers(2, 3),
    st.sampled_from(PRIMES),
    st.integers(1, 2**64),
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 6), st.integers(0, 2**40), st.integers(0, 2**40)),
        min_size=3,
        max_size=3,
    ),
)
@settings(max_examples=120, deadline=None)
def test_minima_match_oracles(d, q, c, widths):
    # numerators and denominators near 2^0 .. 2^40: scaled norms on both sides of 2^63
    coeffs = tuple(1 + (c * (i + 3)) % (q - 1) for i in range(d)) if q > 2 else (1,) * d
    lat = CongruenceLattice(coeffs, q)
    box = BoxBody(tuple(width(*w) for w in widths[:d]))
    assert_matches_oracle(successive_minima, oracle_successive_minima, lat, box)
    assert_matches_oracle(dual_minima, oracle_dual_minima, lat, box)


@pytest.mark.parametrize("bits", [8, 40])
def test_minima_scaled_norms_across_word_boundary(bits):
    q = 1009
    lat = CongruenceLattice((1, 17, 40), q)
    box = BoxBody(tuple(width(bits, v, 7 * v + 1, 3 * v) for v in (2, 3, 5)))
    primal, dual = successive_minima(lat, box), dual_minima(lat, box)
    assert primal == oracle_successive_minima(lat, box)
    assert dual == oracle_dual_minima(lat, box)
    P = math.lcm(*(w.numerator for w in box.half_widths))
    R = math.lcm(*(w.denominator for w in box.half_widths))
    # the scaled norms of the witnesses: below 2^63 at 8 bits, above it at 40 bits
    primal_top = max(lam * P for lam in primal.lambdas)
    dual_top = max(lam * q * R for lam in dual.lambdas)
    assert (primal_top < 2**63) == (dual_top < 2**63) == (bits == 8)


@given(st.integers(2, 3), st.sampled_from(PRIMES[:60]), st.integers(1, 2**64),
       st.lists(st.fractions(Fraction(1, 4), 12, max_denominator=5), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_dual_budget_boundary_matches_oracle(d, q, c, widths):
    # the budget counts the outer box plus the exact lifts of each tuple: T passes, T - 1 raises
    coeffs = tuple(1 + (c * (i + 3)) % (q - 1) for i in range(d)) if q > 2 else (1,) * d
    lat, box = CongruenceLattice(coeffs, q), BoxBody(tuple(widths[:d]))
    assume(not box.degenerate)
    total = dual_candidate_count(lat, box)
    assert dual_minima(lat, box, budget=total) == oracle_dual_minima(lat, box)
    with pytest.raises(BudgetExceededError):
        dual_minima(lat, box, budget=total - 1)


def test_dual_minima_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        dual_minima(CongruenceLattice((1, 3), 5), BoxBody((2, 2, 2)))


def peak_mib(fn, *args):
    tracemalloc.start()
    try:
        try:
            result = fn(*args)
        except BudgetExceededError as exc:
            result = exc
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_dual_minima_large_q_is_sized_by_the_box():
    q = 10**7 + 19
    result, peak = peak_mib(dual_minima, CongruenceLattice((1, 3), q), BoxBody((5, 7)))
    assert result.lambdas == (Fraction(26, q), Fraction(16666707, q))
    assert peak < 8


def test_dual_minima_budget_at_large_q():
    result, peak = peak_mib(dual_minima, CongruenceLattice((1, 3), 10**8 + 7), BoxBody((5, 7)))
    assert isinstance(result, BudgetExceededError)
    assert peak < 8


@contextmanager
def kernel_arrays():
    """Record (rows, dtype) of every array the reduced-basis kernel yields."""
    kernel, arrays = lattice._basis_points, []

    def recorded(*args):
        for pts in kernel(*args):
            arrays.append((len(pts), pts.dtype))
            yield pts

    with mock.patch.object(lattice, "_basis_points", recorded):
        yield arrays


def test_minima_large_q_is_sized_by_the_box():
    # one short vector (-3, 1), and about 4.8 * 10^6 candidates inside the second radius
    q = 10**7 + 19
    result, peak = peak_mib(successive_minima, CongruenceLattice((1, 3), q), BoxBody((5, 7)))
    # lambda_2 is the best (q - 3y, y): |q - 3y| / 5 = y / 7 at y = 7q/26, rounded up
    assert result.lambdas == (Fraction(3, 5), Fraction(2692313, 7))
    assert result.witnesses == ((-3, 1), (-1923080, -2692313))
    assert peak < 8


def test_refused_minima_expand_no_block():
    # the lifts of every block are counted before any is expanded and scored
    with mock.patch.object(lattice, "_greedy_minima", side_effect=AssertionError("expanded")):
        with pytest.raises(BudgetExceededError) as refused:
            successive_minima(CongruenceLattice((1, 2, 3), 100003), BoxBody((100, 100, 100)))
    assert str(refused.value) == "enumeration volume 91839 plus 29568180 lifts exceeds budget 10000000"


@given(
    st.integers(2, 3),
    st.sampled_from(PRIMES),
    st.integers(1, 2**64),
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 6), st.integers(0, 2**40), st.integers(0, 2**40)),
        min_size=3,
        max_size=3,
    ),
)
@settings(max_examples=150, deadline=None)
def test_dual_basis_is_the_adjugate_transpose(d, q, c, widths):
    # adj(B)^T of the reduced primal basis B and the dual's own basis span one lattice
    coeffs = tuple(1 + (c * (i + 3)) % (q - 1) for i in range(d)) if q > 2 else (1,) * d
    lat = CongruenceLattice(coeffs, q)
    reduced = _lll(lat.basis(), [1 / (width(*x) ** 2) for x in widths[:d]])
    adj, det = lattice._adjugate(reduced)
    assert det == q
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*adj)] for row in reduced]
    assert product in ([[q * (i == j) for j in range(d)] for i in range(d)],
                       [[-q * (i == j) for j in range(d)] for i in range(d)])
    dual = [list(col) for col in zip(*adj)]
    ref = dual_integer_basis(lat)
    for a, b in ((dual, ref), (ref, dual)):  # a = X . b with X integral
        X = [[sum(x * y for x, y in zip(row, col)) for col in zip(*inverse(b))] for row in a]
        assert all(x.denominator == 1 for row in X for x in row)


@given(
    st.integers(2, 3),
    st.sampled_from(PRIMES[:80]),
    st.integers(1, 2**64),
    st.lists(st.fractions(Fraction(1, 4), 12, max_denominator=5), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_minima_object_route_matches_oracles(d, q, c, widths):
    # with the word cap at 2 every coordinate, bound and score goes to object arrays
    coeffs = tuple(1 + (c * (i + 3)) % (q - 1) for i in range(d)) if q > 2 else (1,) * d
    lat, box = CongruenceLattice(coeffs, q), BoxBody(tuple(widths[:d]))
    with mock.patch.object(lattice, "_WORD_CAP", 2), kernel_arrays() as arrays:
        assert_matches_oracle(successive_minima, oracle_successive_minima, lat, box)
        assert_matches_oracle(dual_minima, oracle_dual_minima, lat, box)
    assert all(dtype == object for _, dtype in arrays)


def valid_minima(result, norm, member):
    """Witnesses in the lattice, independent, with norms equal to the ascending lambdas."""
    wits = [list(v) for v in result.witnesses]
    assert all(member(v) for v in wits)
    assert all(independent(wits[:i], wits[i]) for i in range(len(wits)))
    assert [norm(v) for v in wits] == list(result.lambdas) == sorted(result.lambdas)


@given(
    st.integers(2, 3),
    st.sampled_from([2**31 - 1, 2147483659, 2**61 - 1]),
    st.integers(1, 2**64),
    st.lists(
        st.tuples(st.sampled_from([0, 1, 2, 8, 31, 62, 63, 64, 65]), st.integers(0, 2**65), st.integers(1, 4)),
        min_size=3,
        max_size=3,
    ),
)
@settings(max_examples=80, deadline=None)
def test_minima_at_large_q_are_exact_or_refused(d, q, c, widths):
    # half-widths from 1 to 2^64 at q near 2^31 and 2^61: c . B products, bounds
    # and scores on both sides of 2^63 go to object arrays or raise, never wrap
    coeffs = tuple(1 + (c * (i + 3)) % (q - 1) for i in range(d))
    lat = CongruenceLattice(coeffs, q)
    box = BoxBody(tuple(Fraction(1 + v % (1 << bits), den) for bits, v, den in widths[:d]))
    primal = outcome(successive_minima, lat, box, 10**4)
    dual = outcome(dual_minima, lat, box, 10**4)
    assert CapacityError not in (primal, dual)
    expect = outcome(oracle_successive_minima, lat, box, 10**4)
    if expect is not BudgetExceededError:
        assert primal in (expect, BudgetExceededError)
    if primal is not BudgetExceededError:
        valid_minima(primal, lambda v: box_norm(box, v), lambda v: contains(lat, v))
    if dual is not BudgetExceededError:
        valid_minima(
            dual, lambda m: dual_norm(box, m) / q, lambda m: dual_contains(lat, [Fraction(x, q) for x in m])
        )
    if d == 2:
        expect = outcome(oracle_dual_minima_2d, lat, box, 10**4)
        if expect is not BudgetExceededError:
            assert dual in (expect, BudgetExceededError)


@pytest.mark.parametrize(
    "q, coeffs, widths",
    [
        (2**61 - 1, (1, 12345678901), (1, 2**64)),  # primal bound 2^64, dual bound 1.9 * 10^19
        (2**61 - 1, (1, 987654321987), (3, 2**63 + 7)),  # dual bound 3.8 * 10^18
    ],
)
def test_minima_past_the_word_match_oracles(q, coeffs, widths):
    # radius-box bounds past 2^62: the kernel's coordinates go to object arrays
    lat, box = CongruenceLattice(coeffs, q), BoxBody(widths)
    with kernel_arrays() as arrays:
        primal, dual = successive_minima(lat, box, 10**4), dual_minima(lat, box, 10**4)
    assert object in [dtype for _, dtype in arrays]
    assert primal == oracle_successive_minima(lat, box, 10**4)
    assert dual == oracle_dual_minima_2d(lat, box, 10**4)


@pytest.mark.parametrize("fn", [successive_minima, dual_minima])
def test_minima_past_the_word_at_q_near_2_to_the_31_are_refused(fn):
    # bounds past 2^62 at q = 2^31 - 1 leave about 2^31 lifts per outer tuple
    result, peak = peak_mib(fn, CongruenceLattice((1, 123456), 2**31 - 1), BoxBody((1, 2**64)))
    assert isinstance(result, BudgetExceededError) and "lifts exceeds budget" in str(result)
    assert peak < 8


@given(st.integers(0, 2**64), st.lists(st.integers(0, 2**64), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_mulmod_across_word_boundary(c, rs):
    # (q - 1)^2 < 2^63 up to q = 3037000500; both sides of it
    for q in (3037000493, 3037000507, 2**62 + 135):
        r = np.array([x % q for x in rs], dtype=np.int64)
        assert _mulmod(c % q, r, q).tolist() == [(c % q) * x % q for x in r.tolist()]


def test_dual_minima_above_word_residues():
    # q^2 > 2^63: the residues a_i * lambda go through Python ints
    q = 3037000507
    assert is_prime(q)
    lat, box = CongruenceLattice((1, 123456789), q), BoxBody((100, 300))
    res = dual_minima(lat, box)
    for lam, m in zip(res.lambdas, res.witnesses):
        assert dual_contains(lat, tuple(Fraction(x, q) for x in m))
        assert dual_norm(box, m) / q == lam
    assert res.lambdas == (Fraction(7895500, q), Fraction(16293600, q))


def case_dual_point_and_oracle(a, b, c, L, M, N, q):
    res = trichotomy_check(a, b, c, L, M, N, q)
    return res.case_dual_point, oracle_case_dual_point(a, b, c, L, M, N, q, res.point_count)


def test_case_dual_point_does_not_wrap():
    # K = 20039959905823: at lambda = 92050 an int64 bal * K = 460250 * K passes 2^63
    got, expect = case_dual_point_and_oracle(5, 7, 11, 10**13, 500, 500, 1000003)
    assert got is expect is False


def test_case_dual_point_threshold_past_word():
    # floor(4320 * MN / K) is past 2^63 and past q; LN = LM = 0 leave only lambda = 0
    q = 10**18 + 9
    assert is_prime(q)
    res = trichotomy_check(3, 5, 7, 0, 1, 3 * 10**15, q)
    assert 4320 * 3 * 10**15 // res.point_count >= 2**63
    assert res.case_dual_point is False


@pytest.mark.parametrize("q", [2, 3])
def test_case_dual_point_at_tiny_q(q):
    for a, b, c in product(range(1, q), repeat=3):
        for L, M, N in product(range(4), repeat=3):
            got, expect = case_dual_point_and_oracle(a, b, c, L, M, N, q)
            assert got == expect, (a, b, c, L, M, N, q)


def box_sides(regime):
    """(L, M, N) for a case-(iii) regime, in a random order."""
    if regime == "small":
        sides = st.tuples(*[st.integers(0, 12)] * 3)
    elif regime == "long":  # K large and 2 * B_f + 1 < q
        sides = st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1100, 6000))
    else:  # "wide": 4320 * MN and bal * K on both sides of 2^63, the box degenerate
        sides = st.tuples(st.just(0), st.integers(1, 3), st.integers(2**40, 2**61))
    return sides.flatmap(st.permutations).map(tuple)


@given(
    st.sampled_from(PRIMES),  # 2 and 3 included
    st.lists(st.integers(1, 2**64), min_size=3, max_size=3),
    st.sampled_from(["small", "long", "wide"]).flatmap(box_sides),
)
@settings(max_examples=150, deadline=None)
@example(1009, [1, 2, 3], (5, 5, 3000))  # 2 * B_f + 1 = 357 < q
@example(2999, [3, 5, 7], (0, 3, 2**61))  # bal * K and 4320 * MN past 2^63
@example(2003, [1687, 1299, 415], (2, 3928, 3763))  # two binding thresholds: the
@example(2999, [2911, 2601, 2414], (3605, 1, 3236))  # first hit is past r = 6
def test_case_dual_point_matches_scan(q, seeds, sides):
    a, b, c = (1 + x % (q - 1) for x in seeds)
    got, expect = case_dual_point_and_oracle(a, b, c, *sides, q)
    assert got == expect
    walk = lattice._residue_walk  # again with the residues in chunks of 7

    def walk_by_7(coeffs, q, bounds, step):
        return walk(coeffs, q, bounds, 7)

    with mock.patch.object(lattice, "_residue_walk", walk_by_7):
        assert trichotomy_check(a, b, c, *sides, q).case_dual_point == expect


@given(
    st.integers(2, 3),
    st.sampled_from([1, 2, 3, 7, 101]),
    st.integers(1, 2**64),
    st.lists(st.integers(0, 12), min_size=3, max_size=3),
    st.lists(st.fractions(Fraction(1, 4), 12, max_denominator=5), min_size=3, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_walks_across_chunk_boundaries(d, q, c, bounds, widths):
    # blocks of 7 free or outer tuples: pieces of one row, several rows, residue
    # chunks of 7, and reduced-basis candidates in arrays of at most 7
    coeffs = tuple(1 + (c * (i + 3)) % (q - 1) for i in range(d)) if q > 2 else (1,) * d
    lat, bounds, box = CongruenceLattice(coeffs, q), bounds[:d], BoxBody(tuple(widths[:d]))
    expect = sorted(oracle_box_points(lat, bounds))
    with mock.patch.object(lattice, "_CHUNK", 7), kernel_arrays() as arrays:
        for _, axes, res in lattice._primal_walk(lat, bounds, 10**7):
            assert len(res) == math.prod(map(len, axes)) <= 7
        assert count_points(lat, BoxBody(tuple(bounds))) == len(expect)
        assert sorted(map(tuple, box_points(lat, bounds).tolist())) == expect
        assert_matches_oracle(successive_minima, oracle_successive_minima, lat, box)
        assert_matches_oracle(dual_minima, oracle_dual_minima, lat, box)
        if d == 3 and q > 1:
            dual_point, scanned = case_dual_point_and_oracle(*coeffs, *bounds, q)
            assert dual_point == scanned
    assert arrays and max(n for n, _ in arrays) <= 7


@given(
    st.integers(2, 3),
    st.sampled_from([2, 3, 7, 101]),
    st.integers(1, 2**64),
    st.lists(st.integers(0, 40), min_size=3, max_size=3),
    st.integers(0, 300),
)
@settings(max_examples=80, deadline=None)
def test_box_points_budget_counts_the_lifts(d, q, c, bounds, budget):
    # the walk refuses a free volume above the budget, the lifts a point count above it
    coeffs = tuple(1 + (c * (i + 3)) % (q - 1) for i in range(d)) if q > 2 else (1,) * d
    lat, bounds = CongruenceLattice(coeffs, q), bounds[:d]
    points = len(oracle_box_points(lat, bounds))
    free = math.prod(sorted(2 * b + 1 for b in bounds)[:-1])
    if max(points, free) <= budget:
        assert len(box_points(lat, bounds, budget)) == points
    else:
        with pytest.raises(BudgetExceededError):
            box_points(lat, bounds, budget)


def test_box_points_huge_lift_count_raises_before_allocating():
    # 49 free tuples, each with about 7.2 * 10^14 lifts along the wide side
    result, peak = peak_mib(box_points, CongruenceLattice((860, 385, 1999), 2777), [3, 3, 10**18])
    assert isinstance(result, BudgetExceededError) and "lifted points" in str(result)
    assert peak < 8


def _no_minima(*args, **kwargs):
    raise AssertionError("trichotomy_check must not reach the minima route")


@pytest.mark.parametrize(
    "args, K, sparse, dual_point",
    [
        # 1.9 * 10^15 lifts along the wide side: case (ii) needs none of them
        ((860, 385, 1999, 878850195129962102, 3, 3, 2777), 31014518949490921, True, False),
        # the minima's radius boxes would hold 1.8 * 10^9 and 4.4 * 10^9 points
        ((1, 2, 3, 100, 100, 100, 100003), 13467, False, True),
        ((1, 1, 1, 4, 4, 4, 100003), 61, False, True),
    ],
    ids=["huge-lift-count", "q100003-box100", "q100003-box4"],
)
def test_trichotomy_returns_where_the_minima_cannot(args, K, sparse, dual_point):
    with mock.patch.object(lattice, "successive_minima", _no_minima), \
            mock.patch.object(lattice, "_lll", _no_minima):
        res = trichotomy_check(*args)
    assert res == lattice.TrichotomyResult(K, sparse, False, dual_point, False)


@st.composite
def small_trichotomy(draw):
    q = draw(st.integers(2, 19))
    units = [x for x in range(1, q) if math.gcd(x, q) == 1]
    a, b, c = (draw(st.sampled_from(units)) for _ in range(3))
    # narrow sides give K = 1 and the positives, wide ones boxes past q
    L, M, N = (draw(st.integers(1, 2) | st.integers(0, q + 2)) for _ in range(3))
    return a, b, c, L, M, N, q


@given(small_trichotomy())
@settings(max_examples=150, deadline=None)
@example((1, 2, 4, 1, 1, 1, 13))  # K = 1: no nonzero box point
@example((1, 1, 1, 0, 1, 1, 7))  # degenerate, though its 3 points are collinear
@example((7, 2, 6, 1, 1, 1, 11))  # positive: K = 3
@example((8, 1, 16, 3, 3, 1, 17))  # positive with K = 7 > 2 * (narrowest width) + 1
@example((10, 8, 7, 2, 2, 1, 13))  # negative with K = 5 <= 2 * w_2 + 1
@example((1, 1, 1, 2, 2, 9, 7))  # negative: the widest side is past q
def test_case_one_short_matches_the_box_walk(instance):
    with mock.patch.object(lattice, "successive_minima", _no_minima), \
            mock.patch.object(lattice, "_lll", _no_minima):
        got = trichotomy_check(*instance).case_one_short
    assert got == oracle_case_one_short(*instance)
    assert minima_case_one_short(*instance) in (got, None)


def test_count_points_past_int64():
    # 9 free tuples whose lift counts sum past 2^63: the count must not wrap
    b = 2**62
    expect = sum(len(range(-b, b + 1)[(-(x + y) - -b) % 3 :: 3]) for x in (-1, 0, 1) for y in (-1, 0, 1))
    assert expect > 2**63
    assert count_points(CongruenceLattice((1, 1, 1), 3), BoxBody((1, 1, b))) == expect
