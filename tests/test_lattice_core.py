"""The integer lattice routes against the rational and per-lambda oracles."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from modroots import lattice
from modroots.errors import BudgetExceededError
from modroots.lattice import (
    BoxBody,
    CongruenceLattice,
    DualLattice,
    _independent_rows,
    _lll,
    _mulmod,
    dual_lattice,
    dual_minima,
    successive_minima,
)
from modroots.modular import is_prime, primes_in

from lattice_oracles import (
    dual_candidate_count,
    independent,
    integral_gso,
    oracle_dual_minima,
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
        (DualLattice(lat).integer_basis(), [wi * wi for wi in w]),
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


def outcome(fn, lat, box):
    try:
        return fn(lat, box, budget=10**5)
    except BudgetExceededError as exc:
        return type(exc)


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
    assert outcome(successive_minima, lat, box) == outcome(oracle_successive_minima, lat, box)
    assert outcome(dual_minima, lat, box) == outcome(oracle_dual_minima, lat, box)


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
    # the budget counts the same candidates as the per-lambda route: T passes, T - 1 raises
    coeffs = tuple(1 + (c * (i + 3)) % (q - 1) for i in range(d)) if q > 2 else (1,) * d
    lat, box = CongruenceLattice(coeffs, q), BoxBody(tuple(widths[:d]))
    assume(not box.degenerate)
    total = dual_candidate_count(lat, box)
    assert dual_minima(lat, box, budget=total) == oracle_dual_minima(lat, box, budget=total)
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
    dual = dual_lattice(lat)
    for lam, m in zip(res.lambdas, res.witnesses):
        assert dual.contains(tuple(Fraction(x, q) for x in m))
        assert box.dual_norm(m) / q == lam
    assert res.lambdas == (Fraction(7895500, q), Fraction(16293600, q))
