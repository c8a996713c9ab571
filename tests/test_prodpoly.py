import hashlib
from functools import lru_cache
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modroots.prodpoly as prodpoly
from algebra_oracles import (
    _cyc_context,
    _cyc_mul,
    batch_values_mod,
    classic_square_poly,
    cyclotomic_poly,
    dict_product_poly,
    from_text,
    poly_add,
    poly_mul,
    poly_scale,
    poly_sub,
    screened_box_zeros_upto,
)
from modroots.errors import BudgetExceededError, CapacityError
from modroots.prodpoly import (
    IntPoly,
    count_box_zeros,
    count_box_zeros_upto,
    product_poly,
    to_text,
)
from modroots.rng import SplitMix64


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyc_int_arithmetic():
    # w^2 + w + 1 = 0 for k = 3
    phi, rows = _cyc_context(3)
    w = (0, 1)
    w2 = _cyc_mul(w, w, phi, rows)
    assert w2 == (-1, -1)
    assert tuple(a + b + c for a, b, c in zip(w2, w, (1, 0))) == (0, 0)
    assert _cyc_mul((1, 0), w, phi, rows) == w


def test_quartic_regression_against_classic_formula():
    F2 = product_poly(2)
    assert F2 == poly_scale(classic_square_poly(), -1)
    assert F2.evaluate((1, 0, 0, 0)) == 1


def test_construction_shape():
    for k in (2, 3, 4):
        F = product_poly(k)
        assert F.homogeneous_degree() == k * k
    with pytest.raises(CapacityError):
        product_poly(9)
    with pytest.raises(CapacityError, match=f"k={prodpoly.DEFAULT_K_CAP + 1} above construction cap"):
        product_poly(prodpoly.DEFAULT_K_CAP + 1)
    with pytest.raises(ValueError):
        product_poly(1)


def test_trivial_vanishing_at_all_ones():
    for k in (2, 3, 4):
        assert product_poly(k).evaluate((1, 1, 1, 1)) == 0


def test_cube_example():
    F3 = product_poly(3)
    assert F3.evaluate((1, 8, 1, 8)) == 0


def test_vanishing_on_power_tuples_with_modulus():
    rng = SplitMix64(6)
    for k in (2, 3, 4):
        F = product_poly(k)
        for _ in range(40):
            x1, x2, x3 = (rng.randint(1, 30) for _ in range(3))
            x4 = x1 + x2 - x3
            if x4 == 0:
                x4 = 1
                x3 = x1 + x2 - 1
            tup = tuple(x**k for x in (x1, x2, x3, x4))
            assert F.evaluate(tup) == 0
            m = rng.randint(2, 10**6)
            assert F.evaluate(tup, mod=m) == 0


def test_nonvanishing_generic():
    F3 = product_poly(3)
    assert F3.evaluate((1, 2, 3, 7)) != 0
    assert F3.evaluate((8, 1, 27, 64)) != 0  # 2 - 1 != 3 - 4 under the + convention


def test_homogeneity_scaling():
    rng = SplitMix64(13)
    for k in (2, 3, 4):
        F = product_poly(k)
        for _ in range(10):
            n = tuple(rng.randint(1, 9) for _ in range(4))
            j = rng.randint(2, 7)
            assert F.evaluate(tuple(j * x for x in n)) == j ** (k * k) * F.evaluate(n)


def test_batch_values_match_scalar():
    F3 = product_poly(3)
    rng = SplitMix64(44)
    cols = [np.array([rng.randint(1, 50) for _ in range(200)], dtype=np.int64) for _ in range(4)]
    p = 999_999_937
    got = batch_values_mod(F3, cols, p)
    for i in range(0, 200, 37):
        n = tuple(int(c[i]) for c in cols)
        assert int(got[i]) == F3.evaluate(n, mod=p)


def test_zero_counts_small():
    counts = count_box_zeros_upto(3, 4)
    assert counts[0] == 1
    assert counts[1] == 6
    # brute force oracle at N = 2 and N = 3
    F3 = product_poly(3)
    for N in (2, 3):
        brute = sum(
            1 for tup in iproduct(range(1, N + 1), repeat=4) if F3.evaluate(tup) == 0
        )
        assert counts[N - 1] == brute
    assert count_box_zeros(3, 4) == counts[-1]


def test_zero_counts_diagonal_lower_bound():
    counts = count_box_zeros_upto(3, 12)
    for n in range(1, 13):
        assert counts[n - 1] >= 2 * n * n - n


def test_first_nondiagonal_zero_appears_at_27():
    # 1 + 3 = 2 + 2 on cube-free part 1: (1, 27, 8, 8) and its mirror images
    counts = count_box_zeros_upto(3, 28)
    for n in range(1, 27):
        assert counts[n - 1] == 2 * n * n - n
    assert counts[26] == 2 * 27 * 27 - 27 + 4
    F3 = product_poly(3)
    assert F3.evaluate((1, 27, 8, 8)) == 0


def test_zero_count_budget():
    with pytest.raises(BudgetExceededError):
        count_box_zeros(3, 100, budget=10**4)


def test_congruence_zero_equals_exact_zero_at_large_modulus():
    # when q dominates the value bound, mod-q vanishing pins exact vanishing
    F3 = product_poly(3)
    q = 2**61 - 1
    for tup in iproduct(range(1, 4), repeat=4):
        assert (F3.evaluate(tup, mod=q) == 0) == (F3.evaluate(tup) == 0)


def test_text_round_trip():
    for k in (2, 3):
        F = product_poly(k)
        text = to_text(F)
        assert from_text(text) == F
        lines = text.splitlines()
        assert all(len(line.split()) == 5 for line in lines)
        assert lines == sorted(lines, key=lambda l: tuple(int(x) for x in l.split()[:4]))


def test_int_poly_algebra():
    U = IntPoly.of({(1, 0, 0, 0): 1})
    V = IntPoly.of({(0, 1, 0, 0): 1})
    assert poly_sub(poly_add(U, V), U) == V
    assert poly_mul(U, V).evaluate((3, 5, 0, 0)) == 15
    assert poly_scale(U, 4).evaluate((2, 0, 0, 0)) == 8
    assert U.evaluate((3, 5, 0, 0), mod=1) == 0
    for mod in (0, -7):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            U.evaluate((3, 5, 0, 0), mod=mod)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_array_expansion_matches_dict_routes(k):
    F = product_poly(k)
    assert F == dict_product_poly(k)
    if k <= 3:
        assert F == dict_product_poly(k, full=True)


def test_k5_matches_the_dense_expansion_digest():
    # the dict oracle takes over a minute at k = 5; the digest is the dense expansion's
    text = to_text(product_poly(5))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e29f829a7bad6898d04058d12ab218fbe7f3bf0b04f06c213292ffd78edf428c"
    )


@lru_cache(maxsize=None)
def _screened(k, N):
    return tuple(screened_box_zeros_upto(k, N))


@given(st.integers(1, 28))
@settings(max_examples=12, deadline=None)
def test_zero_counts_match_full_screening_k3(N):
    assert count_box_zeros_upto(3, N) == list(_screened(3, 28)[:N])


@given(st.integers(1, 8))
@settings(max_examples=8, deadline=None)
def test_zero_counts_match_full_screening_k4(N):
    assert count_box_zeros_upto(4, N) == list(_screened(4, 8)[:N])


def test_expansion_assertions_fire(monkeypatch):
    real = prodpoly._grouped_values
    for k in (3, 4):
        _, spare = prodpoly._primes_for(prodpoly._coefficient_bound(k), k)

        def high_degree(k, p, w, b, c, d):
            # + b^(k^3) c^k = Y2^(k^2) Y3: Y-degree k^2 + 1 leaves a negative X1 exponent
            return (real(k, p, w, b, c, d) + prodpoly._power(b, k**3, p) * prodpoly._power(c, k, p)) % p

        def off_by_one_but_spare(k, p, w, b, c, d):
            # every CRT prime sees G + 1, the spare prime sees G
            return (real(k, p, w, b, c, d) + (p != spare)) % p

        for broken, message in (
            (high_degree, "not homogeneous"),
            (off_by_one_but_spare, f"disagrees with the product modulo the spare prime {spare}"),
        ):
            with monkeypatch.context() as m:
                m.setattr(prodpoly, "_grouped_values", broken)
                with pytest.raises(ArithmeticError, match=message):
                    prodpoly.product_poly.__wrapped__(k)
    # too few CRT primes rebuild wrong coefficients, which the spare prime sees
    monkeypatch.setattr(prodpoly, "_coefficient_bound", lambda k: 1)
    with pytest.raises(ArithmeticError, match="modulo the spare prime"):
        prodpoly.product_poly.__wrapped__(4)


def test_grouped_full_mismatch_raises(monkeypatch):
    monkeypatch.setattr(prodpoly, "_full_values", lambda k, p, w, b, c, d: np.ones_like(b))
    with pytest.raises(ArithmeticError, match="grouped and full expansions disagree"):
        prodpoly.product_poly.__wrapped__(3)


def test_crt_prime_count_covers_the_bound():
    for k in (2, 3, 4, 5):
        pool = [p for p in prodpoly._prime_pool() if (p - 1) % k == 0]
        for bound in (1, 2**30, 2**61, 2**62, 82**16, 244**25):
            primes, spare = prodpoly._primes_for(bound, k)
            assert [*primes, spare] == pool[: len(primes) + 1]  # the spare is outside the CRT set
            modulus = int(np.prod([int(p) for p in primes], dtype=object))
            assert modulus > 2 * bound + 1
            assert modulus // primes[-1] <= 2 * bound + 1  # no prime more than needed
    with pytest.raises(CapacityError):
        prodpoly._primes_for(2**40000, 5)
    primes, _ = prodpoly._primes_for(2**61, 2)
    residues = np.array([[p - 1, 1, 0] for p in primes], dtype=np.int64)
    assert prodpoly._crt(residues, primes) == [-1, 1, 0]


def test_pool_is_filled_on_demand(monkeypatch):
    full = [c << 20 | 1 for c in range(2047, 0, -2) if prodpoly.is_prime(c << 20 | 1)]
    assert prodpoly._prime_pool() == tuple(full)
    real, tested = prodpoly.is_prime, []

    def counted(n):
        tested.append(n)
        return real(n)

    for k, walked in ((2, 34), (3, 81)):  # the candidates up to the spare prime
        monkeypatch.setattr(prodpoly, "_POOL", [])
        monkeypatch.setattr(prodpoly, "_UNTESTED", iter(range(2047, 0, -2)))
        monkeypatch.setattr(prodpoly, "is_prime", counted)
        tested.clear()
        primes, spare = prodpoly._primes_for(prodpoly._coefficient_bound(k), k)
        assert tested == [c << 20 | 1 for c in range(2047, 2047 - 2 * walked, -2)]
        assert prodpoly._POOL == full[: len(prodpoly._POOL)] and prodpoly._POOL[-1] == spare
        assert prodpoly._primes_for(prodpoly._coefficient_bound(k), k) == (primes, spare)
        assert len(tested) == walked  # a second walk tests nothing
        assert prodpoly._prime_pool() == tuple(full)
        assert len(tested) == 1024


def test_interpolation_pieces():
    for k in (2, 3, 4, 5):
        primes, spare = prodpoly._primes_for(prodpoly._coefficient_bound(k), k)
        for p in (*primes, spare):
            w = prodpoly._root_of_unity(k, p)
            assert [pow(w, j, p) == 1 for j in range(1, k + 1)] == [False] * (k - 1) + [True]
            t, y = prodpoly._nodes(k, p)
            assert len(set(y.tolist())) == len(y) == k * k + 1
            assert y.tolist() == [pow(x, k, p) for x in t.tolist()]
            inv = prodpoly._vandermonde_inverse(y, p).tolist()
            vander = [[pow(x, e, p) for e in range(len(y))] for x in y.tolist()]
            for e, row in enumerate(inv):
                assert [sum(a * v[f] for a, v in zip(row, vander)) % p for f in range(len(y))] == [
                    int(f == e) for f in range(len(y))
                ]


def test_screen_prime_keeps_float_sums_exact():
    for k in (2, 3, 4, 5):
        p = prodpoly._screen_prime(k)
        assert prodpoly.is_prime(p)
        assert (k * k + 1) * p * p + p < 2**53
        # the next prime up would break the bound, up to a prime gap of 400
        assert (k * k + 1) * (p + 400) ** 2 + p + 400 >= 2**53 // 2
