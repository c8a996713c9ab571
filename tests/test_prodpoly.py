import numpy as np
import pytest

from modroots.errors import BudgetExceededError, CapacityError
from modroots.prodpoly import (
    IntPoly,
    _cyc_context,
    _cyc_mul,
    batch_values_mod,
    classic_square_poly,
    count_box_zeros,
    count_box_zeros_upto,
    cyclotomic_poly,
    from_text,
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
    assert F2 == -classic_square_poly()
    assert F2.evaluate((1, 0, 0, 0)) == 1


def test_construction_shape():
    for k in (2, 3, 4):
        F = product_poly(k)
        assert F.homogeneous_degree() == k * k
    with pytest.raises(CapacityError):
        product_poly(9)
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
    p = 2_130_706_433 if False else 1_114_112_001  # any modulus works; pick odd prime-ish
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
    from itertools import product as iproduct

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
    from itertools import product as iproduct

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
    assert (U + V - U) == V
    assert (U * V).evaluate((3, 5, 0, 0)) == 15
    assert U.scale(4).evaluate((2, 0, 0, 0)) == 8
