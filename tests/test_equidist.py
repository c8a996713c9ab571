import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from modroots.equidist import (
    DiscrepancyResult,
    PointMultiset,
    discrepancy,
    prime_roots_discrepancy,
    prime_roots_envelope,
    prime_roots_ratio,
)
from modroots.modular import primes_in
from modroots.rng import SplitMix64

from residue_oracles import tonelli_shanks


def pair_scan(P: PointMultiset) -> DiscrepancyResult:
    """The O(m^2) Fraction scan over every critical interval, in witness order."""
    m = len(P.values)
    N = P.size
    if m == 0:
        return DiscrepancyResult(Fraction(0), "empty")
    vals = P.values
    prefix = [0]
    for c in P.mults:
        prefix.append(prefix[-1] + c)
    total = prefix[-1]
    best = Fraction(0)
    witness = "trivial"
    for i in range(m):
        for j in range(i, m):
            ex = (prefix[j + 1] - prefix[i]) - N * (vals[j] - vals[i])
            if ex > best:
                best, witness = ex, f"excess [{vals[i]}, {vals[j]}+)"
    for i in range(m):
        for j in range(i + 1, m):
            de = N * (vals[j] - vals[i]) - (prefix[j] - prefix[i + 1])
            if de > best:
                best, witness = de, f"deficit ({vals[i]}, {vals[j]})"
    for j in range(m):
        de = N * vals[j] - prefix[j]
        if de > best:
            best, witness = de, f"deficit [0, {vals[j]})"
    for i in range(m):
        de = N * (1 - vals[i]) - (total - prefix[i + 1])
        if de > best:
            best, witness = de, f"deficit ({vals[i]}, 1)"
    return DiscrepancyResult(best, witness)


def oracle_prime_roots(q, P):
    """The per-prime Fraction loop over Tonelli-Shanks roots, gathered by PointMultiset.of."""
    points = []
    certs = []
    for p in primes_in(2, P) if P >= 2 else []:
        for x in tonelli_shanks(p, q):
            points.append(Fraction(x, q))
            certs.append((x, p))
    ms = PointMultiset.of(points)
    return ms, certs, discrepancy(ms)


def grid_oracle(ms: PointMultiset, refine=Fraction(1, 10**6)) -> Fraction:
    """Brute-force sup over a rational grid refined around every point."""
    N = ms.size
    if N == 0:
        return Fraction(0)
    cands = {Fraction(0), Fraction(1)}
    for v in ms.values:
        cands.update((v, v + refine, max(Fraction(0), v - refine)))
    cands = sorted(c for c in cands if 0 <= c <= 1)
    best = Fraction(0)
    for a, b in itertools.combinations(cands, 2):
        cnt = sum(m for v, m in zip(ms.values, ms.mults) if a <= v < b)
        best = max(best, abs(cnt - N * (b - a)))
    return best


def test_examples():
    assert discrepancy(PointMultiset.of([Fraction(1, 2)])).value == 1
    assert discrepancy(PointMultiset.of([])).value == 0
    r = discrepancy(PointMultiset.of([Fraction(3, 7), Fraction(4, 7)]))
    assert r.value == Fraction(12, 7)


def test_multiset_multiplicity():
    ms = PointMultiset.of([Fraction(1, 3)] * 4)
    assert ms.size == 4
    assert discrepancy(ms).value == 4


def test_input_validation():
    with pytest.raises(ValueError):
        PointMultiset.of([Fraction(3, 2)])
    with pytest.raises(ValueError):
        PointMultiset.of([Fraction(-1, 7)])
    with pytest.raises(ValueError):
        PointMultiset.of([Fraction(1)])
    with pytest.raises(ValueError):
        PointMultiset.of([1])


def test_reflection_invariance():
    rng = SplitMix64(31)
    for _ in range(40):
        n = rng.randint(1, 15)
        pts = [Fraction(rng.randint(0, 96), 97) for _ in range(n)]
        direct = discrepancy(PointMultiset.of(pts)).value
        # reflect p -> 1 - p, mapping 0 to 0 (stay inside [0,1))
        reflected = [1 - p if p != 0 else Fraction(0) for p in pts]
        assert discrepancy(PointMultiset.of(reflected)).value == direct


def test_duplicate_recomputation_consistency():
    pts = [Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)]
    v1 = discrepancy(PointMultiset.of(pts)).value
    v2 = discrepancy(PointMultiset.of(list(pts))).value
    assert v1 == v2


def test_grid_oracle_agreement():
    rng = SplitMix64(77)
    refine = Fraction(1, 10**6)
    for _ in range(60):
        n = rng.randint(1, 20)
        den = rng.choice([37, 41, 53, 64, 100])
        pts = [Fraction(rng.randint(0, den - 1), den) for _ in range(n)]
        ms = PointMultiset.of(pts)
        exact = discrepancy(ms).value
        grid = grid_oracle(ms, refine)
        assert grid <= exact
        assert exact - grid <= (2 * n + 2) * refine


def test_gamma_anchors():
    res = prime_roots_discrepancy(7, 5)
    assert [(v, m) for v, m in zip(res.points.values, res.points.mults)] == [
        (Fraction(3, 7), 1),
        (Fraction(4, 7), 1),
    ]
    assert res.value == Fraction(12, 7)
    assert prime_roots_discrepancy(5, 4).value == 0
    assert prime_roots_discrepancy(7, 1).value == 0


def test_gamma_certificates():
    res = prime_roots_discrepancy(101, 50)
    assert res.points.size == len(res.certificates)
    for x, p in res.certificates:
        assert (x * x - p) % 101 == 0
        assert p <= 50


def test_gamma_includes_p_equal_q():
    # p = q contributes the root 0 with point 0
    res = prime_roots_discrepancy(7, 7)
    assert Fraction(0) in res.points.values


def test_export_lines():
    res = prime_roots_discrepancy(7, 5)
    assert res.points.export_lines() == "3 7 1\n4 7 1"


def test_ratio():
    r = prime_roots_ratio(7, 5)
    assert r == pytest.approx(float(Fraction(12, 7)) / prime_roots_envelope(7, 5))
    assert prime_roots_ratio(7, 1) == 0
    with pytest.raises(ValueError):
        prime_roots_ratio(7, 0)


@given(st.integers(0, 2**62))
@settings(max_examples=25, deadline=None)
def test_permutation_invariance(seed):
    rng = SplitMix64(seed)
    n = rng.randint(1, 10)
    pts = [Fraction(rng.randint(0, 28), 29) for _ in range(n)]
    shuffled = sorted(pts, key=lambda _: rng.next64())
    assert discrepancy(PointMultiset.of(pts)).value == discrepancy(PointMultiset.of(shuffled)).value


def _points(denominators):
    """Points num/den with den drawn from `denominators`, num anywhere in [0, den)."""
    return st.lists(
        st.sampled_from(denominators).flatmap(
            lambda d: st.builds(Fraction, st.sampled_from([0, 1, d // 2, d - 1]) | st.integers(0, d - 1),
                                st.just(d))
        ),
        max_size=24,
    )


@given(_points([2, 3, 4, 5, 6]))
@settings(max_examples=200, deadline=None)
def test_scan_matches_pair_scan_small_denominators(pts):
    # few distinct values: repeated points and tied maxima in every category
    ms = PointMultiset.of(pts)
    assert discrepancy(ms) == pair_scan(ms)


@given(_points([7, 12, 97, 101, 1024]))
@settings(max_examples=200, deadline=None)
def test_scan_matches_pair_scan_mixed_denominators(pts):
    ms = PointMultiset.of(pts + pts[: len(pts) // 3])
    assert discrepancy(ms) == pair_scan(ms)


@given(_points([2**61 - 1, 2**62 + 1, 3**40]))
@settings(max_examples=60, deadline=None)
def test_scan_matches_pair_scan_beyond_int64(pts):
    # 2 * size * lcm(denominators) passes 2^63: the scan runs on exact Python ints
    ms = PointMultiset.of(pts)
    assert discrepancy(ms) == pair_scan(ms)


def test_witness_order_on_ties():
    # {1/4, 3/4}: the excess of either single point and the deficit of the
    # middle gap all equal 1; the first cluster in (i, j) order is reported
    ms = PointMultiset.of([Fraction(1, 4), Fraction(3, 4)])
    assert discrepancy(ms) == pair_scan(ms) == DiscrepancyResult(Fraction(1), "excess [1/4, 1/4+)")
    ms = PointMultiset.of([Fraction(0), Fraction(0), Fraction(1, 2)])
    assert discrepancy(ms) == pair_scan(ms)


def test_prime_roots_scan_matches_pair_scan():
    for q, P in ((101, 40), (1009, 251), (4999, 912)):
        ms = prime_roots_discrepancy(q, P).points
        assert discrepancy(ms) == pair_scan(ms)


_SMALL_PRIMES = primes_in(2, 2 * 10**4)


@st.composite
def _prime_and_bound(draw):
    # q = 3 (mod 4) reads no digit of the 2-Sylow logarithm in root_rows, q = 1 (mod 8) two or more
    residue, modulus = draw(st.sampled_from([(3, 4), (1, 8), (5, 8), (2, 2**20)]))
    q = draw(st.sampled_from([p for p in _SMALL_PRIMES if p % modulus == residue]))
    return q, draw(st.integers(-1, 3 * q))


@given(_prime_and_bound())
@example((2, 5))
@example((7, 7))  # p = q: the root 0
@example((17, 51))  # q = 1 (mod 8), and past q the primes repeat residues
@example((19997, 59991))
@example((2147483659, 300))  # root_rows on object arrays
@example((2**61 - 1, 300))
@settings(max_examples=60, deadline=None)
def test_prime_roots_match_fraction_oracle(qP):
    q, P = qP
    res = prime_roots_discrepancy(q, P)
    ms, certs, expected = oracle_prime_roots(q, P)
    assert res.points.denom == q and res.points.nums.dtype == np.int64
    assert res.points.values == ms.values
    assert res.points.mults.tolist() == ms.mults.tolist()
    assert res.certificates.dtype == np.int64 and res.certificates.shape == (len(certs), 2)
    assert [tuple(c) for c in res.certificates.tolist()] == certs
    assert res.result == expected
    assert res.points.export_lines() == "\n".join(
        f"{v.numerator} {v.denominator} {m}" for v, m in zip(ms.values, ms.mults.tolist())
    )
    if len(ms.values) <= 60:
        assert res.result == pair_scan(ms)
