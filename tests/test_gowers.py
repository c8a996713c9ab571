import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import modroots.energy as energy
import modroots.gowers as gowers
from algebra_oracles import fourier_u2, full_cube_norm, full_shift_norm, rowwise_stack_energy, set_norms
from modroots.convolve import NAIVE_THRESHOLD
from modroots.energy import _pair_limit, energy_of
from modroots.errors import BudgetExceededError
from modroots.gowers import character_lemma_report, gowers_norm, shift_counts, shift_intersection
from modroots.modular import primes_in
from modroots.rng import SplitMix64
from modroots.sets import IndicatorSet


def test_shift_intersection_examples():
    A = IndicatorSet.of(7, [1, 3, 4, 6])
    assert shift_intersection(A, []) == A
    assert shift_intersection(A, [0]) == A
    # exhaustive: x in result iff x and x+2 are both in A
    expect = {x for x in A.members if (x + 2) % 7 in A.members}
    assert set(shift_intersection(A, [2]).members.tolist()) == expect == {1, 4, 6}


def test_gowers_norm_anchors():
    A = IndicatorSet.of(7, [1, 3, 4, 6])
    assert gowers_norm(A, 2) == 44
    Z5 = IndicatorSet.of(5, range(5))
    assert gowers_norm(Z5, 2) == 125
    assert gowers_norm(Z5, 3) == 625
    single = IndicatorSet.of(11, [4])
    for k in (1, 2, 3, 4):
        assert gowers_norm(single, k) == 1


def test_norm_equals_energy_cross_module():
    rng = SplitMix64(17)
    for _ in range(40):
        q = rng.choice([7, 11, 13, 17, 23])
        A = IndicatorSet(q, rng.subset(q, rng.randint(0, q)))
        assert gowers_norm(A, 2) == energy_of(A, 2)


def test_recursion_vs_cube_count_definition():
    # U^k literally counts (k+1)-dimensional parallelepipeds with vertices in A
    rng = SplitMix64(23)
    for _ in range(10):
        q = rng.choice([5, 7, 11])
        A = IndicatorSet(q, rng.subset(q, rng.randint(1, q)))
        members = A.members
        for k in (2, 3):
            count = 0
            from itertools import product

            for x0 in range(q):
                for xs in product(range(q), repeat=k):
                    if all(
                        (x0 + sum(e * x for e, x in zip(eps, xs))) % q in members
                        for eps in product((0, 1), repeat=k)
                    ):
                        count += 1
            assert gowers_norm(A, k) == count


def test_shift_count_identity():
    rng = SplitMix64(31)
    for _ in range(30):
        q = rng.choice([7, 13, 19, 29])
        A = IndicatorSet(q, rng.subset(q, rng.randint(0, q)))
        total = sum(shift_intersection(A, [s]).cardinality for s in range(q))
        assert total == A.cardinality**2


def test_char_lemmas_random_sets():
    rng = SplitMix64(41)
    for q in (31, 61):
        for _ in range(20):
            A = IndicatorSet(q, rng.subset(q, rng.randint(2, q)))
            rep = character_lemma_report(A, 2)
            assert rep.all_ok


def test_char_lemmas_full_group_and_singleton():
    Zq = IndicatorSet.of(11, range(11))
    rep = character_lemma_report(Zq, 2)
    assert rep.all_ok
    single = IndicatorSet.of(11, [3])
    rep1 = character_lemma_report(single, 2)
    assert rep1.all_ok and rep1.growth_ratio == 1.0 and rep1.energy_ratio == 1.0


def test_char_lemmas_empty_vacuous():
    rep = character_lemma_report(IndicatorSet(11, frozenset()), 2)
    assert rep.vacuous and rep.all_ok


def test_budget_and_cap():
    A = IndicatorSet.of(97, range(50))
    with pytest.raises(BudgetExceededError):
        gowers_norm(A, 4, budget=10**3)
    with pytest.raises(BudgetExceededError):
        gowers_norm(A, 9)


def test_budget_holds_the_folded_row_count():
    # (q//2 + 1)^(k-2) rows of 2^(k-2) shifts, scored over min(|A|^2, _pair_limit(q)) pairs
    A = IndicatorSet.of(97, range(50))
    assert gowers._work_estimate(A, 4) == 49**2 * (4 * 97 + min(50**2, _pair_limit(97)))
    for k in (1, 2, 3, 4):
        estimate = gowers._work_estimate(A, k)
        assert gowers_norm(A, k, budget=estimate) == set_norms(A, k)[0]
        with pytest.raises(BudgetExceededError):
            gowers_norm(A, k, budget=estimate - 1)


def _count_square_sum(row: np.ndarray, negate: bool) -> int:
    """E(B) of the row B as a Python int, from the pairs of B or, for B past q/2
    members, of its complement C: either count of B is that of C plus q - 2|C|."""
    q = len(row)
    big = 2 * np.count_nonzero(row) > q
    S = np.flatnonzero(~row if big else row)
    pairs = (S[:, None] + (q - S if negate else S)) % q
    counts = np.bincount(pairs.ravel(), minlength=q) + (q - 2 * len(S) if big else 0)
    return sum(c * c for c in counts.tolist())


@pytest.mark.parametrize("negate", [True, False])
@pytest.mark.parametrize("q, weight", [(61, 2**60), (2**21 + 1, 2)])
def test_stack_energy_past_the_word(q, weight, negate):
    # q = 2^21 + 1 makes E(Z_q) = q^3 pass 2^63 by itself; at q = 61 the weight does
    rng = np.random.default_rng(q)
    rows = np.zeros((4, q), dtype=bool)
    rows[0] = True
    rows[1] = True
    rows[1, rng.choice(q, 5, replace=False)] = False  # complement of a sparse set
    rows[2, rng.choice(q, 5, replace=False)] = True
    weights = np.array([weight, weight, 1, weight], dtype=np.int64)  # row 3 is empty
    expect = sum(w * _count_square_sum(row, negate) for row, w in zip(rows, weights.tolist()))
    assert expect >= 2**63
    assert gowers._stack_energy(rows, weights, negate) == expect


@st.composite
def _row_stacks(draw):
    """(rows, weights): up to 6 boolean rows mod q <= 37 or q in (512, 1100], of
    densities from empty to full, some past q/2 members, with weights up to 2^20."""
    q = draw(st.one_of(st.integers(1, 37), st.integers(NAIVE_THRESHOLD + 1, 1100)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    densities = draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.7, 1.0]), min_size=1, max_size=6))
    rows = np.array([rng.random(q) < p for p in densities])
    weights = draw(st.lists(st.integers(1, 2**20), min_size=len(rows), max_size=len(rows)))
    return rows, np.array(weights, dtype=np.int64)


@given(_row_stacks(), st.booleans(), st.sampled_from([None, 0]), st.sampled_from([1, 4096, 1 << 16]))
@settings(max_examples=60, deadline=None)
def test_stack_energy_matches_rowwise_oracle(stack, negate, pair_limit, batch):
    # pair_limit 0 makes every nonempty row dense, at q <= 37 too; a batch of 4096
    # holds two dense rows a block at q <= 1024 and one above, so dense blocks split
    rows, weights = stack
    patches = {"_PAIR_BATCH": batch}
    if pair_limit is not None:
        patches["_pair_limit"] = lambda q: pair_limit
    with mock.patch.multiple(energy, **patches):
        got = gowers._stack_energy(rows, weights, negate)
    assert got == rowwise_stack_energy(rows, weights, negate)


@given(st.integers(3, 19), st.integers(0, 2**62))
@settings(max_examples=30, deadline=None)
def test_u3_recursion_identity_property(q, seed):
    # U^3(A) = sum over s of U^2(A_s), with the sum restricted to s in A-A
    rng = SplitMix64(seed)
    A = IndicatorSet(q, rng.subset(q, rng.randint(0, q)))
    total = sum(
        energy_of(shift_intersection(A, [s]), 2) for s in range(q)
    )
    if A.cardinality:
        assert gowers_norm(A, 3) == total
    else:
        assert gowers_norm(A, 3) == 0


_PRIMES = primes_in(2, 20011)


@st.composite
def _subsets(draw, qmax=37):
    """Subsets of Z_q, q <= qmax, weighted towards the empty set, singletons and Z_q,
    and two large-q kinds: sparse sets mod a prime up to 20011, and sets mod
    q in (512, 1100] dense enough that their dense rows take the float FFT."""
    kind = draw(st.sampled_from(["empty", "singleton", "full", "random", "sparse", "mid-density"]))
    if kind == "sparse":
        q = draw(st.sampled_from(_PRIMES))
        return IndicatorSet(q, draw(st.sets(st.integers(0, q - 1), max_size=40)))
    if kind == "mid-density":
        q = draw(st.integers(NAIVE_THRESHOLD + 1, 1100))
        n = draw(st.integers(math.isqrt(_pair_limit(q)) + 1, q // 3))  # A itself is a dense row
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        return IndicatorSet(q, rng.choice(q, n, replace=False))
    q = draw(st.integers(1, qmax))
    if kind == "empty":
        return IndicatorSet(q, [])
    if kind == "singleton":
        return IndicatorSet(q, [draw(st.integers(0, q - 1))])
    if kind == "full":
        return IndicatorSet(q, range(q))
    return IndicatorSet(q, draw(st.sets(st.integers(0, q - 1))))


@given(_subsets(), st.integers(1, 4))
@example(IndicatorSet(37, range(37)), 4)
@example(IndicatorSet(37, range(0, 37, 2)), 4)
@example(IndicatorSet(36, [0, 1, 5, 11, 17, 30]), 4)
@settings(max_examples=90, deadline=None)
def test_array_routes_match_set_routes(A, k):
    k = min(k, 3) if A.q > 37 else k  # U^4 past q = 37 is beyond the set routes and the budget
    by_recursion, by_squares = set_norms(A, k)
    assert by_recursion == by_squares == gowers_norm(A, k)
    if A.cardinality:
        a = gowers._indicator(A)
        assert gowers._norm_by_shifts(a, k) == gowers._norm_by_cubes(a, k) == by_recursion


@given(_subsets(), st.integers(1, 4), st.one_of(st.none(), st.integers(1, 6)))
@example(IndicatorSet(1, [0]), 4, None)
@example(IndicatorSet(2, [0, 1]), 4, 1)
@example(IndicatorSet(2, [1]), 3, None)
@example(IndicatorSet(12, [0, 1, 6, 7, 9]), 4, None)  # s = q/2 is its own negative
@example(IndicatorSet(13, [0, 1, 3, 4, 9]), 4, 4)  # slices of 4 of the 7 half shifts
@example(IndicatorSet(1451, range(0, 1451, 7)), 3, None)  # default slices of 722 of 726
@settings(max_examples=60, deadline=None)
def test_folded_routes_match_unfolded_routes(A, k, per_slice):
    # per_slice shrinks _CHUNK to that many rows of length q, so a slice of
    # shifts can end past q//2 and must be cut there
    k = min(k, 3) if A.q > 37 else k
    a = gowers._indicator(A)
    chunk = gowers._CHUNK if per_slice is None else per_slice * A.q
    with mock.patch.object(gowers, "_CHUNK", chunk):
        expect = full_shift_norm(a, k)
        assert full_cube_norm(a, k) == expect
        assert gowers._norm_by_shifts(a, k) == gowers._norm_by_cubes(a, k) == expect


@given(_subsets())
@settings(max_examples=60, deadline=None)
def test_u2_matches_fourier_identity(A):
    assert gowers_norm(A, 2) == fourier_u2(A)


@given(_subsets())
@settings(max_examples=60, deadline=None)
def test_shift_counts_match_shift_intersections(A):
    counts = shift_counts(A)
    assert counts.dtype == np.int64 and counts.shape == (A.q,)
    expect = [shift_intersection(A, [s]).cardinality for s in range(A.q)]
    assert counts.tolist() == expect
    assert int(counts.sum()) == A.cardinality**2


def test_row_stacks_are_chunked(monkeypatch):
    # chunks far smaller than one stack still give the same norms
    A = IndicatorSet(29, range(0, 29, 2))
    expect = {k: gowers_norm(A, k) for k in (2, 3, 4)}
    monkeypatch.setattr(gowers, "_CHUNK", 64)
    assert {k: gowers_norm(A, k) for k in (2, 3, 4)} == expect


def test_route_mismatch_raises(monkeypatch):
    monkeypatch.setattr(gowers, "_norm_by_cubes", lambda a, k: 0)
    with pytest.raises(ArithmeticError, match="norm route mismatch"):
        gowers_norm(IndicatorSet.of(7, [1, 3]), 3)


def test_report_computes_each_norm_once(monkeypatch):
    calls = []
    real = gowers._gowers_norm  # every norm, U^(k+1) past the public cap included

    def counted(A, k, *args):
        calls.append(k)
        return real(A, k, *args)

    monkeypatch.setattr(gowers, "_gowers_norm", counted)
    A = IndicatorSet.of(31, range(0, 31, 3))
    for k, norms in ((2, [1, 2, 3]), (3, [2, 3, 4])):
        calls.clear()
        assert character_lemma_report(A, k).all_ok
        assert sorted(calls) == norms


def test_cap_is_the_module_constant():
    # the report at k = DEFAULT_K_CAP still computes U^(k+1), past the public cap
    A = IndicatorSet.of(11, [0, 1, 3, 7])
    k = gowers.DEFAULT_K_CAP
    with pytest.raises(BudgetExceededError, match=f"k={k + 1} above cap {k}"):
        gowers_norm(A, k + 1)
    with pytest.raises(BudgetExceededError, match=f"k={k + 1} above cap {k}"):
        character_lemma_report(A, k + 1)
    rep = character_lemma_report(A, k)
    top = gowers._gowers_norm(A, k + 1, gowers.DEFAULT_WORK_BUDGET)
    assert top == set_norms(A, k + 1)[0]
    assert rep.growth_ok and rep.energy_ok
