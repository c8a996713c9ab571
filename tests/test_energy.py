from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import modroots.energy as energy
from modroots.convolve import _padded_length, cyclic_convolve
from modroots.energy import (
    EnergyQuery,
    difference_rep,
    energy_of,
    max_energy_over_j,
    power_coset_reps,
    prime_averaged_energy,
    set_energy,
    sum_rep,
    tuple_energy,
)
from modroots.modular import preimage_set
from modroots.rng import SplitMix64
from modroots.sets import IndicatorSet

from residue_oracles import all_j_max_energy, pair_energy


def brute_force_tuple_energy(A, nu):
    """O(|A|^(2 nu)) enumeration; only for tiny sets."""
    members = sorted(A.members)
    q = A.q
    count = 0

    def sums(depth):
        if depth == 0:
            return [0]
        smaller = sums(depth - 1)
        return [(s + a) % q for s in smaller for a in members]

    left = sums(nu)
    from collections import Counter

    c = Counter(left)
    return sum(v * v for v in c.values())


def test_diff_rep_examples():
    A = IndicatorSet.of(7, [1, 3, 4, 6])
    d = difference_rep(A)
    assert d[0] == 4
    assert d.total() == 16
    assert d[2] == 3
    empty = difference_rep(IndicatorSet(7, frozenset()))
    assert all(c == 0 for c in empty.counts)


@given(st.integers(3, 40), st.integers(0, 2**62))
@settings(max_examples=50, deadline=None)
def test_diff_rep_mass_and_symmetry(q, seed):
    rng = SplitMix64(seed)
    size = rng.randint(0, q)
    A = IndicatorSet(q, rng.subset(q, size))
    d = difference_rep(A)
    assert d.total() == A.cardinality**2
    assert d[0] == A.cardinality
    for x in range(q):
        assert d[x] == d[-x]


def test_energy_anchor_44_brute_force():
    A = preimage_set(1, 2, 3, 7)
    assert tuple_energy(EnergyQuery(2, 2, 3, 1, 7)) == 44
    assert brute_force_tuple_energy(A, 2) == 44


def test_energy_examples():
    assert tuple_energy(EnergyQuery(2, 2, 1, 3, 7)) == 0
    assert tuple_energy(EnergyQuery(2, 2, 7, 1, 7)) == 186
    q = 7
    assert (q - 1) ** 2 + (q - 1) * (q - 2) ** 2 == 186


def test_set_energy_examples():
    assert set_energy(IndicatorSet.of(7, [1, 2]), 2, 7) == 44
    assert set_energy(IndicatorSet(7, frozenset()), 2, 7) == 0
    assert set_energy(IndicatorSet.of(7, [1, 2]), 1, 7) == 6


@given(st.integers(3, 31), st.integers(0, 2**62))
@settings(max_examples=40, deadline=None)
def test_sum_diff_energy_identity(q, seed):
    rng = SplitMix64(seed)
    A = IndicatorSet(q, rng.subset(q, rng.randint(0, q)))
    sum_side = sum_rep(A, 2).square_sum()
    diff_side = difference_rep(A).square_sum()
    assert sum_side == diff_side


def test_sum_rep_nu4_matches_brute_force():
    rng = SplitMix64(9)
    for q in (5, 11, 13):
        A = IndicatorSet(q, rng.subset(q, rng.randint(1, min(q, 5))))
        assert energy_of(A, 4) == brute_force_tuple_energy(A, 4)
        assert energy_of(A, 3) == brute_force_tuple_energy(A, 3)
        assert sum_rep(A, 2).total() == A.cardinality**2


def test_trivial_bounds():
    rng = SplitMix64(21)
    for _ in range(25):
        q = rng.choice([11, 13, 17, 19, 23, 29])
        nu = rng.choice([2, 3, 4])
        A = IndicatorSet(q, rng.subset(q, rng.randint(1, q)))
        t = energy_of(A, nu)
        n = A.cardinality
        assert n ** (2 * nu) / q <= t <= n ** (2 * nu - 1)


def test_dilation_invariance():
    rng = SplitMix64(3)
    for _ in range(100):
        q = rng.choice([11, 13, 17, 19, 23, 29, 31])
        k = rng.randint(1, 4)
        N = rng.randint(1, q)
        j = rng.randint(1, q - 1)
        u = rng.randint(1, q - 1)
        j2 = (j * pow(u, k, q)) % q
        assert tuple_energy(EnergyQuery(2, k, N, j, q)) == tuple_energy(EnergyQuery(2, k, N, j2, q))


def test_coset_reps_cover():
    import math

    for q in (13, 19, 31):
        for k in (2, 3, 4):
            reps = power_coset_reps(k, q)
            g = math.gcd(k, q - 1)
            assert len(reps) == g
            sub = {pow(x, k, q) for x in range(1, q)}
            covered = {(r * h) % q for r in reps for h in sub}
            assert covered == set(range(1, q))


def test_max_energy_coset_equals_full():
    for q, k, N in [(13, 3, 4), (19, 3, 7), (17, 2, 5), (31, 5, 9)]:
        fast = max_energy_over_j(k, N, q)[0]
        slow = all_j_max_energy(k, N, q)[0]
        assert fast == slow


def test_prime_average_example():
    r = prime_averaged_energy(3, 1, 20)
    assert r.primes == (11, 13, 17, 19)
    # full enumeration oracle
    total = 0
    for q in r.primes:
        best = 0
        for j in range(1, q):
            best = max(best, tuple_energy(EnergyQuery(2, 3, 1, j, q)))
        total += best
    assert r.total == total
    import math

    assert r.value == pytest.approx(math.log(20) / 20 * total)


def test_prime_average_trivial_zero():
    # N=1, k=2, and j ranging: max energy 0 only when no preimages anywhere;
    # across q in [Q/2, Q) some prime always admits one, so instead check N<=Q guard
    with pytest.raises(ValueError):
        prime_averaged_energy(3, 50, 20)


@pytest.mark.parametrize("N, Q, message", [(1, 1, "needs Q >= 2"), (1, -5, "needs Q >= 2"), (0, 20, "1 <= N <= Q")])
def test_prime_average_rejects_empty_ranges(N, Q, message):
    with pytest.raises(ValueError, match=message):
        prime_averaged_energy(3, N, Q)


def test_query_validation():
    with pytest.raises(ValueError):
        EnergyQuery(2, 2, 0, 1, 7)
    with pytest.raises(ValueError):
        EnergyQuery(2, 2, 3, 7, 7)
    with pytest.raises(ValueError):
        EnergyQuery(0, 2, 3, 1, 7)


def test_t42_at_a_modulus_past_the_ntt_cap():
    # q = 1000003 needs 2^21-point transforms; the pair-sum counts are squared by
    # the float path.  Oracle: bincount of every sum of two pair sums.
    q = 1000003
    for j in (1, 5):
        A = preimage_set(j, 2, 60, q)
        sums, mult = np.unique((A.members[:, None] + A.members[None, :]).ravel() % q, return_counts=True)
        r4 = np.bincount(((sums[:, None] + sums[None, :]) % q).ravel(),
                         weights=(mult[:, None] * mult[None, :]).ravel(), minlength=q)
        expect = int((r4.astype(np.int64) ** 2).sum())
        assert tuple_energy(EnergyQuery(4, 2, 60, j, q)) == expect


@pytest.mark.parametrize("q", [97, 509, 1009, 10007, 100003])
def test_pair_routes_agree_across_the_crossover(q):
    # the largest |A| counted by pairs, and one more, which goes to cyclic_convolve
    edge = max(n for n in range(q + 1) if energy._by_pairs(n, q))
    assert edge < q
    rng = np.random.default_rng(q)
    for n in (edge - 1, edge, edge + 1, edge + 2):
        assert energy._by_pairs(n, q) == (n <= edge)
        A = IndicatorSet(q, np.sort(rng.choice(q, n, replace=False)).astype(np.int64))
        ind = A.vector()
        rev = np.zeros(q, dtype=np.int64)
        rev[(-A.members) % q] = 1
        m = A.members
        sums = np.bincount(((m[:, None] + m[None, :]) % q).ravel(), minlength=q)
        diffs = np.bincount(((m[:, None] - m[None, :]) % q).ravel(), minlength=q)
        assert sums.tolist() == cyclic_convolve(ind, ind).tolist()
        assert diffs.tolist() == cyclic_convolve(ind, rev).tolist()
        assert energy._pair_sum_counts(A).tolist() == sums.tolist()
        assert difference_rep(A).counts.tolist() == diffs.tolist()


def test_pair_route_choice_follows_q():
    # the old fixed 2^22-pair limit picked the pair bincount for both of these
    assert not energy._by_pairs(2048, 100003)
    assert not energy._by_pairs(1000, 10007)
    # prime-average sizes stay on the pair bincount
    assert energy._by_pairs(128, 1024) and energy._by_pairs(128, 20011)
    # small q follows the same rule, n^2 <= 16 q: dense sets there take the float FFT too
    assert energy._by_pairs(70, 307) and not energy._by_pairs(71, 307)


@st.composite
def _ragged_stacks(draw):
    """(moduli, rows): rows of members, each mod its own modulus from a pool of one or two,
    among them empty, one-member and full rows."""
    pool = draw(st.lists(st.one_of(st.integers(1, 12), st.integers(13, 200_000)), min_size=1, max_size=2))
    kinds = draw(st.lists(st.tuples(st.sampled_from(["empty", "one", "full", "random"]), st.sampled_from(pool)),
                          max_size=8))
    moduli, rows = [], []
    for kind, q in kinds:
        member = st.integers(0, q - 1)
        moduli.append(q)
        if kind == "empty":
            rows.append([])
        elif kind == "one":
            rows.append([draw(member)])
        elif kind == "full" and q <= 60:
            rows.append(list(range(q)))
        else:
            rows.append(sorted(draw(st.sets(member, max_size=30))))
    return moduli, rows


@given(_ragged_stacks(), st.booleans(), st.sampled_from([1, 7, 64, 1 << 16]), st.sampled_from([None, 0, 100]))
@example(([5] * 5, [[0, 1, 2], [3], [], [0, 1, 2, 3, 4], [4]]), True, 7, None)  # the pairs split the stack
@example(([2] * 3, [[0, 1], [0, 1], [1]]), False, 7, None)  # the pairs split it after one row
@example(([29] * 4, [list(range(12)), [1, 5], list(range(0, 29, 2)), [3]]), True, 1 << 16, 100)  # mixed kinds
@example(([5] * 6, [[0], [1], [2, 3], [4], [0, 2], [1]]), False, 64, 0)  # four dense rows of length 16 a block
@example(([5, 7, 5, 7], [[0, 1], [2, 6], [4], [0, 1, 2]]), True, 7, 0)  # dense rows of two moduli
@example(([3, 100003, 3], [[0, 1, 2], [5, 99999], [1]]), False, 1 << 16, None)  # one sort block, a modulus a row
@example(([3, 100003, 3], [[0, 1, 2], [5, 99999], [1]]), True, 7, None)  # a modulus a row, a block a row
@settings(max_examples=80, deadline=None)
def test_pair_counts_match_python_counts(stack, negate, limit, pair_limit):
    # pair_limit 0 makes every nonempty row dense, and 100 mixes dense rows (past 10 members)
    # with sparse
    moduli, rows = stack
    sizes = np.array([len(r) for r in rows], dtype=np.int64)
    x = np.array([a for r in rows for a in r], dtype=np.int64)
    expect = [Counter((a - b if negate else a + b) % q for a in row for b in row) for q, row in zip(moduli, rows)]
    blocks = []

    def spy(kernel, cost):
        def counted(x, n, *args):
            blocks.append(cost(n, *args) if len(n) > 1 else 0)
            return kernel(x, n, *args)
        return counted

    patches = {
        "_PAIR_BATCH": limit,
        "_binned_energies": spy(energy._binned_energies, lambda n, q, negate: max((n * n).sum(), len(n) * q)),
        "_sorted_energies": spy(energy._sorted_energies, lambda n, q, negate: len(n) * int(n.max()) ** 2),
        "_dense_counts": spy(energy._dense_counts, lambda n, q, negate: len(n) * _padded_length(q)),
    }
    if pair_limit is not None:
        patches["_pair_limit"] = lambda q: pair_limit
    with mock.patch.multiple(energy, **patches):
        for q, row, counts in zip(moduli, rows, expect):
            got = energy._pair_sum_counts(IndicatorSet(q, row), negate)
            assert got.dtype == np.int64 and len(got) == q
            assert {int(s): int(got[s]) for s in np.flatnonzero(got)} == counts
        energies = energy._pair_energies(x, sizes, np.array(moduli, dtype=np.int64), negate)
        if len(set(moduli)) == 1 and rows:  # one modulus: the same stack with q an int, bincounted
            assert energy._pair_energies(x, sizes, moduli[0], negate).tolist() == energies.tolist()
    assert energies.dtype == np.int64
    assert energies.tolist() == [sum(c * c for c in counts.values()) for counts in expect]
    # a block holds at most _PAIR_BATCH pairs (sorted rows padded to the widest; a
    # bincount as many bins too) or FFT entries, or one row
    assert all(cost <= limit for cost in blocks)


@given(st.sampled_from([2, 5, 31, 61, 97, 503]), st.data(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_one_row_blocks_match_the_general_route(q, data, negate):
    # _PAIR_BATCH = 1 puts every row in a block of its own, the _pair_sums broadcast;
    # the default puts the whole stack in one block, the np.repeat gather
    rows = data.draw(st.lists(st.sets(st.integers(0, q - 1), min_size=1, max_size=12), min_size=2, max_size=6))
    sizes = np.array([len(r) for r in rows], dtype=np.int64)
    x = np.array([a for r in rows for a in sorted(r)], dtype=np.int64)
    kernel, got = energy._binned_energies, {}
    for limit in (1, 1 << 16):
        blocks = []

        def spy(x, n, q, negate):
            blocks.append(len(n))
            return kernel(x, n, q, negate)

        with mock.patch.multiple(energy, _PAIR_BATCH=limit, _binned_energies=spy):
            got[limit] = energy._pair_energies(x, sizes, q, negate).tolist()
        assert blocks == ([1] * len(rows) if limit == 1 else [len(rows)])
    expect = [sum(c * c for c in Counter((a - b if negate else a + b) % q for a in r for b in r).values())
              for r in rows]
    assert got[1] == got[1 << 16] == expect


@pytest.mark.parametrize("negate", [False, True])
def test_pair_energies_past_the_word(negate):
    # B = Z_q minus {0} has counts q - 2, and q - 1 at one residue, either way, so
    # E(B) = (q - 1)^2 + (q - 1)(q - 2)^2, past 2^63 at this prime near 2^21: the
    # dense row's square sum must be exact, not an int64 einsum
    q = 2097169
    expect = (q - 1) ** 2 + (q - 1) * (q - 2) ** 2
    assert expect >= 2**63
    x = np.concatenate([np.arange(1, q), [0, 1, 3]])
    energies = energy._pair_energies(x, np.array([q - 1, 0, 3]), q, negate)
    assert energies.dtype == object and energies.tolist() == [expect, 0, 15]
    if negate:  # k = 1: one coset, whose preimage set at N = q is B
        assert max_energy_over_j(1, q, q) == (expect, 1)


@given(st.sampled_from([2, 3, 31, 1009, 65537]), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_energy_of_squares_the_pair_counts(q, dense, data):
    # sparse sets count their pair sums; dense ones, and every set with _pair_limit patched
    # to 0, take the FFT
    members = data.draw(st.lists(st.integers(0, q - 1), unique=True, max_size=40))
    A = IndicatorSet(q, members)
    with mock.patch.object(energy, "_pair_limit", (lambda q: 0) if dense else energy._pair_limit):
        assert energy_of(A, 2) == sum_rep(A, 2).square_sum() == pair_energy(members, q)


def test_energy_of_past_the_word():
    # Z_q^* at q = 2^21 + 17 has counts q - 1 at 0 and q - 2 elsewhere: its energy passes
    # 2^63, and the bound |A|^2 per count puts q |A|^2 past it too, so the dot goes by limbs
    q = 2097169
    A = preimage_set(1, 1, q, q)
    expect = (q - 1) ** 2 + (q - 1) * (q - 2) ** 2
    assert A.cardinality == q - 1 and expect >= 2**63 and q * (q - 1) ** 2 >= 2**63
    assert energy_of(A, 2) == sum_rep(A, 2).square_sum() == expect


@pytest.mark.parametrize("dense", [False, True])
def test_pair_energies_guard_on_the_cube_of_the_size(dense):
    # a row of n = 64 members mod q = 1009: n^3 = 2^18 < q n^2.  With the word patched
    # between the two the row stays int64 (its energy is at most n^3), and at n^3 it
    # becomes an exact Python int; either way it equals the Counter oracle
    q, n = 1009, 64
    x = np.arange(0, 3 * n, 3, dtype=np.int64)
    expect = sum(c * c for c in Counter((a + b) % q for a in x.tolist() for b in x.tolist()).values())
    patches = {"_pair_limit": lambda q: 0} if dense else {}
    for cap, dtype in ((n**3 + 1, np.int64), (n**3, object)):
        with mock.patch.multiple(energy, WORD_CAP=cap, **patches):
            assert energy._by_pairs(n, q) != dense
            energies = energy._pair_energies(x, np.array([n]), q)
        assert energies.dtype == dtype and energies.tolist() == [expect]
    assert q * n * n >= n**3 + 1


def test_prime_average_at_the_baseline_size():
    # 4459 primes in [5 * 10^4, 10^5); one class pass and one pair stack for all of them
    assert prime_averaged_energy(3, 30, 10**5).total == 10716512
