"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 4's fixed-constant cap is implemented exactly as stated and is
expected to fail (strict xfail): the measured N=10 ratio contradicts the
criterion's own lower bound for every N > 10 (see the analysis in the test).
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from modroots.convolve import cyclic_convolve
from modroots.energy import EnergyQuery, energy_of, max_energy_over_j, tuple_energy
from modroots.equidist import PointMultiset, discrepancy, prime_roots_discrepancy
from modroots.expsums import character_table, unit_roots
from modroots.gowers import character_lemma_report, gowers_norm, shift_counts
from modroots.harness import SweepConfig, render_csv, render_json, run_sweep
from modroots.lattice import BoxBody, CongruenceLattice, trichotomy_check, verify_geometry
from modroots.modular import preimage_set, primes_in
from modroots.prodpoly import _prime_pool, count_box_zeros_upto, product_poly
from modroots.rng import SplitMix64
from modroots.sets import IndicatorSet

from algebra_oracles import batch_values_mod, classic_square_poly, poly_scale
from convolve_oracles import naive_convolve, ntt_convolve
from residue_oracles import all_j_max_energy

OK = "PASS"
BAD = "FAIL"


def _report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion:02d}] {OK if ok else BAD} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _oracle_preimage(j, k, N, q):
    targets = {v % q for v in range(1, N + 1)}
    return [x for x in range(1, q) if (j * pow(x, k, q)) % q in targets]


def _oracle_pair_energy(members, q):
    if not members:
        return 0
    arr = np.asarray(members, dtype=np.int64)
    counts = np.bincount(((arr[:, None] + arr[None, :]) % q).ravel(), minlength=q)
    return int(np.dot(counts, counts))


def test_criterion_01_exact_energy_anchor():
    # brute force O(|A|^4) for the anchor
    A = sorted(preimage_set(1, 2, 3, 7).members)
    brute = sum(
        1
        for a in A
        for b in A
        for c in A
        for d in A
        if (a + b - c - d) % 7 == 0
    )
    ok = brute == 44 and tuple_energy(EnergyQuery(2, 2, 3, 1, 7)) == 44
    mismatches = 0
    checked = 0
    for q in primes_in(2, 101):
        js = sorted({j % q for j in (1, 2, q - 1)} - {0})
        for k in (1, 2, 3):
            for j in js:
                for N in range(1, q + 1):
                    expect = _oracle_pair_energy(_oracle_preimage(j, k, N, q), q)
                    got = tuple_energy(EnergyQuery(2, k, N, j, q))
                    checked += 1
                    if got != expect:
                        mismatches += 1
    ok = ok and mismatches == 0
    _report(1, ok, f"energy anchor 44 and oracle equivalence on {checked} instances "
                   f"({mismatches} mismatches)")


def test_criterion_02_convolution_engine():
    rng = SplitMix64(2024)
    bad = 0
    for q in (97, 499, 1009):
        for _ in range(100):
            u = [rng.randint(0, q) for _ in range(q)]
            v = [rng.randint(0, q) for _ in range(q)]
            w = cyclic_convolve(u, v).tolist()
            if not w == ntt_convolve(u, v).tolist() == naive_convolve(u, v).tolist():
                bad += 1
    _report(2, bad == 0, f"cyclic_convolve equals NTT+CRT and naive on 300 instances ({bad} mismatches)")


def test_criterion_03_product_poly_regression_and_vanishing():
    ok = product_poly(2) == poly_scale(classic_square_poly(), -1)
    detail = ["quartic matches -1 x classic formula" if ok else "quartic regression FAILED"]
    rng = SplitMix64(333)
    screen_primes = _prime_pool()[:3]
    for k in (3, 4):
        F = product_poly(k)  # construction checks homogeneity and a spare prime
        ok = ok and F.homogeneous_degree() == k * k
        n_trials = 10**4
        x1 = np.array([rng.randint(1, 60) for _ in range(n_trials)], dtype=np.int64)
        x2 = np.array([rng.randint(1, 60) for _ in range(n_trials)], dtype=np.int64)
        x3 = np.array([1 + rng.below(int(a + b - 1)) for a, b in zip(x1, x2)], dtype=np.int64)
        x4 = x1 + x2 - x3
        cols = [x**k for x in (x1, x2, x3, x4)]  # <= 120^4, well inside int64
        for p in screen_primes:
            vals = batch_values_mod(F, cols, p)
            ok = ok and not vals.any()
        for _ in range(20):
            m = rng.randint(2, 10**6)
            vals = batch_values_mod(F, cols, m)
            ok = ok and not vals.any()
        # exact bigint confirmation on a subsample
        for i in range(0, n_trials, n_trials // 300):
            tup = tuple(int(c[i]) for c in cols)
            ok = ok and F.evaluate(tup) == 0
        # homogeneity: j^(k^2) scaling
        for _ in range(100):
            n = tuple(rng.randint(1, 8) for _ in range(4))
            j = rng.randint(2, 9)
            ok = ok and F.evaluate(tuple(j * x for x in n)) == j ** (k * k) * F.evaluate(n)
        detail.append(f"k={k}: 10^4 vanishing + mod-m + homogeneity")
    _report(3, ok, "; ".join(detail))


_T3_COUNTS = None


def _t3_counts():
    global _T3_COUNTS
    if _T3_COUNTS is None:
        _T3_COUNTS = count_box_zeros_upto(3, 40)
    return _T3_COUNTS


def test_criterion_04_zero_count_growth():
    counts = _t3_counts()
    F3 = product_poly(3)
    brute2 = sum(1 for t in itertools.product((1, 2), repeat=4) if F3.evaluate(t) == 0)
    ok = brute2 == 6 and counts[1] == 6
    lower_ok = all(counts[n - 1] >= 2 * n * n - n for n in range(1, 41))
    ok = ok and lower_ok
    _report(4, ok, f"T(2) = 6 vs brute force; diagonal lower bound 2N^2-N holds to N=40; "
                   f"T(40) = {counts[39]}")


@pytest.mark.xfail(strict=True, reason=(
    "the stated cap is self-contradicting: C = T(10)/10^2 = 1.9 while the "
    "diagonal count alone gives T(N) >= 2N^2 - N > 1.9 N^2 for every N > 10"
))
def test_criterion_04_fixed_constant_cap_as_stated():
    counts = _t3_counts()
    C = Fraction(counts[9], 10**2)
    bad = [n for n in range(1, 41) if counts[n - 1] > C * n * n]
    print(f"[criterion 04-cap] {BAD if bad else OK} - C fixed at N=10 value {float(C)}; "
          f"first violation at N={bad[0] if bad else None}")
    assert not bad


def test_criterion_05_gowers_identities():
    rng = SplitMix64(5150)
    failures = 0
    sets_run = 0
    for q in (31, 61, 97):
        for _ in range(100):
            size = rng.randint(2, q)
            A = IndicatorSet(q, rng.subset(q, size))
            sets_run += 1
            # U^2 equals the additive energy, via the energy module
            if gowers_norm(A, 2) != energy_of(A, 2):
                failures += 1
                continue
            # shift-count identity
            total = int(shift_counts(A).sum())
            if total != A.cardinality**2:
                failures += 1
                continue
            # both character lemmas at k = 2 and 3 (recursion/square-sum equality
            # is asserted inside every norm evaluation)
            if not character_lemma_report(A, 2).all_ok:
                failures += 1
                continue
            if not character_lemma_report(A, 3).all_ok:
                failures += 1
    _report(5, failures == 0, f"{sets_run} random sets x (U2=E, shift identity, both lemmas, "
            f"two-route norms): {failures} failures")


def test_criterion_06_geometry_of_numbers():
    rng = SplitMix64(66)
    prime_list = primes_in(3, 10**4)
    violations = 0
    for i in range(10**4):
        d = 2 if rng.below(2) == 0 else 3
        q = prime_list[rng.below(len(prime_list))]
        coeffs = tuple(rng.randint(1, q - 1) for _ in range(d))
        ws = []
        for _ in range(d):
            mag = math.exp(rng.uniform01() * math.log(1000))
            ws.append(Fraction(max(1, int(mag)), rng.choice([1, 1, 2, 3, 4])))
        rep = verify_geometry(CongruenceLattice(coeffs, q), BoxBody(tuple(ws)))
        lam = rep.minima.lambdas
        ordered = all(lam[j] <= lam[j + 1] for j in range(d - 1))
        if not (rep.all_ok and ordered):
            violations += 1
    tri_fail = 0
    small_primes = primes_in(3, 5000)
    for _ in range(10**3):
        q = small_primes[rng.below(len(small_primes))]
        a, b, c = (rng.randint(1, q - 1) for _ in range(3))
        L, M, N = (rng.randint(1, 12) for _ in range(3))
        res = trichotomy_check(a, b, c, L, M, N, q)
        if not (res.holds or res.degenerate_box):
            tri_fail += 1
    ok = violations == 0 and tri_fail == 0
    _report(6, ok, f"10^4 lattices: {violations} inequality violations; "
                   f"10^3 trichotomy instances: {tri_fail} failures")


def test_criterion_07_gauss_sums():
    worst = 0.0
    for q in primes_in(3, 500):
        roots = unit_roots(q)
        xs = np.arange(q, dtype=np.int64)
        sq = (xs * xs) % q
        bs = np.arange(1, q, dtype=np.int64)
        # direct G(b, h) for all h at once: q * ifft of x -> e_q(b x^2)
        W = roots[(bs[:, None] * sq[None, :]) % q]
        direct = q * np.fft.ifft(W, axis=1)
        inv4b = np.array([pow(int(4 * b) % q, q - 2, q) for b in bs], dtype=np.int64)
        hh = (xs * xs) % q
        phase = (-hh[None, :] * inv4b[:, None]) % q
        chi = np.asarray(character_table(q), dtype=np.float64)[bs % q]
        eps_q = 1.0 + 0.0j if q % 4 == 1 else 1.0j
        closed = eps_q * chi[:, None] * math.sqrt(q) * roots[phase]
        err = np.abs(direct - closed).max() / math.sqrt(q)
        mod_err = np.abs(np.abs(direct) - math.sqrt(q)).max() / math.sqrt(q)
        worst = max(worst, err, mod_err)
    ok = worst < 1e-9
    _report(7, ok, f"closed form vs direct summation and |G| = sqrt(q), all odd primes "
                   f"q <= 500, all (b, h); worst relative error {worst:.2e} "
                   f"(q = 2 excluded: (4b)^(-1) undefined)")


def test_criterion_08_discrepancy_anchors():
    ok = discrepancy(PointMultiset.of([Fraction(3, 7), Fraction(4, 7)])).value == Fraction(12, 7)
    ok = ok and prime_roots_discrepancy(7, 5).value == Fraction(12, 7)
    rng = SplitMix64(88)
    refine = Fraction(1, 10**6)
    for _ in range(100):
        n = rng.randint(1, 20)
        den = rng.choice([31, 37, 64, 100, 127])
        ms = PointMultiset.of([Fraction(rng.randint(0, den - 1), den) for _ in range(n)])
        exact = discrepancy(ms).value
        cands = {Fraction(0), Fraction(1)}
        for v in ms.values:
            cands.update((v, v + refine, max(Fraction(0), v - refine)))
        grid = Fraction(0)
        for a, b in itertools.combinations(sorted(cands), 2):
            cnt = sum(m for v, m in zip(ms.values, ms.mults) if a <= v < b)
            grid = max(grid, abs(cnt - ms.size * (b - a)))
        if not (grid <= exact <= grid + (2 * n + 2) * refine):
            ok = False
            break
    _report(8, ok, "12/7 anchors and O(n^2) = refined-grid brute force on 100 multisets")


SWEEPS_9 = [
    ("t22-bound", {"q": primes_in(5, 503), "N": [4, 8, 16, 32]}, 1),
    ("t42-bound", {"q": [101, 199, 307, 499], "N": [4, 6, 8]}, 2),
    ("e2k-average", {"k": [3], "N": [2, 8, 16, 30], "Q": [40, 400, 2000]}, 3),
    ("e2k-set-doubling", {"q": [10007], "k": [3, 4], "N": [8, 16, 32], "trial": "1:3"}, 4),
    ("w-ratio", {"q": [199, 499], "M": [8, 16, 32], "N": [8, 16, 32], "trial": "1:2"}, 5),
    ("v-ratio", {"q": [499, 997], "M": [4, 8], "N": [32, 60], "r": [2], "trial": "1:2"}, 6),
    ("salie-moment", {"q": [101, 499, 997], "U0": [4, 16, 64], "r": [2], "trial": "1:2"}, 7),
    ("gamma-ratio", {"q": [101, 499, 1009, 2003, 4999],
                     "P": [int(101**0.8), int(499**0.8), int(1009**0.8), int(2003**0.8), int(4999**0.8)]}, 8),
    ("tk-growth", {"k": [3], "N": [5, 10, 15, 20]}, 9),
]


def test_criterion_09_bound_ratio_stability():
    maxima = {}
    ok = True
    for check, grid, seed in SWEEPS_9:
        if check == "gamma-ratio":
            # pair q with P = floor(q^0.8) instead of the full product
            rows = []
            for q, P in zip(grid["q"], grid["P"]):
                res = run_sweep(SweepConfig(check, {"q": [q], "P": [P]}, seed=seed))
                rows.extend(res.rows)
            ratios = [r.ratio for r in rows if r.ratio is not None]
            maxima[check] = max(ratios)
        else:
            res = run_sweep(SweepConfig(check, grid, seed=seed))
            assert res.manifest["failures"] == 0
            maxima[check] = res.manifest["max_ratio"]
        ok = ok and maxima[check] is not None and math.isfinite(maxima[check]) and maxima[check] < 1000
    detail = ", ".join(f"{k}={v:.4g}" for k, v in maxima.items())
    _report(9, ok, f"grid-max ratios all finite and < 10^3: {detail}")


def test_criterion_10_dilation_and_coset_max():
    rng = SplitMix64(1010)
    prime_list = primes_in(5, 101)
    bad = 0
    for _ in range(100):
        q = prime_list[rng.below(len(prime_list))]
        k = rng.randint(1, 4)
        N = rng.randint(1, q)
        j = rng.randint(1, q - 1)
        u = rng.randint(1, q - 1)
        j2 = (j * pow(u, k, q)) % q
        if tuple_energy(EnergyQuery(2, k, N, j, q)) != tuple_energy(EnergyQuery(2, k, N, j2, q)):
            bad += 1
    coset_bad = 0
    small = primes_in(5, 61)
    for _ in range(20):
        q = small[rng.below(len(small))]
        k = rng.randint(2, 5)
        N = rng.randint(1, q)
        if max_energy_over_j(k, N, q)[0] != all_j_max_energy(k, N, q)[0]:
            coset_bad += 1
    ok = bad == 0 and coset_bad == 0
    _report(10, ok, f"dilation invariance 100/100, coset-representative max = full max 20/20"
                    f" ({bad + coset_bad} failures)")


def test_criterion_11_determinism_across_thread_counts():
    grid = {"q": [31, 61], "trial": "1:6"}
    outputs = []
    for workers in (1, 4, 8):
        res = run_sweep(SweepConfig("gowers-lemmas", grid, seed=7, parallelism=workers))
        outputs.append(render_csv(res.rows) + render_json(res.rows))
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(11, ok, "reports byte-identical for worker counts 1, 4, 8")
