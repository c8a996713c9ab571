"""Non-normalised Gowers uniformity norms of subsets of Z_q.

The k-th norm counts (k+1)-dimensional combinatorial cubes with all 2^k
vertices in the set: U^1(A) = (#A)^2 and U^k(A) = sum_s U^(k-1)(A ∩ (A - s)).
gowers_norm unfolds that recursion down to U^2 along two independent routes,
each over a stack of boolean rows of length q, and asserts they agree:

  * the shift route builds the rows by repeated shift-intersection,
    B -> B & roll(B, -s), dropping empty rows, and scores a row by its
    difference counts: U^2(B) = E(B) = sum_d #{(x, y) in B^2 : x - y = d}^2;
  * the cube route builds the row of each shift tuple (s_1..s_(k-2))
    directly, as the product of the indicator over the 2^(k-2) vertices
    x + eps.s, and scores a row by its sum counts, whose square sum is E(B) too.

Both routes fold s with -s.  B ∩ (B + s) is a translate of B ∩ (B - s), and
negating one cube shift translates the cube row, so each shift runs over
s = 0..q//2 only, with weight 1 for s = 0 and s = q/2 (q even), their own
negatives, and 2 for every other s; a row's weight is the product over its
shifts, and each depth level keeps about half the rows.  The fold is shared,
so the cross-check cannot see a wrong weight; the unfolded routes are the
oracles of tests/algebra_oracles.py.

A stack's rows are scored all at once by energy._pair_energies, which counts
sparse rows by their pair sums and dense rows by one float FFT a block; a row
past q/2 members is scored by its complement, and the weighted sum of the row
energies is one exact dot.  U^k costs about
(q//2 + 1)^(k-2) (2^(k-2) q + min(|A|^2, energy._pair_limit(q))), the work
estimate held to the budget.  character_lemma_report checks the two
norm/energy inequalities in exact integer arithmetic from a {m: U^m} map of
the set that it reads and fills, so a caller that checks several k computes
each U^m of the set once, and cross-checks it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .energy import _pair_energies, _pair_limit, difference_rep
from .errors import BudgetExceededError
from .sets import _WORD_CAP, IndicatorSet, _exact_dot

DEFAULT_K_CAP = 4
DEFAULT_WORK_BUDGET = 10**9
_CHUNK = 1 << 20  # entries per temporary of the row stacks


def _indicator(A: IndicatorSet) -> np.ndarray:
    a = np.zeros(A.q, dtype=bool)
    a[A.members] = True
    return a


def shift_intersection(A: IndicatorSet, shifts) -> IndicatorSet:
    """A_1 = A, A_(i+1) = A_i ∩ (A_i - s_i): the cube set of the shifts."""
    a = _indicator(A)
    for s in shifts:
        a &= np.roll(a, -(int(s) % A.q))
    return IndicatorSet(A.q, np.flatnonzero(a))


def _shifted(rows: np.ndarray) -> np.ndarray:
    """A view [r, s, x] = rows[r, x + s mod q] for s = 0..q-1."""
    q = rows.shape[1]
    return sliding_window_view(np.concatenate([rows, rows], axis=1), q, axis=1)[:, :q]


def _fold_weights(q: int) -> np.ndarray:
    """The weight of each folded shift s = 0..q//2, one per pair {s, -s}.

    The rows of s and -s are translates, so the pair counts twice, and s = 0
    and s = q/2 (q even), their own negatives, once.
    """
    s = np.arange(q // 2 + 1, dtype=np.int64)
    return np.where((s == 0) | (2 * s == q), 1, 2)


def _stack_energy(rows: np.ndarray, weights: np.ndarray, negate: bool) -> int:
    """sum of weight * E(B) over the rows B: E(B) squares B's difference (negate) or sum counts.

    A row past q/2 members is scored by its complement C: either count of B is
    that of C plus m = 2|B| - q, so E(B) = E(C) + m (q m + 2|C|^2).  Row
    energies are at most q^3: int64 below 2^63, Python ints above.
    """
    q = rows.shape[1]
    energies = np.zeros(len(rows), dtype=np.int64 if 2 * q**3 < _WORD_CAP else object)
    sizes = np.count_nonzero(rows, axis=1)
    flip = 2 * sizes > q
    m, c = 2 * sizes[flip] - q, q - sizes[flip]
    energies[flip] = m.astype(energies.dtype) * (q * m + 2 * c * c)
    rows, sizes[flip] = rows ^ flip[:, None], c
    keep = sizes > 0
    energies[keep] += _pair_energies(np.nonzero(rows[keep])[1], sizes[keep], q, negate)
    bound = int(energies.max(initial=0)) * int(weights.max(initial=0))
    return _exact_dot(energies, weights, bound)


def _shift_stack(rows: np.ndarray, weights: np.ndarray, depth: int):
    """Chunks (rows, weights) of the nonempty rows B & roll(B, -s_1) & ..., `depth` shifts deep.

    Each s_i runs over 0..q//2 and multiplies the row's weight by its _fold_weights.
    """
    if depth == 0:
        yield rows, weights
        return
    q = rows.shape[1]
    shift_weights = _fold_weights(q)
    h = len(shift_weights)
    step, s_step = max(1, _CHUNK // (q * h)), min(h, max(1, _CHUNK // q))
    for i in range(0, len(rows), step):
        block = _shifted(rows[i : i + step])[:, :h]  # [r, s, x] = row r at x + s
        for s in range(0, h, s_step):
            grown = (block[:, 0, None] & block[:, s : s + s_step]).reshape(-1, q)
            w = np.outer(weights[i : i + step], shift_weights[s : s + s_step]).ravel()
            keep = grown.any(axis=1)
            yield from _shift_stack(grown[keep], w[keep], depth - 1)


def _cube_stack(a: np.ndarray, depth: int):
    """Chunks (rows, weights) of the rows prod_eps a[x + eps.s], each s_i in 0..q//2.

    A row's weight is the product of the _fold_weights of its shifts.
    """
    if depth == 0:
        yield a[None, :], np.ones(1, dtype=np.int64)
        return
    q = len(a)
    shift_weights = _fold_weights(q)
    h = len(shift_weights)
    eps = np.array(list(product((0, 1), repeat=depth)), dtype=np.int64)  # [v, i]
    # [u, x] = a[x + u mod q] for u = 0..depth*q, which covers every eps.s
    shifted = sliding_window_view(np.tile(a, depth + 1), q)
    step = max(1, _CHUNK // (len(eps) * q))
    total = h**depth
    for start in range(0, total, step):
        flat = np.arange(start, min(start + step, total), dtype=np.int64)
        shifts = np.stack([(flat // h**i) % h for i in range(depth)], axis=1)  # [r, i]
        # vertex rows [r, v, x], ANDed over v
        yield shifted[shifts @ eps.T].all(axis=1), shift_weights[shifts].prod(axis=1)


def _norm_by_shifts(a: np.ndarray, k: int) -> int:
    """U^k by the shift recursion, rows scored by difference counts."""
    if k == 1:
        return int(np.count_nonzero(a)) ** 2
    stack = _shift_stack(a[None, :], np.ones(1, dtype=np.int64), k - 2)
    return sum(_stack_energy(rows, weights, negate=True) for rows, weights in stack)


def _norm_by_cubes(a: np.ndarray, k: int) -> int:
    """U^k by direct cube rows over the folded shift tuples, rows scored by sum counts."""
    if k == 1:
        return int(np.count_nonzero(a)) ** 2
    stack = _cube_stack(a, k - 2)
    return sum(_stack_energy(rows, weights, negate=False) for rows, weights in stack)


def shift_counts(A: IndicatorSet) -> np.ndarray:
    """#(A ∩ (A - s)) for every s in Z_q, as one int64 array: the count of a - b = -s."""
    return difference_rep(A).counts[-np.arange(A.q) % A.q]


def _work_estimate(A: IndicatorSet, k: int) -> int:
    """(q//2 + 1)^(k-2) folded rows, each the AND of 2^(k-2) shifts, scored over
    min(|A|^2, _pair_limit(q)) pairs."""
    d = max(k - 2, 0)
    return (A.q // 2 + 1) ** d * (2**d * A.q + min(A.cardinality**2, int(_pair_limit(A.q))))


def gowers_norm(A: IndicatorSet, k: int, budget: int = DEFAULT_WORK_BUDGET) -> int:
    """The non-normalised U^k norm, computed two ways and cross-checked."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > DEFAULT_K_CAP:
        raise BudgetExceededError(f"k={k} above cap {DEFAULT_K_CAP}")
    return _gowers_norm(A, k, budget)


def _gowers_norm(A: IndicatorSet, k: int, budget: int) -> int:
    """gowers_norm past the k cap: character_lemma_report needs U^(k+1)."""
    if _work_estimate(A, k) > budget:
        raise BudgetExceededError("work estimate exceeds budget")
    if A.cardinality == 0:
        return 0
    a = _indicator(A)
    via_shifts = _norm_by_shifts(a, k)
    via_cubes = _norm_by_cubes(a, k)
    if via_shifts != via_cubes:
        raise ArithmeticError(
            f"norm route mismatch at k={k}: shifts={via_shifts}, cubes={via_cubes}"
        )
    return via_shifts


@dataclass(frozen=True)
class CharLemmaReport:
    k: int
    vacuous: bool
    growth_ok: bool
    growth_ratio: float
    energy_ok: bool
    energy_ratio: float

    @property
    def all_ok(self) -> bool:
        return self.vacuous or (self.growth_ok and self.energy_ok)


def _log_ratio(lhs: int, rhs: int) -> float:
    if rhs == 0:
        return math.inf
    return math.exp(min(700.0, math.log(lhs) - math.log(rhs))) if lhs else 0.0


def character_lemma_report(
    A: IndicatorSet, k: int, budget: int = DEFAULT_WORK_BUDGET, norms: dict | None = None
) -> CharLemmaReport:
    """Checks, in exact integer arithmetic with cross-multiplied powers:

      U^{k+1} >= U^k ^ ((3k-2)/(k-1)) / U^{k-1} ^ (2k/(k-1))     (k >= 2)
      U^k     >= E(A)^(2^k - k - 1) * (#A)^(-(3*2^k - 4k - 4))

    Fractional exponents are cleared by raising both sides to the (k-1).
    E(A) is U^2.  norms is a {m: U^m(A)} map of this A: each U^m it lacks is
    computed, in ascending m, and added to it, so reports for several k that
    share one map compute each norm once.
    """
    if k < 2:
        raise ValueError("growth inequality needs k >= 2")
    if k > DEFAULT_K_CAP:
        raise BudgetExceededError(f"k={k} above cap {DEFAULT_K_CAP}")
    if A.cardinality == 0:
        return CharLemmaReport(k, True, True, 0.0, True, 0.0)

    norms = {} if norms is None else norms
    for m in sorted({2, k - 1, k, k + 1} - norms.keys()):
        norms[m] = _gowers_norm(A, m, budget)
    # growth: U^{k+1}^(k-1) * U^{k-1}^(2k) >= U^k^(3k-2)
    lhs1 = norms[k + 1] ** (k - 1) * norms[k - 1] ** (2 * k)
    rhs1 = norms[k] ** (3 * k - 2)
    growth_ok = lhs1 >= rhs1

    # energy: U^k * (#A)^(3*2^k - 4k - 4) >= E(A)^(2^k - k - 1)
    lhs2 = norms[k] * A.cardinality ** (3 * 2**k - 4 * k - 4)
    rhs2 = norms[2] ** (2**k - k - 1)
    energy_ok = lhs2 >= rhs2

    return CharLemmaReport(
        k, False, growth_ok, _log_ratio(lhs1, rhs1), energy_ok, _log_ratio(lhs2, rhs2)
    )
