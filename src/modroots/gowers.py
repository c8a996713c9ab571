"""Non-normalised Gowers uniformity norms of subsets of Z_q.

The k-th norm counts (k+1)-dimensional combinatorial cubes with all 2^k
vertices in the set.  gowers_norm evaluates it along two independent routes
(the difference-set recursion and the full shift-tuple square sum) and
asserts they agree before returning; character_lemma_report checks the two
norm/energy inequalities in exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .sets import IndicatorSet

DEFAULT_K_CAP = 4
DEFAULT_WORK_BUDGET = 10**9


@dataclass(frozen=True)
class ShiftSystem:
    shifts: tuple
    result: IndicatorSet


def shift_intersection(A: IndicatorSet, shifts) -> ShiftSystem:
    """A intersect (A - s1) intersect ... intersect (A - sl)."""
    q = A.q
    members = set(A.members.tolist())
    for s in shifts:
        members = _intersect_shift(members, s % q, q)
    return ShiftSystem(tuple(int(s) % q for s in shifts), IndicatorSet(q, members))


def _diff_square_sum(members: np.ndarray, q: int) -> int:
    """sum_d (#{(a,b): a-b=d})^2, i.e. the additive energy of the set."""
    if len(members) == 0:
        return 0
    diffs = (members[:, None] - members[None, :]) % q
    counts = np.bincount(diffs.ravel(), minlength=q)
    return int(np.dot(counts, counts))


def _intersect_shift(members: set, s: int, q: int) -> set:
    return {x for x in members if (x + s) % q in members}


def _norm_recursive(members: set, q: int, k: int) -> int:
    """U^k via the recursion over difference-set shifts; U^1(B) = (#B)^2."""
    if not members:
        return 0
    if k == 1:
        return len(members) ** 2
    if k == 2:
        return _diff_square_sum(np.fromiter(members, dtype=np.int64), q)
    total = 0
    diffs = {(a - b) % q for a in members for b in members}
    for s in sorted(diffs):
        total += _norm_recursive(_intersect_shift(members, s, q), q, k - 1)
    return total


def _norm_square_sum(members: set, q: int, k: int) -> int:
    """U^k as the sum over (k-1)-tuples of shifts of squared intersection sizes."""
    if not members:
        return 0
    if k == 1:
        return len(members) ** 2

    def rec(current: set, depth: int) -> int:
        if depth == 0:
            return len(current) ** 2
        if not current:
            return 0
        if depth == 1:
            return _diff_square_sum(np.fromiter(current, dtype=np.int64), q)
        total = 0
        for s in range(q):
            total += rec(_intersect_shift(current, s, q), depth - 1)
        return total

    return rec(set(members), k - 1)


def _work_estimate(A: IndicatorSet, k: int) -> int:
    return A.q ** max(k - 1, 0) * max(A.cardinality, 1)


def gowers_norm(
    A: IndicatorSet, k: int, k_cap: int = DEFAULT_K_CAP, budget: int = DEFAULT_WORK_BUDGET
) -> int:
    """The non-normalised U^k norm, computed two ways and cross-checked."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > k_cap:
        raise BudgetExceededError(f"k={k} above cap {k_cap}")
    if _work_estimate(A, k) > budget:
        raise BudgetExceededError("work estimate exceeds budget")
    members = set(A.members.tolist())
    via_recursion = _norm_recursive(members, A.q, k)
    via_squares = _norm_square_sum(members, A.q, k)
    if via_recursion != via_squares:
        raise ArithmeticError(
            f"norm route mismatch at k={k}: recursion={via_recursion}, squares={via_squares}"
        )
    return via_recursion


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
    A: IndicatorSet, k: int, k_cap: int = DEFAULT_K_CAP, budget: int = DEFAULT_WORK_BUDGET
) -> CharLemmaReport:
    """Checks, in exact integer arithmetic with cross-multiplied powers:

      U^{k+1} >= U^k ^ ((3k-2)/(k-1)) / U^{k-1} ^ (2k/(k-1))     (k >= 2)
      U^k     >= E(A)^(2^k - k - 1) * (#A)^(-(3*2^k - 4k - 4))

    Fractional exponents are cleared by raising both sides to the (k-1).
    """
    if k < 2:
        raise ValueError("growth inequality needs k >= 2")
    if k > k_cap:
        raise BudgetExceededError(f"k={k} above cap {k_cap}")
    if A.cardinality == 0:
        return CharLemmaReport(k, True, True, 0.0, True, 0.0)

    norms = {m: gowers_norm(A, m, k_cap=k_cap + 1, budget=budget) for m in (k - 1, k, k + 1)}
    # growth: U^{k+1}^(k-1) * U^{k-1}^(2k) >= U^k^(3k-2)
    lhs1 = norms[k + 1] ** (k - 1) * norms[k - 1] ** (2 * k)
    rhs1 = norms[k] ** (3 * k - 2)
    growth_ok = lhs1 >= rhs1

    energy = gowers_norm(A, 2, k_cap=k_cap + 1, budget=budget)
    # energy: U^k * (#A)^(3*2^k - 4k - 4) >= E(A)^(2^k - k - 1)
    lhs2 = norms[k] * A.cardinality ** (3 * 2**k - 4 * k - 4)
    rhs2 = energy ** (2**k - k - 1)
    energy_ok = lhs2 >= rhs2

    return CharLemmaReport(
        k, False, growth_ok, _log_ratio(lhs1, rhs1), energy_ok, _log_ratio(lhs2, rhs2)
    )
