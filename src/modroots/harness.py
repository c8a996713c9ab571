"""Declarative parameter sweeps over the bound-verification checks.

Hard-assertion checks (identities and theorem-true inequalities) set pass
flags; ratio checks only record measured/bound/ratio.  Reports are
deterministic for a fixed (config, seed) regardless of worker count: every
grid cell draws its randomness from a child stream keyed by (seed, cell
ordinal), rows are emitted in sorted parameter order, and the per-row `ms`
column is always 0 (timings live in the manifest).
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .energy import EnergyQuery, energy_of, prime_averaged_energy, set_energy, tuple_energy
from .equidist import prime_roots_ratio
from .errors import BudgetExceededError, CapacityError, ConfigError, InfeasibleCellError
from .expsums import (
    BilinearQuery,
    SmoothBump,
    bilinear_bound_ratio,
    char_inverse_moment,
    dyadic_range,
    smoothed_bound_ratio,
)
from .gowers import character_lemma_report, gowers_norm, shift_counts
from .lattice import BoxBody, CongruenceLattice, trichotomy_check, verify_geometry
from .modular import is_prime, preimage_set, primes_in
from .prodpoly import count_box_zeros, product_poly
from .rng import SplitMix64, cell_seeds
from .sets import IndicatorSet


def rho_k(k: int) -> Fraction:
    return Fraction(1, 7 * 2 ** (k - 1) - 9)


def theta_k(k: int) -> Fraction:
    if k == 4:
        return Fraction(48, 47)
    return 2 ** (k + 2) * rho_k(k)


@dataclass
class SweepConfig:
    check: str
    grid: dict
    seed: int = 0
    parallelism: int = 1
    budgets: dict = field(default_factory=dict)


@dataclass
class ReportRow:
    check: str
    params: dict
    measured: object
    bound: object
    ratio: object
    passed: object  # bool for hard assertions, None for ratio-only rows


@dataclass
class CellResult:
    measured: object = None
    bound: object = None
    ratio: object = None
    passed: object = None
    skip_reason: str = None
    skip_message: str = None
    fail_reason: str = None  # the failed sub-check, or the exception class of a failed cross-check
    fail_message: str = None


# ---------------------------------------------------------------------------
# doubling instances


@dataclass(frozen=True)
class DoublingInstance:
    members: IndicatorSet
    doubling: Fraction  # #(S+S) / #S, exact
    sumset_size: int


def doubling_instance(L_target: int, N: int, q: int, rng: SplitMix64) -> DoublingInstance:
    """A structured subset of F_q with small doubling and no sumset wraparound.

    L_target <= 2 gives an arithmetic progression (doubling < 2); larger
    targets give a 2-dimensional progression (doubling <= 4).  The doubling
    constant is computed exactly from the sumset.
    """
    if N < 2 or N > q // 4:
        raise ValueError("need 2 <= N <= q/4 for honest doubling accounting")
    if L_target <= 2:
        max_step = (q - 1) // (2 * (N - 1) + 1)
        if max_step < 1:
            raise ValueError("wraparound: progression does not fit in F_q")
        step = rng.randint(1, max_step)
        max_start = (q - 1 - 2 * (N - 1) * step) // 2
        start = rng.randint(1, max(1, max_start))
        elems = [start + i * step for i in range(N)]
    else:
        n1 = max(2, math.isqrt(N))
        n2 = (N + n1 - 1) // n1
        d1 = rng.randint(1, 3)
        d2 = d1 * n1 * rng.randint(2, 4)
        span = (n1 - 1) * d1 + (n2 - 1) * d2
        if 2 * span + 2 >= q:
            raise ValueError("wraparound: progression does not fit in F_q")
        start = rng.randint(1, q - 1 - 2 * span - 1) // 2 + 1
        elems = [start + i * d1 + j * d2 for i in range(n1) for j in range(n2)][:N]
    if max(elems) * 2 >= q:
        raise ValueError("wraparound detected")
    S = IndicatorSet.of(q, elems)
    members = S.members.tolist()
    sums = {(x + y) % q for x in members for y in members}
    return DoublingInstance(S, Fraction(len(sums), S.cardinality), len(sums))


# ---------------------------------------------------------------------------
# check implementations (top-level: must stay picklable for process pools)


def _require_prime(params, key="q"):
    q = params[key]
    if not is_prime(q):
        raise ConfigError(f"{key}={q} must be prime")
    return q


def _check_t22(params, rng, budgets):
    q = _require_prime(params)
    N = params["N"]
    if not 1 <= N <= q:
        raise InfeasibleCellError("need 1 <= N <= q")
    j = rng.randint(1, q - 1)
    t = tuple_energy(EnergyQuery(2, 2, N, j, q))
    bound = (N**1.5 / math.sqrt(q) + 1) * N**2
    return CellResult(measured=t, bound=bound, ratio=t / bound)


def _check_t42(params, rng, budgets):
    q = _require_prime(params)
    N = params["N"]
    if not 1 <= N <= q:
        raise InfeasibleCellError("need 1 <= N <= q")
    j = rng.randint(1, q - 1)
    t = tuple_energy(EnergyQuery(4, 2, N, j, q))
    bound = (N ** (5 / 8) / q ** (1 / 8) + N**8 / math.sqrt(q)) * N**6 + N**5
    return CellResult(measured=t, bound=bound, ratio=t / bound)


def _check_e2k_average(params, rng, budgets):
    k, N, Q = params["k"], params["N"], params["Q"]
    if k < 3:
        raise ConfigError("k >= 3 for the prime-average bound")
    if Q < 2 or not 1 <= N <= Q:
        raise InfeasibleCellError("need Q >= 2 and 1 <= N <= Q")
    r = prime_averaged_energy(k, N, Q)
    bound = N**2 + N**4 / Q
    return CellResult(measured=r.value, bound=bound, ratio=r.value / bound)


def _check_e2k_set_doubling(params, rng, budgets):
    q = _require_prime(params)
    k, N = params["k"], params["N"]
    if not 2 <= N <= q // 4:
        raise InfeasibleCellError("need 2 <= N <= q/4")
    if k < 1:
        raise InfeasibleCellError("k must be >= 1")
    L_target = params.get("L", 2)
    try:
        inst = doubling_instance(L_target, N, q, rng)
    except ValueError as exc:  # e.g. a 2-dimensional progression that wraps around F_q
        raise InfeasibleCellError(str(exc)) from exc
    e = set_energy(inst.members, k, q)
    L = float(inst.doubling)
    bound = L ** float(theta_k(k)) * N ** (3 - float(rho_k(k)))
    return CellResult(measured=e, bound=bound, ratio=e / bound)


def _check_gowers_lemmas(params, rng, budgets):
    q = _require_prime(params)
    kmax = params.get("k", 3)
    density = params.get("density", 2)  # |A| ~ q/density
    size = max(2, q // max(density, 1))
    A = IndicatorSet(q, rng.subset(q, size))
    budget = budgets.get("gowers", 10**9)

    norms = {2: gowers_norm(A, 2, budget=budget)}  # each U^m once, both routes checked inside
    u2 = norms[2]
    energy = energy_of(A, 2)
    if u2 != energy:
        return _failed(u2, "u2-energy", f"||1_A||_U2^4 = {u2} but E(A) = {energy}")
    total = int(shift_counts(A).sum())
    if total != A.cardinality**2:
        return _failed(
            total, "shift-identity", f"sum_s |A ∩ (A - s)| = {total} but |A|^2 = {A.cardinality**2}"
        )
    for k in range(2, kmax + 1):
        rep = character_lemma_report(A, k, budget=budget, norms=norms)
        if not rep.all_ok:
            return _failed(
                u2, "character-lemma", f"k={k}: growth_ok={rep.growth_ok} energy_ok={rep.energy_ok}"
            )
    return CellResult(measured=u2, passed=True)


def _failed(measured, reason, message):
    """A hard assertion that failed: the row names the sub-check, the manifest holds the message."""
    return CellResult(measured=measured, passed=False, fail_reason=reason, fail_message=message)


def _check_lattice_geometry(params, rng, budgets):
    d = params["d"]
    qmax = params.get("qmax", 10**4)
    wmax = params.get("wmax", 1000)
    if d not in (2, 3):
        raise InfeasibleCellError("d must be 2 or 3")
    if qmax < 3 or wmax < 1:
        raise InfeasibleCellError("need qmax >= 3 and wmax >= 1")
    q = _random_prime(rng, qmax)
    coeffs = tuple(rng.randint(1, q - 1) for _ in range(d))
    ws = tuple(_random_width(rng, wmax) for _ in range(d))
    rep = verify_geometry(
        CongruenceLattice(coeffs, q), BoxBody(ws), budget=budgets.get("lattice", 10**7)
    )
    res = CellResult(
        measured=rep.point_count,
        bound=rep.count_bound,
        ratio=float(Fraction(rep.point_count) / rep.count_bound),
        passed=rep.all_ok,
    )
    if not rep.all_ok:
        failed = [
            (name, message)
            for name, ok, message in (
                ("minkowski", rep.minkowski_ok, f"minkowski_slack={rep.minkowski_slack}"),
                ("counting", rep.counting_ok, f"K={rep.point_count} > bound {rep.count_bound}"),
                ("transference", rep.transference_ok,
                 "slacks=" + ",".join(map(str, rep.transference_slacks))),
            )
            if not ok
        ]
        res.fail_reason = "+".join(name for name, _ in failed)
        res.fail_message = "; ".join(message for _, message in failed)
    return res


def _check_trichotomy(params, rng, budgets):
    qmax = params.get("qmax", 5000)
    boxmax = params.get("boxmax", 12)
    if qmax < 3 or boxmax < 1:
        raise InfeasibleCellError("need qmax >= 3 and boxmax >= 1")
    q = _random_prime(rng, qmax)
    a, b, c = (rng.randint(1, q - 1) for _ in range(3))
    L, M, N = (rng.randint(1, boxmax) for _ in range(3))
    res = trichotomy_check(a, b, c, L, M, N, q, budget=budgets.get("lattice", 10**7))
    return CellResult(measured=res.point_count, passed=res.holds or res.degenerate_box)


def _check_prodpoly_vanishing(params, rng, budgets):
    k = params["k"]
    xmax = params.get("xmax", 50)
    if k < 2 or xmax < 1:
        raise InfeasibleCellError("need k >= 2 and xmax >= 1")
    F = product_poly(k)
    x1, x2, x3 = (rng.randint(1, xmax) for _ in range(3))
    x4 = x1 + x2 - x3
    if x4 == 0:
        x3 -= 1
        x4 = 1
    tup = tuple(x**k for x in (x1, x2, x3, x4))
    value = F.evaluate(tup)
    if value != 0:
        return _failed(1, "exact-vanishing", f"F{tup} != 0 although {x1} + {x2} = {x3} + {x4}")
    m = rng.randint(2, 10**6)
    if F.evaluate(tup, mod=m) != 0:
        return _failed(1, "mod-m", f"F{tup} = 0 but F{tup} mod {m} != 0")
    j = rng.randint(2, 50)
    scaled = tuple(j * t for t in tup)
    if F.evaluate(scaled) != j ** (k * k) * value:
        return _failed(1, "homogeneity", f"F({j} * {tup}) != {j}^{k * k} * F{tup}")
    return CellResult(measured=0, passed=True)


def _check_tk_growth(params, rng, budgets):
    k, N = params["k"], params["N"]
    if k < 2 or N < 1:
        raise InfeasibleCellError("need k >= 2 and N >= 1")
    t = count_box_zeros(k, N, budget=budgets.get("tk", 2 * 10**7))
    return CellResult(measured=t, bound=N**2, ratio=t / N**2)


def _check_w_ratio(params, rng, budgets):
    q = _require_prime(params)
    M, N = params["M"], params["N"]
    if not (1 <= M <= q / 2 and 1 <= N <= q / 2):
        raise InfeasibleCellError("requires 1 <= M, N <= q/2")
    a = rng.randint(1, q - 1)
    h = rng.randint(0, q - 1)
    alpha = tuple(float(rng.choice([-1, 1])) for _ in dyadic_range(M))
    beta = tuple(float(rng.choice([-1, 1])) for _ in dyadic_range(N))
    rep = bilinear_bound_ratio(BilinearQuery(a, h, M, N, q, alpha, beta))
    return CellResult(measured=abs(rep.value), bound=rep.envelope, ratio=rep.ratio)


def _check_v_ratio(params, rng, budgets):
    q = _require_prime(params)
    M, N, r = params["M"], params["N"], params.get("r", 2)
    if not 1 <= M < N:
        raise InfeasibleCellError("requires 1 <= M < N")
    if M * N > q:
        raise InfeasibleCellError("requires M*N <= q")
    if r < 1:
        raise InfeasibleCellError("r must be >= 1")
    a = rng.randint(1, q - 1)
    h = rng.randint(0, q - 1)
    alpha = tuple(float(rng.choice([-1, 1])) for _ in dyadic_range(M))
    rep = smoothed_bound_ratio(a, h, M, q, alpha, SmoothBump(N), r=r)
    return CellResult(measured=abs(rep.value), bound=rep.envelope, ratio=rep.ratio)


def _check_salie_moment(params, rng, budgets):
    q = _require_prime(params)
    U0, r = params["U0"], params.get("r", 2)
    if q == 2:
        raise InfeasibleCellError("the quadratic character needs odd q")
    if not 0 <= U0 <= q:
        raise InfeasibleCellError("requires 0 <= U0 <= q")
    if r < 1:
        raise InfeasibleCellError("r must be >= 1")
    c = rng.randint(1, q - 1)
    rep = char_inverse_moment(c, U0, r, q)
    return CellResult(measured=rep.moment, bound=rep.envelope, ratio=rep.ratio)


def _check_gamma_ratio(params, rng, budgets):
    q = _require_prime(params)
    P = params["P"]
    if P < 1:
        raise InfeasibleCellError("P must be >= 1")
    ratio = prime_roots_ratio(q, P)
    return CellResult(measured=ratio, bound=1.0, ratio=ratio)


def _random_prime(rng: SplitMix64, qmax: int) -> int:
    while True:
        q = rng.randint(3, qmax)
        if is_prime(q):
            return q


def _random_width(rng: SplitMix64, wmax: int) -> Fraction:
    # log-uniform magnitudes keep enumeration volumes sane across the sweep
    e = rng.uniform01() * math.log(2 * wmax)
    num = max(1, int(math.exp(e)))
    den = rng.choice([1, 1, 2, 3, 4])
    return Fraction(num, den)


CHECKS = {
    "t22-bound": (_check_t22, {"q", "N"}),
    "t42-bound": (_check_t42, {"q", "N"}),
    "e2k-average": (_check_e2k_average, {"k", "N", "Q"}),
    "e2k-set-doubling": (_check_e2k_set_doubling, {"q", "k", "N", "L", "trial"}),
    "gowers-lemmas": (_check_gowers_lemmas, {"q", "k", "density", "trial"}),
    "lattice-geometry": (_check_lattice_geometry, {"d", "qmax", "wmax", "trial"}),
    "trichotomy": (_check_trichotomy, {"qmax", "boxmax", "trial"}),
    "prodpoly-vanishing": (_check_prodpoly_vanishing, {"k", "xmax", "trial"}),
    "tk-growth": (_check_tk_growth, {"k", "N"}),
    "w-ratio": (_check_w_ratio, {"q", "M", "N", "trial"}),
    "v-ratio": (_check_v_ratio, {"q", "M", "N", "r", "trial"}),
    "salie-moment": (_check_salie_moment, {"q", "U0", "r", "trial"}),
    "gamma-ratio": (_check_gamma_ratio, {"q", "P"}),
}

# right-hand side of each ratio check's bound, o(1) factors set to zero
BOUND_FORMULAS = {
    "t22-bound": "(N^(3/2)/q^(1/2) + 1) * N^2",
    "t42-bound": "(N^(5/8)/q^(1/8) + N^8/q^(1/2)) * N^6 + N^5",
    "e2k-average": "N^2 + N^4/Q",
    "e2k-set-doubling": (
        "L^theta_k * N^(3 - rho_k); rho_k = 1/(7*2^(k-1)-9), theta_4 = 48/47, "
        "theta_k = 2^(k+2)*rho_k otherwise"
    ),
    "w-ratio": "q^(1/8) (NM)^(3/4) (N^(3/16) q^(-1/16) + 1)(M^(3/16) q^(-1/16) + 1)",
    "v-ratio": "q^(1/2-1/4r) N^(1/2r) M^(1-1/2r) (1 + (MN)^(1/2) q^(-1/2+1/4r))",
    "salie-moment": "q^(1/2) U0^(2r) + q U0^r",
    "gamma-ratio": "P^(15/16) + q^(1/8) P^(3/4) + q^(1/16) P^(69/80) + q^(13/88) P^(3/4)",
    "tk-growth": "N^2",
}


# ---------------------------------------------------------------------------
# grid expansion and execution


def _expand_axis(value) -> list:
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(f"bad range expression {value!r} (want lo:hi[:step])")
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step < 1:
            raise ConfigError("step must be >= 1")
        return list(range(lo, hi + 1, step))
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def expand_grid(config: SweepConfig) -> list:
    """Cells of the crossed axes, sorted; a key "a,b" is one axis of zipped (a, b) tuples."""
    if config.check not in CHECKS:
        raise ConfigError(f"unknown check {config.check!r}")
    _, schema = CHECKS[config.check]
    keys = []
    cells = [{}]
    for key, value in sorted(config.grid.items()):
        names = key.split(",")
        for name in names:
            if name not in schema:
                raise ConfigError(f"unknown grid key {name!r} for check {config.check}")
            if name in keys:
                raise ConfigError(f"grid key {name!r} appears in two axes")
            keys.append(name)
        if len(names) == 1:
            value = [(v,) for v in _expand_axis(value)]
        elif not isinstance(value, (list, tuple)) or not all(
            isinstance(t, (list, tuple)) and len(t) == len(names) for t in value
        ):
            raise ConfigError(f"paired grid key {key!r} takes a list of {len(names)}-tuples")
        cells = [dict(c, **dict(zip(names, t))) for c in cells for t in value]
    keys.sort()
    cells.sort(key=lambda c: tuple(c[k] for k in keys))
    return cells


def _run_cell(args):
    check_id, params, seed, budgets = args
    fn, _ = CHECKS[check_id]
    rng = SplitMix64(seed)
    start = time.monotonic()
    try:
        res = fn(params, rng, budgets)
    except (BudgetExceededError, CapacityError, InfeasibleCellError) as exc:
        res = CellResult(skip_reason=type(exc).__name__, skip_message=str(exc))
    except ArithmeticError as exc:  # an internal cross-check failed
        res = CellResult(passed=False, fail_reason=type(exc).__name__, fail_message=str(exc))
    ms = int((time.monotonic() - start) * 1000)
    return res, ms


@dataclass
class SweepResult:
    rows: list
    manifest: dict


def run_sweep(config: SweepConfig) -> SweepResult:
    start = time.monotonic()
    cells = expand_grid(config)
    seeds = cell_seeds(config.seed, len(cells))
    jobs = [(config.check, cells[i], seeds[i], config.budgets) for i in range(len(cells))]
    if config.parallelism > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # 20 ms to import; serial sweeps never need it

        with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
            outcomes = list(pool.map(_run_cell, jobs, chunksize=max(1, len(jobs) // (4 * config.parallelism))))
    else:
        outcomes = [_run_cell(j) for j in jobs]

    rows = []
    cell_skips = []
    cell_failures = []
    total_ms = 0
    for cell, (res, ms) in zip(cells, outcomes):
        total_ms += ms
        params = dict(cell)
        if res.skip_reason:
            params["skip"] = res.skip_reason
            cell_skips.append({"params": _fmt_params(params), "message": res.skip_message})
        if res.fail_reason:
            params["fail"] = res.fail_reason
            cell_failures.append({"params": _fmt_params(params), "message": res.fail_message})
        rows.append(
            ReportRow(
                check=config.check,
                params=params,
                measured=res.measured,
                bound=res.bound,
                ratio=res.ratio,
                passed=res.passed,
            )
        )

    ratios = [r.ratio for r in rows if isinstance(r.ratio, (int, float)) and r.ratio is not None]
    manifest = {
        "config": {
            "check": config.check,
            "grid": {k: config.grid[k] for k in sorted(config.grid)},
            "seed": config.seed,
            "parallelism": config.parallelism,
            "budgets": config.budgets,
        },
        "version": __version__,
        "bound_formula": BOUND_FORMULAS.get(config.check),
        "rows": len(rows),
        "passes": sum(1 for r in rows if r.passed is True),
        "failures": sum(1 for r in rows if r.passed is False),
        "skips": sum(1 for r in rows if "skip" in r.params),
        "max_ratio": max(ratios) if ratios else None,
        "wall_ms": int((time.monotonic() - start) * 1000),
        "cell_ms_total": total_ms,
        "cell_skips": cell_skips,
        "cell_failures": cell_failures,
    }
    return SweepResult(rows, manifest)


# ---------------------------------------------------------------------------
# report rendering


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _fmt_params(params: dict) -> str:
    return ";".join(f"{k}={_fmt(v)}" for k, v in sorted(params.items()))


def render_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "params", "measured", "bound", "ratio", "pass", "ms"])
    for r in rows:
        writer.writerow(
            [r.check, _fmt_params(r.params), _fmt(r.measured), _fmt(r.bound), _fmt(r.ratio), _fmt(r.passed), "0"]
        )
    return buf.getvalue()


def render_json(rows) -> str:
    objs = [
        {
            "check": r.check,
            "params": _fmt_params(r.params),
            "measured": _fmt(r.measured),
            "bound": _fmt(r.bound),
            "ratio": _fmt(r.ratio),
            "pass": _fmt(r.passed),
            "ms": "0",  # timings live in the manifest; the column keeps the report layout
        }
        for r in rows
    ]
    return json.dumps(objs, indent=1, sort_keys=True) + "\n"


def emit(result: SweepResult, fmt: str, path: str) -> None:
    """Write the report rows to path (csv or json) and the manifest alongside."""
    if fmt == "csv":
        payload = render_csv(result.rows)
    elif fmt == "json":
        payload = render_json(result.rows)
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    try:
        with open(path, "w") as fh:
            fh.write(payload)
        with open(path + ".manifest.json", "w") as fh:
            json.dump(result.manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"while writing report to {path}: {exc}") from exc
