"""Command-line surface.

Subcommands mirror the module operations: energy, gowers, lattice, poly,
expsum, discrepancy, sweep.  Sweeps read JSON configs (--config) with flags
taking precedence; exit codes: 0 all hard assertions passed, 2 at least one
failed, 3 config or input error (a config file that is missing, does not
hold a JSON object, or has a grid or budgets that is not an object, a budget,
parallelism or seed that is not an int, or a parallelism or --threads below
1), an --out path that cannot be written (a sweep refuses it before any cell
runs), or a computation refused by a capacity cap, a work budget or a degenerate input
(CapacityError, BudgetExceededError, DegenerateError).  Each exit 3 prints
one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .energy import EnergyQuery, prime_averaged_energy, set_energy, tuple_energy
from .equidist import PointMultiset, discrepancy, prime_roots_discrepancy, prime_roots_ratio
from .errors import BudgetExceededError, CapacityError, ConfigError, DegenerateError
from .expsums import (
    BilinearQuery,
    SmoothBump,
    bilinear_bound_ratio,
    bilinear_root_sum,
    char_inverse_moment,
    dyadic_range,
    smoothed_bound_ratio,
    smoothed_root_sum,
)
from .gowers import character_lemma_report, gowers_norm, shift_intersection
from .harness import SweepConfig, emit, render_csv, render_json, run_sweep
from .lattice import BoxBody, CongruenceLattice, count_points, successive_minima, trichotomy_check, verify_geometry
from .modular import gauss_sum, kth_roots, preimage_set, primes_in
from .prodpoly import count_box_zeros, product_poly, to_text
from .rng import SplitMix64
from .sets import IndicatorSet


def _parse_set(q: int, text: str) -> IndicatorSet:
    return IndicatorSet.of(q, [int(x) for x in text.split(",") if x != ""])


def _weights(arg, count, rng):
    if arg == "unit":
        return tuple(1.0 for _ in range(count))
    if arg == "pm1":
        return tuple(float(rng.choice([-1, 1])) for _ in range(count))
    vals = [float(x) for x in arg.split(",")]
    if len(vals) != count:
        raise ConfigError(f"expected {count} weights, got {len(vals)}")
    return tuple(vals)


def cmd_energy(args, rng):
    if args.op == "T":
        print(tuple_energy(EnergyQuery(args.nu, args.k, args.N, args.j, args.q)))
    elif args.op == "set":
        target = _parse_set(args.q, args.members)
        print(set_energy(target, args.k, args.q))
    elif args.op == "avg":
        r = prime_averaged_energy(args.k, args.N, args.Q)
        print(f"total={r.total} value={r.value:.12g} primes={len(r.primes)}")
    elif args.op == "preimage":
        A = preimage_set(args.j, args.k, args.N, args.q)
        print(",".join(str(x) for x in A.members.tolist()))
    elif args.op == "roots":
        print(",".join(str(x) for x in sorted(kth_roots(args.j, args.k, args.q))))
    elif args.op == "primes":
        print(",".join(str(p) for p in primes_in(args.N, args.Q)))
    return 0


def cmd_gowers(args, rng):
    A = _parse_set(args.q, args.members)
    if args.op == "norm":
        print(gowers_norm(A, args.k))
    elif args.op == "lemmas":
        rep = character_lemma_report(A, args.k)
        print(
            f"vacuous={rep.vacuous} growth_ok={rep.growth_ok} growth_ratio={rep.growth_ratio:.6g} "
            f"energy_ok={rep.energy_ok} energy_ratio={rep.energy_ratio:.6g}"
        )
        return 0 if rep.all_ok else 2
    elif args.op == "shift":
        shifts = [int(x) for x in args.shifts.split(",") if x != ""]
        print(",".join(str(x) for x in shift_intersection(A, shifts).members.tolist()))
    return 0


def _print_or_write(text: str, path) -> None:
    """text on stdout, or as the file at the --out path."""
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _box(args) -> BoxBody:
    return BoxBody(tuple(Fraction(w) for w in args.widths.split(",")))


def cmd_lattice(args, rng):
    lat = CongruenceLattice(tuple(int(a) for a in args.coeffs.split(",")), args.q)
    if args.op == "count":
        print(count_points(lat, _box(args)))
    elif args.op == "minima":
        m = successive_minima(lat, _box(args))
        if m.degenerate:
            print("degenerate")
        else:
            lam = " ".join(f"{l.numerator}/{l.denominator}" for l in m.lambdas)
            print(f"lambdas: {lam}  witnesses: {m.witnesses}")
    elif args.op == "geometry":
        rep = verify_geometry(lat, _box(args))
        print(
            f"count={rep.point_count} minkowski_ok={rep.minkowski_ok} counting_ok={rep.counting_ok} "
            f"transference_ok={rep.transference_ok}"
        )
        return 0 if rep.all_ok else 2
    elif args.op == "trichotomy":
        res = trichotomy_check(args.a, args.b, args.c, args.L, args.M, args.N, args.q)
        print(
            f"K={res.point_count} sparse={res.case_sparse} one_short={res.case_one_short} "
            f"dual_point={res.case_dual_point} degenerate={res.degenerate_box} holds={res.holds}"
        )
        return 0 if (res.holds or res.degenerate_box) else 2
    return 0


def cmd_poly(args, rng):
    F = product_poly(args.k)
    if args.op == "construct":
        print(f"terms={len(F.terms)} degree={F.homogeneous_degree()}")
    elif args.op == "export":
        _print_or_write(to_text(F), args.out)
    elif args.op == "eval":
        n = tuple(int(x) for x in args.point.split(","))
        print(F.evaluate(n, mod=args.mod))
    elif args.op == "zeros":
        print(count_box_zeros(args.k, args.N))
    return 0


def cmd_expsum(args, rng):
    if args.op == "W":
        alpha = _weights(args.alpha, len(dyadic_range(args.M)), rng)
        beta = _weights(args.beta, len(dyadic_range(args.N)), rng)
        query = BilinearQuery(args.a, args.h, args.M, args.N, args.q, alpha, beta)
        if args.ratio:
            rep = bilinear_bound_ratio(query)
            print(f"value={abs(rep.value):.12g} envelope={rep.envelope:.12g} ratio={rep.ratio:.12g}")
        else:
            print(f"{bilinear_root_sum(query):.12g}")
    elif args.op == "V":
        alpha = _weights(args.alpha, len(dyadic_range(args.M)), rng)
        bump = SmoothBump(args.N)
        if args.ratio:
            rep = smoothed_bound_ratio(args.a, args.h, args.M, args.q, alpha, bump, r=args.r)
            print(f"value={abs(rep.value):.12g} envelope={rep.envelope:.12g} ratio={rep.ratio:.12g}")
        else:
            print(f"{smoothed_root_sum(args.a, args.h, args.M, args.q, alpha, bump):.12g}")
    elif args.op == "salie":
        rep = char_inverse_moment(args.c, args.U0, args.r, args.q)
        print(f"moment={rep.moment:.12g} envelope={rep.envelope:.12g} ratio={rep.ratio:.12g}")
    elif args.op == "gauss":
        print(f"{gauss_sum(args.a, args.h, args.q):.12g}")
    return 0


def cmd_discrepancy(args, rng):
    if args.op == "value":
        pts = [Fraction(x) for x in args.points.split(",") if x != ""]
        res = discrepancy(PointMultiset.of(pts))
        print(f"{res.value.numerator}/{res.value.denominator} witness={res.witness}")
    elif args.op == "gamma":
        res = prime_roots_discrepancy(args.q, args.P)
        v = res.value
        print(f"{v.numerator}/{v.denominator}")
    elif args.op == "ratio":
        print(f"{prime_roots_ratio(args.q, args.P):.12g}")
    elif args.op == "export":
        _print_or_write(prime_roots_discrepancy(args.q, args.P).points.export_lines(), args.out)
    return 0


def _read_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path} holds a JSON {type(cfg).__name__}, not an object")
    return cfg


def _config_fields(cfg: dict) -> dict:
    """The config's grid, budgets, parallelism and seed, each checked for its type."""
    fields = {"grid": {}, "budgets": {}, "parallelism": 1, "seed": 0, **cfg}
    for key in ("grid", "budgets"):
        if not isinstance(fields[key], dict):
            raise ConfigError(f"config field {key!r} must be an object, got {fields[key]!r}")
    ints = {f"config field {key!r}": fields[key] for key in ("parallelism", "seed")}
    ints.update((f"budget {key!r}", value) for key, value in fields["budgets"].items())
    for name, value in ints.items():
        if type(value) is not int:  # not isinstance: a JSON true is a bool, an int subclass
            raise ConfigError(f"{name} must be an int, got {value!r}")
    if fields["parallelism"] < 1:
        raise ConfigError(f"config field 'parallelism' must be at least 1, got {fields['parallelism']}")
    return fields


def _require_writable(path: str) -> None:
    """Refuse an --out path whose directory is missing or read-only before any work."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise OSError(f"cannot write report to {path}: no writable directory {folder}")


def cmd_sweep(args, rng):
    cfg = _config_fields(_read_config(args.config) if args.config else {})
    check = args.check or cfg.get("check")
    if not check:
        raise ConfigError("sweep needs --check or a config file with a check")
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    if args.out:
        _require_writable(args.out)
    grid = dict(cfg["grid"])
    for entry in args.grid or []:
        if "=" not in entry:
            raise ConfigError(f"bad --grid entry {entry!r} (want key=value)")
        key, value = entry.split("=", 1)
        if "," in value:
            grid[key] = [int(x) for x in value.split(",")]
        else:
            grid[key] = value if ":" in value else int(value)
    config = SweepConfig(
        check=check,
        grid=grid,
        seed=args.seed if args.seed is not None else cfg["seed"],
        parallelism=args.threads or cfg["parallelism"],
        budgets=cfg["budgets"],
    )
    result = run_sweep(config)
    if args.out:
        emit(result, args.format, args.out)
    else:
        sys.stdout.write(render_csv(result.rows) if args.format == "csv" else render_json(result.rows))
    summary = result.manifest
    print(
        f"# rows={summary['rows']} passes={summary['passes']} failures={summary['failures']} "
        f"skips={summary['skips']} max_ratio={summary['max_ratio']}",
        file=sys.stderr,
    )
    return 2 if summary["failures"] else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="modroots", description=__doc__)
    p.add_argument("--seed", type=int, default=None, help="64-bit PRNG seed")
    p.add_argument("--threads", type=int, default=None, help="worker count for sweeps")
    p.add_argument("--out", default=None, help="output path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = p.add_subparsers(dest="command", required=True)

    e = sub.add_parser("energy", help="representation counts and energies")
    e.add_argument("--op", choices=("T", "set", "avg", "preimage", "roots", "primes"), required=True)
    e.add_argument("--nu", type=int, default=2)
    e.add_argument("--k", type=int, default=2)
    e.add_argument("--N", type=int, default=1)
    e.add_argument("--j", type=int, default=1)
    e.add_argument("--q", type=int, default=7)
    e.add_argument("--Q", type=int, default=100)
    e.add_argument("--members", default="")

    g = sub.add_parser("gowers", help="uniformity norms and the norm inequalities")
    g.add_argument("--op", choices=("norm", "lemmas", "shift"), required=True)
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--members", required=True, help="comma-separated residues")
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--shifts", default="")

    l = sub.add_parser("lattice", help="congruence lattices and boxes")
    l.add_argument("--op", choices=("count", "minima", "geometry", "trichotomy"), required=True)
    l.add_argument("--q", type=int, required=True)
    l.add_argument("--coeffs", default="1,1", help="comma-separated congruence coefficients")
    l.add_argument("--widths", default="1,1", help="comma-separated rational half-widths")
    l.add_argument("--a", type=int, default=1)
    l.add_argument("--b", type=int, default=1)
    l.add_argument("--c", type=int, default=1)
    l.add_argument("--L", type=int, default=1)
    l.add_argument("--M", type=int, default=1)
    l.add_argument("--N", type=int, default=1)

    y = sub.add_parser("poly", help="product polynomials")
    y.add_argument("--op", choices=("construct", "export", "eval", "zeros"), required=True)
    y.add_argument("--k", type=int, required=True)
    y.add_argument("--point", default="1,1,1,1")
    y.add_argument("--mod", type=int, default=None)
    y.add_argument("--N", type=int, default=10)

    x = sub.add_parser("expsum", help="bilinear and smoothed root sums, moments")
    x.add_argument("--op", choices=("W", "V", "salie", "gauss"), required=True)
    x.add_argument("--q", type=int, required=True)
    x.add_argument("--a", type=int, default=1)
    x.add_argument("--h", type=int, default=0)
    x.add_argument("--c", type=int, default=1)
    x.add_argument("--M", type=int, default=4)
    x.add_argument("--N", type=int, default=4)
    x.add_argument("--U0", type=int, default=4)
    x.add_argument("--r", type=int, default=2)
    x.add_argument("--alpha", default="unit", help='"unit", "pm1", or comma-separated')
    x.add_argument("--beta", default="unit")
    x.add_argument("--ratio", action="store_true", help="report the bound ratio")

    d = sub.add_parser("discrepancy", help="extreme discrepancy and prime-root points")
    d.add_argument("--op", choices=("value", "gamma", "ratio", "export"), required=True)
    d.add_argument("--points", default="")
    d.add_argument("--q", type=int, default=7)
    d.add_argument("--P", type=int, default=5)

    s = sub.add_parser("sweep", help="run a registered check over a parameter grid")
    s.add_argument("--check", default=None)
    s.add_argument("--config", default=None, help="JSON config file")
    s.add_argument("--grid", action="append", default=None, metavar="key=value",
                   help="grid axis (repeatable): key=1,2,3 or key=lo:hi:step")

    return p


_HANDLERS = {
    "energy": cmd_energy,
    "gowers": cmd_gowers,
    "lattice": cmd_lattice,
    "poly": cmd_poly,
    "expsum": cmd_expsum,
    "discrepancy": cmd_discrepancy,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rng = SplitMix64(args.seed if args.seed is not None else 0)
    try:
        return _HANDLERS[args.command](args, rng)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # malformed input, e.g. a coefficient sharing a factor with q
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except (CapacityError, BudgetExceededError, DegenerateError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # from writing --out; an unreadable config is a ConfigError
        print(f"output error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
