"""Run one benchmark workload once in this fresh interpreter; print a JSON record.

    python3 perfbench/child.py --workload NAME --seed N --size full|small --trace 0|1 [--spans FILE]

run.py starts one child per repetition so that every lru_cache starts cold,
as it does for each `modroots sweep` invocation.  The record holds the
monotonic clock reading when set-up ended (interpreter start, `import
modroots`, sweep configs built), the wall and process CPU time of the
sweeps (their difference is time spent waiting for a core), the peak
resident memory, every cell's exact output and, with --trace 1, the
per-layer metrics.  --spans writes the traced run's spans as JSON lines.
"""

import argparse
import json
import os
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _plain(value):
    """JSON form of a cell output that keeps it exact; Fractions become "n/d"."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return repr(value)


def _row(row) -> list:
    """[params key, measured, passed, skip reason, ratio] of one report row."""
    params = dict(row.params)
    skip = params.pop("skip", None)
    key = ";".join(f"{k}={params[k]}" for k in sorted(params))
    return [key, _plain(row.measured), _plain(row.passed), skip, _plain(row.ratio)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "small"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import modroots
    from modroots import harness
    from modroots.modular import primes_in

    if not os.path.abspath(modroots.__file__).startswith(SRC + os.sep):
        sys.exit(f"modroots was imported from {modroots.__file__}, not from {SRC}")
    with open(os.path.join(HERE, "design.json")) as fh:
        design = json.load(fh)
    sweeps = []
    for sweep in design["workloads"][args.workload][args.size]:
        grid = {
            key: primes_in(*value["primes"]) if isinstance(value, dict) else value
            for key, value in sweep["grid"].items()
        }
        config = harness.SweepConfig(
            sweep["check"], grid, seed=args.seed, parallelism=1, budgets=sweep.get("budgets", {})
        )
        sweeps.append((config, len(harness.expand_grid(config))))
    run_sweep = harness.run_sweep
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        run_sweep = tracer.wrap(run_sweep, "harness.run_sweep", "harness")
    setup_done = time.monotonic()

    outcomes = []
    start, cpu_start = time.perf_counter(), time.process_time()
    for config, _ in sweeps:
        try:
            outcomes.append(run_sweep(config))
        except Exception as exc:  # a sweep that dies fails all its cells; the run goes on
            outcomes.append(exc)
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    record = {
        "setup_done": setup_done,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "numpy": sys.modules["numpy"].__version__,
        "sweeps": [],
    }
    for (config, cells), out in zip(sweeps, outcomes):
        entry = {"check": config.check, "cells": cells}
        if isinstance(out, Exception):
            entry["error"] = f"{type(out).__name__}: {out}"
        else:
            entry["rows"] = [_row(r) for r in out.rows]
        record["sweeps"].append(entry)
    if tracer:
        layers = tracer.layer_metrics()
        rows = [r for e in record["sweeps"] for r in e.get("rows", ())]
        layers["harness.cells"] = len(rows)
        layers["harness.skipped_cells"] = sum(1 for r in rows if r[3] is not None)
        record["layers"] = layers
        record["missing_boundaries"] = tracer.missing
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
