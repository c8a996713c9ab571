#!/usr/bin/env python3
"""Run every ratio check over its default desk-scale grid and write reports.

Writes one CSV report plus manifest per check under reports/ and prints the
grid-max ratio table (the numbers to pin for regression), with each
check's wall time from its manifest.  Hard-assertion
checks (gowers-lemmas, lattice-geometry, trichotomy, prodpoly-vanishing) run
last; a nonzero exit means one of them failed.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from modroots.harness import SweepConfig, emit, run_sweep
from modroots.modular import primes_in

RATIO_GRIDS = [
    ("t22-bound", {"q": primes_in(37, 503), "N": [4, 8, 16, 32]}),
    ("t42-bound", {"q": [101, 199, 307, 499], "N": [4, 6, 8]}),
    ("e2k-average", {"k": [3], "N": [2, 8, 16, 30], "Q": [40, 400, 2000]}),
    ("e2k-set-doubling", {"q": [10007], "k": [3, 4], "N": [8, 16, 32], "trial": "1:3"}),
    ("w-ratio", {"q": [199, 499], "M": [8, 16, 32], "N": [8, 16, 32], "trial": "1:2"}),
    ("v-ratio", {"q": [499, 997], "M": [4, 8], "N": [32, 60], "r": [2], "trial": "1:2"}),
    ("salie-moment", {"q": [101, 499, 997], "U0": [4, 16, 64], "r": [2], "trial": "1:2"}),
    ("gamma-ratio", {"q,P": [(q, int(q**0.8)) for q in (101, 499, 1009, 2003, 4999)]}),
    ("tk-growth", {"k": [3], "N": [5, 10, 15, 20, 25]}),
]

HARD_GRIDS = [
    ("gowers-lemmas", {"q": [31, 61], "k": [3], "trial": "1:25"}),
    ("lattice-geometry", {"d": [2, 3], "qmax": [10000], "wmax": [1000], "trial": "1:500"}),
    ("trichotomy", {"qmax": [5000], "boxmax": [12], "trial": "1:200"}),
    ("prodpoly-vanishing", {"k": [2, 3, 4], "trial": "1:50"}),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="reports")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    print(f"{'check':24s} {'rows':>6s} {'skips':>6s} {'max ratio':>12s} {'wall ms':>8s}")
    failures = 0
    for check, grid in RATIO_GRIDS:
        res = run_sweep(SweepConfig(check, grid, seed=args.seed, parallelism=args.threads))
        emit(res, "csv", os.path.join(args.out_dir, f"{check}.csv"))
        m = res.manifest
        print(f"{check:24s} {m['rows']:6d} {m['skips']:6d} {m['max_ratio']:12.5g} {m['wall_ms']:8d}")
        failures += m["failures"]

    print("\nhard-assertion checks:")
    for check, grid in HARD_GRIDS:
        res = run_sweep(SweepConfig(check, grid, seed=args.seed, parallelism=args.threads))
        emit(res, "csv", os.path.join(args.out_dir, f"{check}.csv"))
        m = res.manifest
        status = "ok" if m["failures"] == 0 else f"{m['failures']} FAILURES"
        print(f"{check:24s} {m['rows']:6d} rows  {status:12s} {m['wall_ms']:8d} ms")
        failures += m["failures"]

    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
