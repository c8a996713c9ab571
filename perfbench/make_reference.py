#!/usr/bin/env python3
"""Write perfbench/reference.json: every cell's exact output at the reference seed.

    python3 perfbench/make_reference.py

Runs each workload once, at full and at reduced size, with the seed named in
perfbench/design.json, and records [measured, passed, skip reason, ratio]
per cell.  The committed file was generated from the unmodified toolkit; the
benchmark compares every run against it, so regenerate it only when a grid
changes, and only from code whose outputs are known to be right.
"""

import json
import os

import run


def main():
    design = run._load(os.path.join(run.HERE, "design.json"))
    seed = design["reference_seed"]
    reference = {"seed": seed}
    for size in ("full", "small"):
        reference[size] = {}
        for workload in design["workloads"]:
            record = run._child(workload, seed, size, traced=False)
            cells = reference[size][workload] = {}
            for sweep in record["sweeps"]:
                if "error" in sweep:
                    raise run.BenchError(f"{workload} {sweep['check']}: {sweep['error']}")
                cells[sweep["check"]] = {row[0]: row[1:] for row in sweep["rows"]}
            print(f"{size} {workload}: {sum(len(c) for c in cells.values())} cells")
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
