#!/usr/bin/env python3
"""Benchmark of modroots sweeps, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --self-check

A workload is a list of `harness.run_sweep` sweeps on fixed grids
(perfbench/design.json), each with SweepConfig.seed = --seed and
parallelism 1.  One repetition runs the whole workload in a fresh interpreter
(perfbench/child.py), so module caches start cold as they do for every
`modroots sweep` invocation.  Repetitions run while the next one is expected to end
within --seconds (at least MIN_REPS of them) and every metric is the median
over them.

--trace 0 reports the end-to-end metrics, measured untraced:
  setup_s      interpreter start until `import modroots` has returned and the
               sweep configs (prime-list axes included) are built
  wall_s       time to finish every cell
  peak_rss_mb  peak resident memory of the repetition's process, in MiB
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of perfbench/tracing.py, plus trace.overhead_frac, the
traced over the untraced wall time minus 1.

Every cell of every repetition is checked.  A cell fails when its hard check
returns passed=False, when its sweep raises, when its output differs from
perfbench/reference.json (all cells at the reference seed; at other seeds
the cells of checks that draw no randomness), or when it differs between
repetitions.  `measured` and `ratio` floats may differ by 1e-9 relative;
everything else must match exactly.  fail_frac = failed / attempted.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A result file with provenance goes
to perfbench/results/.  --self-check runs every workload at reduced size and
asserts that the metrics are emitted with their units, that a perturbed
reference value is counted as a failure, and that the traced layer self
times sum to the traced wall time within 5 %.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
MIN_REPS = 3  # repetitions, traced ones included
CHILD_TIMEOUT_S = 120
FLOAT_RTOL = 1e-9
CLOSURE_TOL = 0.05


class BenchError(Exception):
    pass


def _expect(condition, message):
    if not condition:
        raise BenchError(f"self-check: {message}")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# repetitions


def _child(workload, seed, size, traced, spans=None) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
        "--seed", str(seed), "--size", size, "--trace", str(int(traced)),
    ]
    if spans:
        cmd += ["--spans", spans]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_s"] = record.pop("setup_done") - started
    record["traced"] = traced
    return record


def repeat(workload, seed, seconds, trace, size="full") -> list:
    """Untraced (and with trace, traced) repetitions until `seconds` have passed."""
    spans = os.path.join(RESULTS, f"spans-{workload}-seed{seed}.jsonl") if trace else None
    if spans:
        os.makedirs(RESULTS, exist_ok=True)
    records = []
    start = time.monotonic()
    rounds = 0
    while True:
        records.append(_child(workload, seed, size, traced=False))
        if trace:
            records.append(_child(workload, seed, size, traced=True, spans=spans))
        rounds += 1
        elapsed = time.monotonic() - start
        if len(records) >= MIN_REPS and elapsed * (rounds + 1) / rounds > seconds:
            return records


# ---------------------------------------------------------------------------
# correctness


def _same(a, b) -> bool:
    if type(a) is float and type(b) is float:
        return a == b or abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))
    return type(a) is type(b) and a == b


def _same_output(a, b) -> bool:
    """a, b: [measured, passed, skip, ratio]."""
    return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))


def judge(records, expected, seed_free, all_checks) -> tuple:
    """(attempted, failed, failure notes) over every cell of every repetition.

    expected: {check: {params key: [measured, passed, skip, ratio]}}, compared
    for every check when all_checks, else only for the checks in seed_free.
    """
    attempted = failed = 0
    notes = []
    first = records[0]["sweeps"]
    for rep, record in enumerate(records):
        for index, sweep in enumerate(record["sweeps"]):
            check = sweep["check"]
            attempted += sweep["cells"]
            if "error" in sweep:
                failed += sweep["cells"]
                notes.append(f"rep {rep} {check}: sweep raised {sweep['error']}")
                continue
            want = expected.get(check, {}) if all_checks or check in seed_free else None
            base = first[index].get("rows", [])
            for i, row in enumerate(sweep["rows"]):
                key, output = row[0], row[1:]
                if output[1] is False:
                    reason = "hard check failed"
                elif want is not None and key not in want:
                    reason = "cell missing from the reference"
                elif want is not None and not _same_output(output, want[key]):
                    reason = f"output {output} differs from reference {want[key]}"
                elif i >= len(base) or base[i][0] != key or not _same_output(output, base[i][1:]):
                    reason = "output differs from the first repetition"
                else:
                    continue
                failed += 1
                notes.append(f"rep {rep} {check} [{key}]: {reason}")
    return attempted, failed, notes


def digest(record) -> str:
    """sha256 of a repetition's exact outputs; floats rounded to 8 significant digits."""

    def canon(x):
        return format(x, ".7e") if type(x) is float else x

    rows = [
        [s["check"], s.get("error")] + [[canon(x) for x in row] for row in s.get("rows", [])]
        for s in record["sweeps"]
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# ---------------------------------------------------------------------------
# metrics


def _median(records, key):
    return statistics.median(r[key] for r in records)


def metrics(records, bench, trace) -> dict:
    plain = [r for r in records if not r["traced"]]
    if not trace:
        values = {
            "setup_s": _median(plain, "setup_s"),
            "wall_s": _median(plain, "wall_s"),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
        }
        specs = bench["end_to_end"]
    else:
        traced = [r for r in records if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        values["trace.overhead_frac"] = _median(traced, "wall_s") / _median(plain, "wall_s") - 1
        specs = bench["per_layer"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def closure(record) -> float:
    """|sum of layer self times - traced wall time| / traced wall time."""
    total = sum(v for k, v in record["layers"].items() if k.endswith(".self_s"))
    return abs(total - record["wall_s"]) / record["wall_s"]


# ---------------------------------------------------------------------------
# provenance


def _commit():
    """HEAD of the checkout's own git repository, or None outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256():
    src = os.path.join(ROOT, "src", "modroots")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(seed, workloads, design) -> dict:
    cores = len(os.sched_getaffinity(0))
    load1 = os.getloadavg()[0]
    if load1 > cores:
        print(f"warning: 1-minute load average {load1:.2f} exceeds the {cores} usable cores", file=sys.stderr)
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": cores,
        "loadavg_1m": load1,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "grids": {w: design["workloads"][w]["full"] for w in workloads},
    }


# ---------------------------------------------------------------------------
# modes


def run_workload(workload, seed, seconds, trace, bench, design, reference, size="full"):
    records = repeat(workload, seed, seconds, trace, size)
    expected = reference[size].get(workload, {})
    attempted, failed, notes = judge(
        records, expected, set(design["seed_free_checks"]), seed == reference["seed"]
    )
    return records, attempted, failed, notes, metrics(records, bench, trace)


def _summary(workload, values, attempted, failed, records):
    shown = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in values.items())
    reps = sum(1 for r in records if not r["traced"])
    print(f"{workload}: {shown} fail_frac={failed / attempted:.6g} (of {attempted} cells, {reps} reps)"
          f" digest={digest(records[0])[:16]}")


def main_run(args, bench, design, reference):
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or all")
    prov = provenance(args.seed, workloads, design)
    total_attempted = total_failed = 0
    combined = {}
    for w in workloads:
        records, attempted, failed, notes, values = run_workload(
            w, args.seed, args.seconds, args.trace, bench, design, reference
        )
        prov["numpy"] = records[0]["numpy"]
        _summary(w, values, attempted, failed, records)
        for note in notes[:20]:
            print(f"  FAIL {note}", file=sys.stderr)
        missing = {b for r in records for b in r.get("missing_boundaries", ())}
        if missing:
            print(f"warning: boundaries not traced (absent from the code): {sorted(missing)}", file=sys.stderr)
        os.makedirs(RESULTS, exist_ok=True)
        result = {
            "workload": w, "trace": args.trace, "seconds": args.seconds, "provenance": prov,
            "metrics": values, "attempted": attempted, "failed": failed,
            "fail_frac": failed / attempted, "failures": notes[:200], "digest": digest(records[0]),
            "repetitions": [{k: v for k, v in r.items() if k != "sweeps"} for r in records],
        }
        with open(os.path.join(RESULTS, f"{w}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
            json.dump(result, fh, indent=1)
        total_attempted += attempted
        total_failed += failed
        prefix = "" if len(workloads) == 1 else f"{w}/"
        combined.update({prefix + k: v for k, v in values.items()})
    print(json.dumps({
        "correct": total_failed == 0, "attempted": total_attempted,
        "failed": total_failed, "metrics": combined,
    }))


def self_check(bench, design, reference):
    seed = reference["seed"]
    moves = design["moves"]
    layer_names = [m["name"] for m in bench["per_layer"]]
    _expect(sorted(layer_names) == sorted(moves), "per-layer metrics and design.json moves disagree")
    _expect([w["name"] for w in bench["workloads"]] == list(design["workloads"]),
            "BENCHMARK.json and design.json list different workloads")
    for w in design["workloads"]:
        records, attempted, failed, notes, layer_values = run_workload(
            w, seed, 0, True, bench, design, reference, size="small"
        )
        e2e = metrics(records, bench, trace=False)
        for spec, values in ((bench["end_to_end"], e2e), (bench["per_layer"], layer_values)):
            for m in spec:
                _expect(values[m["name"]]["unit"] == m["unit"], f"{w}: {m['name']} unit")
                _expect(isinstance(values[m["name"]]["value"], (int, float)), f"{w}: {m['name']} value")
        _expect(failed == 0, f"{w}: {failed} cells failed against the reference: {notes[:5]}")

        expected = copy.deepcopy(reference["small"][w])
        check, cells = next((c, rows) for c, rows in expected.items()
                            if any(type(r[0]) is int for r in rows.values()))
        key = next(k for k, r in cells.items() if type(r[0]) is int)
        cells[key][0] += 1
        _, perturbed, _ = judge(records, expected, set(), True)
        _expect(perturbed == len(records), f"{w}: perturbed {check} [{key}] gave {perturbed} failures")

        worst = max(closure(r) for r in records if r["traced"])
        _expect(worst <= CLOSURE_TOL, f"{w}: layer self times miss the traced wall time by {worst:.1%}")
        print(f"{w}: ok  cells={attempted} e2e={ {k: round(v['value'], 4) for k, v in e2e.items()} }"
              f" closure={worst:.2%}")
    print("self-check passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "modroots", "__init__.py")):
        sys.exit(f"no modroots sources under {os.path.join(ROOT, 'src')}")
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    design = _load(os.path.join(HERE, "design.json"))
    reference = _load(os.path.join(HERE, "reference.json"))
    try:
        if args.self_check:
            self_check(bench, design, reference)
        elif args.workload is None or args.seed is None or args.seconds is None:
            ap.error("--workload, --seed and --seconds are required")
        else:
            main_run(args, bench, design, reference)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"benchmark failed: {exc}")


if __name__ == "__main__":
    main()
