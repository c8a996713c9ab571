"""The benchmark's tracer still finds every call site it wraps.

perfbench/tracing.py wraps functions by name (energy.cyclic_convolve,
harness.tuple_energy, ...) and reads convolve.NAIVE_THRESHOLD; a boundary it
cannot find is skipped silently and its layer reads zero.  This test loads the
tracer from its file, installs it for one t42-bound and one gamma-ratio cell,
and for a gowers-lemmas and a t22-bound cell whose row stacks and set are
dense, and checks that no boundary is missing beyond those already absent
from the code, and that the metrics it reads from the code still compute.
"""

import importlib.util
from pathlib import Path

from modroots import convolve
from modroots.equidist import prime_roots_discrepancy
from modroots.harness import SweepConfig, run_sweep

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# the harness no longer imports shift_intersection: it reads gowers.shift_counts;
# energy no longer imports residue_map: roots and preimages come from modular's power scan;
# equidist no longer imports sqrt_mod: the roots of all primes come from one root_rows call,
# nor primes_in: it reads the sieve's int64 array from modular.prime_array
ALREADY_ABSENT = {
    "modroots.expsums.kth_roots",
    "modroots.harness.shift_intersection",
    "modroots.energy.residue_map",
    "modroots.equidist.sqrt_mod",
    "modroots.equidist.primes_in",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_boundary(monkeypatch):
    tracing = load_tracing()
    for owner, name, *_ in tracing._boundaries():
        if hasattr(owner, name):
            monkeypatch.setattr(owner, name, getattr(owner, name))  # restored after the test
    tracer = tracing.Tracer()
    tracer.install()
    assert set(tracer.missing) <= ALREADY_ABSENT
    assert isinstance(convolve.NAIVE_THRESHOLD, int)

    res = run_sweep(SweepConfig("t42-bound", {"q": [1009], "N": [60]}, seed=1))
    (row,) = res.rows
    assert "skip" not in row.params and row.measured > 0
    metrics = tracer.layer_metrics()
    assert metrics["energy.calls"] >= 1 and metrics["modular.calls"] >= 1
    # q = 1009 is above NAIVE_THRESHOLD: the convolve layer sees a transform
    assert metrics["convolve.calls"] >= 1 and metrics["convolve.ntt_calls"] >= 1

    # the tracer counts the discrepancy's points through modular.sqrt_mod
    res = run_sweep(SweepConfig("gamma-ratio", {"q": [101], "P": [40]}, seed=1))
    (row,) = res.rows
    assert "skip" not in row.params
    metrics = tracer.layer_metrics()
    assert metrics["equidist.calls"] >= 1
    assert metrics["equidist.points"] == len(prime_roots_discrepancy(101, 40).points.nums) == 14

    # dense Gowers rows and a dense preimage go through energy._dense_counts' FFT blocks
    for check, grid in (("gowers-lemmas", {"q": [1009], "k": [2]}), ("t22-bound", {"q": [1009], "N": [400]})):
        (row,) = run_sweep(SweepConfig(check, grid, seed=1)).rows
        assert "skip" not in row.params and row.measured > 0
        assert tracer.layer_metrics()["energy.calls"] >= 1
