import csv
import dataclasses
import io
import json
import types
from fractions import Fraction

import numpy as np
import pytest

import modroots.gowers as gowers
import modroots.harness as harness
from modroots.errors import ConfigError
from modroots.harness import (
    BOUND_FORMULAS,
    CHECKS,
    SweepConfig,
    _fmt,
    doubling_instance,
    emit,
    expand_grid,
    render_csv,
    render_json,
    rho_k,
    run_sweep,
    theta_k,
)
from modroots.convolve import _float_convolve
from modroots.energy import sum_rep
from modroots.expsums import index_table
from modroots.modular import preimage_set
from modroots.rng import SplitMix64, cell_seeds


def test_exponent_constants():
    assert rho_k(3) == Fraction(1, 19)
    assert rho_k(4) == Fraction(1, 47)
    assert theta_k(3) == Fraction(32, 19)
    assert theta_k(4) == Fraction(48, 47)
    assert theta_k(5) == 2**7 * rho_k(5)
    assert theta_k(5) == Fraction(128, 103)


def test_grid_expansion():
    cfg = SweepConfig("t22-bound", {"q": [97, 7], "N": "2:6:2"})
    cells = expand_grid(cfg)
    assert len(cells) == 6
    assert cells[0] == {"N": 2, "q": 7}
    assert cells == sorted(cells, key=lambda c: (c["N"], c["q"]))


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        expand_grid(SweepConfig("t22-bound", {"q": [7], "bogus": [1]}))
    with pytest.raises(ConfigError):
        expand_grid(SweepConfig("no-such-check", {}))
    with pytest.raises(ConfigError):
        expand_grid(SweepConfig("t22-bound", {"q": "1:10:0"}))


def test_paired_axes_zip_their_values():
    cfg = SweepConfig("gamma-ratio", {"q,P": [(499, 143), (101, 40), [1009, 252]]})
    assert expand_grid(cfg) == [{"P": 40, "q": 101}, {"P": 143, "q": 499}, {"P": 252, "q": 1009}]
    # a paired axis crosses the other axes like any single one
    cells = expand_grid(SweepConfig("v-ratio", {"q,r": [(499, 2), (997, 3)], "M": [4, 8], "N": [32]}))
    assert [(c["q"], c["r"], c["M"]) for c in cells] == [(499, 2, 4), (997, 3, 4), (499, 2, 8), (997, 3, 8)]
    for grid in (
        {"q,P": [(101, 40), (499,)]},  # unequal lengths
        {"q,P": [(101, 40, 1)]},
        {"q,P": [101, 40]},  # not tuples
        {"q,P": "1:3"},
        {"q,bogus": [(101, 40)]},  # unknown name
        {"q,P": [(101, 40)], "q": [499]},  # q in two axes
    ):
        with pytest.raises(ConfigError):
            expand_grid(SweepConfig("gamma-ratio", grid))


def test_paired_gamma_ratio_sweep_equals_one_cell_sweeps():
    pairs = [(q, int(q**0.8)) for q in (101, 499, 1009)]
    paired = run_sweep(SweepConfig("gamma-ratio", {"q,P": pairs}, seed=1))
    single = [run_sweep(SweepConfig("gamma-ratio", {"q": [q], "P": [P]}, seed=1)) for q, P in pairs]
    assert render_csv(paired.rows) == render_csv([row for res in single for row in res.rows])
    assert paired.manifest["rows"] == 3 and paired.manifest["config"]["grid"] == {"q,P": pairs}


def test_all_checks_registered():
    expected = {
        "t22-bound", "t42-bound", "e2k-average", "e2k-set-doubling", "gowers-lemmas",
        "lattice-geometry", "trichotomy", "prodpoly-vanishing", "tk-growth",
        "w-ratio", "v-ratio", "salie-moment", "gamma-ratio",
    }
    assert set(CHECKS) == expected


def test_empty_grid():
    res = run_sweep(SweepConfig("t22-bound", {"q": [], "N": [4]}))
    assert res.rows == [] and res.manifest["rows"] == 0
    assert render_csv(res.rows) == "check,params,measured,bound,ratio,pass,ms\n"


def test_gowers_sweep_rows_pass():
    res = run_sweep(SweepConfig("gowers-lemmas", {"q": [31, 61], "trial": "1:10"}, seed=42))
    assert len(res.rows) == 20
    assert all(r.passed for r in res.rows)
    assert res.manifest["failures"] == 0


@pytest.mark.parametrize("budget", [None, 10**4])  # 10^4 admits U^3 of |A| = 15 at q = 31, refuses U^4
def test_gowers_lemmas_compute_each_norm_once(budget, monkeypatch):
    config = SweepConfig("gowers-lemmas", {"q": [31], "k": [3], "trial": "1:4"},
                         budgets={} if budget is None else {"gowers": budget})
    real_norm, real_report = gowers._gowers_norm, harness.character_lemma_report
    calls = []

    def counted(A, m, budget):
        calls.append(m)
        return real_norm(A, m, budget)

    monkeypatch.setattr(gowers, "_gowers_norm", counted)
    shared = run_sweep(config)
    cells = []
    for m in calls:
        if m == 2:  # a cell computes U^2 first
            cells.append([])
        cells[-1].append(m)
    assert [sorted(c) for c in cells] == [[1, 2, 3, 4]] * 4  # each once, U^4 refused or not
    expect = [{"skip": "BudgetExceededError"}] * 4 if budget else [{}] * 4
    assert [{k: v for k, v in r.params.items() if k == "skip"} for r in shared.rows] == expect
    # each report on its own computes the same norms again, with the same outcomes
    monkeypatch.setattr(harness, "character_lemma_report", lambda A, k, budget, norms: real_report(A, k, budget))
    alone = run_sweep(config)
    assert render_csv(shared.rows) == render_csv(alone.rows)
    assert shared.manifest["cell_skips"] == alone.manifest["cell_skips"]


def test_hard_checks_small_grids():
    for check, grid in [
        ("trichotomy", {"trial": "1:10", "qmax": [300]}),
        ("prodpoly-vanishing", {"k": [2, 3], "trial": "1:5"}),
        ("lattice-geometry", {"d": [2, 3], "trial": "1:5", "qmax": [500], "wmax": [50]}),
    ]:
        res = run_sweep(SweepConfig(check, grid, seed=11))
        assert res.manifest["failures"] == 0, check


def test_ratio_checks_record_only():
    for check, grid in [
        ("t22-bound", {"q": [97], "N": [4, 8]}),
        ("t42-bound", {"q": [97], "N": [4]}),
        ("e2k-average", {"k": [3], "N": [2], "Q": [40]}),
        ("e2k-set-doubling", {"q": [10007], "k": [3], "N": [16], "trial": [1]}),
        ("tk-growth", {"k": [3], "N": [5, 8]}),
        ("w-ratio", {"q": [101], "M": [1, 8], "N": [8], "trial": [1]}),
        ("v-ratio", {"q": [499], "M": [1, 4], "N": [32], "trial": [1]}),
        ("salie-moment", {"q": [101], "U0": [4], "r": [2], "trial": [1]}),
        ("gamma-ratio", {"q": [101], "P": [40]}),
    ]:
        res = run_sweep(SweepConfig(check, grid, seed=5))
        assert all(r.passed is None for r in res.rows), check
        assert all(r.ratio is not None for r in res.rows), check
        assert res.manifest["max_ratio"] is not None, check


def test_budget_exhaustion_becomes_skip_row():
    res = run_sweep(SweepConfig("tk-growth", {"k": [3], "N": [80]}, budgets={"tk": 10**4}))
    assert len(res.rows) == 1
    assert res.rows[0].params.get("skip") == "BudgetExceededError"
    assert res.manifest["skips"] == 1


@pytest.mark.parametrize(
    "config, reason, message",
    [
        (SweepConfig("tk-growth", {"k": [3], "N": [80]}, budgets={"tk": 10**4}),
         "BudgetExceededError", "N^4 = 40960000 exceeds budget 10000"),
        (SweepConfig("e2k-average", {"k": [3], "N": [8], "Q": [2**24 + 1]}),
         "CapacityError", "Q exceeds sieve capacity"),
        (SweepConfig("e2k-average", {"k": [3], "N": [50], "Q": [20]}, seed=1),
         "InfeasibleCellError", "need Q >= 2 and 1 <= N <= Q"),
        (SweepConfig("e2k-average", {"k": [3], "N": [1], "Q": [1]}, seed=1),
         "InfeasibleCellError", "need Q >= 2 and 1 <= N <= Q"),
        (SweepConfig("gamma-ratio", {"q": [7], "P": [0]}), "InfeasibleCellError", "P must be >= 1"),
        (SweepConfig("tk-growth", {"k": [3], "N": [0]}), "InfeasibleCellError", "need k >= 2 and N >= 1"),
        (SweepConfig("tk-growth", {"k": [1], "N": [3]}), "InfeasibleCellError", "need k >= 2 and N >= 1"),
        (SweepConfig("prodpoly-vanishing", {"k": [1]}), "InfeasibleCellError", "need k >= 2 and xmax >= 1"),
        (SweepConfig("prodpoly-vanishing", {"k": [2], "xmax": [0]}),
         "InfeasibleCellError", "need k >= 2 and xmax >= 1"),
        (SweepConfig("e2k-set-doubling", {"q": [10007], "k": [0], "N": [8]}),
         "InfeasibleCellError", "k must be >= 1"),
        (SweepConfig("w-ratio", {"q": [101], "M": [0], "N": [8]}),
         "InfeasibleCellError", "requires 1 <= M, N <= q/2"),
        (SweepConfig("v-ratio", {"q": [499], "M": [0], "N": [8]}), "InfeasibleCellError", "requires 1 <= M < N"),
        (SweepConfig("salie-moment", {"q": [101], "U0": [-1]}), "InfeasibleCellError", "requires 0 <= U0 <= q"),
        (SweepConfig("lattice-geometry", {"d": [4]}), "InfeasibleCellError", "d must be 2 or 3"),
        (SweepConfig("lattice-geometry", {"d": [2], "qmax": [2]}),
         "InfeasibleCellError", "need qmax >= 3 and wmax >= 1"),
        (SweepConfig("lattice-geometry", {"d": [3], "wmax": [0]}),
         "InfeasibleCellError", "need qmax >= 3 and wmax >= 1"),
        (SweepConfig("trichotomy", {"qmax": [2]}), "InfeasibleCellError", "need qmax >= 3 and boxmax >= 1"),
        (SweepConfig("trichotomy", {"boxmax": [0]}), "InfeasibleCellError", "need qmax >= 3 and boxmax >= 1"),
        (SweepConfig("v-ratio", {"q": [499], "M": [4], "N": [32], "r": [0]}),
         "InfeasibleCellError", "r must be >= 1"),
        (SweepConfig("salie-moment", {"q": [101], "U0": [4], "r": [0]}),
         "InfeasibleCellError", "r must be >= 1"),
        (SweepConfig("salie-moment", {"q": [2], "U0": [1]}),
         "InfeasibleCellError", "the quadratic character needs odd q"),
    ],
)
def test_skip_row_message_goes_to_the_manifest(config, reason, message):
    res = run_sweep(config)
    [row] = res.rows
    assert row.params["skip"] == reason and row.measured is None and row.passed is None
    assert res.manifest["skips"] == 1 and res.manifest["cell_failures"] == []
    [skip] = res.manifest["cell_skips"]
    assert skip["params"] == ";".join(f"{k}={v}" for k, v in sorted(row.params.items()))
    assert message in skip["message"]
    # the message stays out of the report rows
    assert message not in render_csv(res.rows) and message not in render_json(res.rows)


def test_cross_check_failure_becomes_failed_row(monkeypatch):
    # a wrong second norm route makes gowers_norm's own cross-check raise
    monkeypatch.setattr(gowers, "_norm_by_cubes", lambda a, k: -1)
    res = run_sweep(SweepConfig("gowers-lemmas", {"q": [31], "trial": "1:2"}))
    assert [r.passed for r in res.rows] == [False, False]
    assert all(r.params["fail"] == "ArithmeticError" and "skip" not in r.params for r in res.rows)
    assert res.manifest["failures"] == 2 and res.manifest["skips"] == 0
    failures = res.manifest["cell_failures"]
    assert [f["params"] for f in failures] == ["fail=ArithmeticError;q=31;trial=1",
                                               "fail=ArithmeticError;q=31;trial=2"]
    assert all(f["message"].startswith("norm route mismatch") for f in failures)
    assert "fail=ArithmeticError" in render_csv(res.rows)


def test_gowers_lemmas_failed_row_names_the_sub_check(monkeypatch):
    grid = {"q": [31], "trial": "1:1"}
    passing = run_sweep(SweepConfig("gowers-lemmas", grid))
    assert passing.rows[0].passed is True and "fail" not in passing.rows[0].params
    assert passing.manifest["cell_failures"] == [] and passing.manifest["cell_skips"] == []
    failing_lemma = types.SimpleNamespace(all_ok=False, growth_ok=False, energy_ok=True)
    for name, value, reason, message in (
        ("energy_of", lambda A, k: -1, "u2-energy", "but E(A) = -1"),
        ("shift_counts", lambda A: np.zeros(A.q, dtype=np.int64), "shift-identity", "= 0 but |A|^2"),
        ("character_lemma_report", lambda A, k, budget, norms: failing_lemma, "character-lemma",
         "k=2: growth_ok=False energy_ok=True"),
    ):
        with monkeypatch.context() as m:
            m.setattr(harness, name, value)
            res = run_sweep(SweepConfig("gowers-lemmas", grid))
        row = res.rows[0]
        assert row.passed is False and row.params["fail"] == reason, name
        failure = res.manifest["cell_failures"]
        assert [f["params"] for f in failure] == [f"fail={reason};q=31;trial=1"]
        assert message in failure[0]["message"], failure


class _StubPoly:
    """Stands in for a product polynomial: evaluate returns `first` at the first
    tuple it is given, `other` at any other tuple, and `modular` under a modulus."""

    def __init__(self, first, modular, other):
        self.first, self.modular, self.other = first, modular, other
        self.seen = None

    def evaluate(self, n, mod=None):
        if mod is not None:
            return self.modular
        if self.seen is None:
            self.seen = tuple(n)
        return self.first if tuple(n) == self.seen else self.other


def test_prodpoly_vanishing_failed_row_names_the_sub_check(monkeypatch):
    grid = {"k": [3], "trial": "1:1"}
    passing = run_sweep(SweepConfig("prodpoly-vanishing", grid))
    assert passing.rows[0].passed is True and passing.manifest["cell_failures"] == []
    for values, reason, message in (
        ((1, 0, 0), "exact-vanishing", "!= 0 although"),
        ((0, 1, 0), "mod-m", "= 0 but F"),
        ((0, 0, 1), "homogeneity", "^9 * F"),
    ):
        with monkeypatch.context() as m:
            m.setattr(harness, "product_poly", lambda k, values=values: _StubPoly(*values))
            res = run_sweep(SweepConfig("prodpoly-vanishing", grid))
        row = res.rows[0]
        assert row.passed is False and row.params["fail"] == reason, reason
        failure = res.manifest["cell_failures"]
        assert [f["params"] for f in failure] == [f"fail={reason};k=3;trial=1"]
        assert message in failure[0]["message"], failure


def test_lattice_geometry_failed_row_names_the_sub_checks(monkeypatch):
    grid = {"d": [2], "wmax": [20], "trial": "1:1"}
    passing = run_sweep(SweepConfig("lattice-geometry", grid))
    assert passing.rows[0].passed is True and "fail" not in passing.rows[0].params
    real = harness.verify_geometry
    for broken, reason in (
        ({"counting_ok": False}, "counting"),
        ({"minkowski_ok": False, "transference_ok": False}, "minkowski+transference"),
    ):
        with monkeypatch.context() as m:
            m.setattr(harness, "verify_geometry",
                      lambda *a, **k: dataclasses.replace(real(*a, **k), **broken))
            res = run_sweep(SweepConfig("lattice-geometry", grid))
        row = res.rows[0]
        assert row.passed is False and row.params["fail"] == reason
        assert row.measured == passing.rows[0].measured
        message = res.manifest["cell_failures"][0]["message"]
        assert message.count(";") == reason.count("+")
        assert ("minkowski_slack=" in message) == ("minkowski" in reason)


def test_manifest_records_bound_formula():
    assert all(isinstance(BOUND_FORMULAS[c], str) for c in BOUND_FORMULAS)
    assert set(BOUND_FORMULAS) <= set(CHECKS)
    res = run_sweep(SweepConfig("t22-bound", {"q": [31], "N": [4]}))
    assert res.manifest["bound_formula"] == "(N^(3/2)/q^(1/2) + 1) * N^2"
    assert res.manifest["cell_failures"] == []
    res = run_sweep(SweepConfig("trichotomy", {"trial": "1:1"}))
    assert res.manifest["bound_formula"] is None


def test_determinism_across_worker_counts():
    grid = {"trial": "1:12", "qmax": [400]}
    outs = []
    for workers in (1, 4, 8):
        res = run_sweep(SweepConfig("trichotomy", grid, seed=9, parallelism=workers))
        outs.append((render_csv(res.rows), render_json(res.rows)))
    assert outs[0] == outs[1] == outs[2]


def test_csv_round_trip(tmp_path):
    res = run_sweep(SweepConfig("t22-bound", {"q": [97], "N": [4, 8]}, seed=1))
    path = tmp_path / "report.csv"
    emit(res, "csv", str(path))
    text = path.read_text()
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 2
    assert parsed[0]["check"] == "t22-bound"
    assert list(csv.DictReader(io.StringIO(render_csv(res.rows)))) == parsed
    manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
    assert manifest["rows"] == 2


def test_json_emit(tmp_path):
    res = run_sweep(SweepConfig("t22-bound", {"q": [97], "N": [4]}, seed=1))
    path = tmp_path / "report.json"
    emit(res, "json", str(path))
    rows = json.loads(path.read_text())
    assert len(rows) == 1
    assert set(rows[0]) == {"check", "params", "measured", "bound", "ratio", "pass", "ms"}


def test_rendering_formats():
    assert _fmt(None) == ""
    assert _fmt(True) == "true"
    assert _fmt(Fraction(12, 7)) == "12/7"
    assert _fmt(0.1234567890123456) == "0.123456789012"
    assert _fmt(44) == "44"


def test_doubling_instances():
    rng = SplitMix64(5)
    inst = doubling_instance(2, 10, 101, rng)
    assert inst.sumset_size == 19
    assert inst.doubling == Fraction(19, 10)
    inst2 = doubling_instance(4, 16, 100003, SplitMix64(8))
    assert inst2.doubling <= 4
    with pytest.raises(ValueError):
        doubling_instance(2, 50, 101, SplitMix64(1))


def test_random_set_doubling_exact():
    rng = SplitMix64(12)
    q = 101
    members = rng.subset(q, 10)
    sums = {(a + b) % q for a in members for b in members}
    assert 2 * 10 - 1 <= len(sums) <= min(q, 10 * 11 // 2 + 10)


@pytest.fixture
def drop_residue_tables():
    yield
    index_table.cache_clear()  # a q = 4194301 table holds 32 MiB


@pytest.mark.parametrize(
    "check, q, N",
    [("t42-bound", 1000003, 40), ("t42-bound", 4194301, 40), ("t22-bound", 1000003, 200000)],
)
def test_large_modulus_cells_give_rows(drop_residue_tables, check, q, N):
    # convolutions of length q > 2^19, past the NTT cap, that the float path certifies
    res = run_sweep(SweepConfig(check, {"q": [q], "N": [N]}, seed=1))
    (row,) = res.rows
    assert "skip" not in row.params and "fail" not in row.params
    assert row.measured > 0 and row.ratio is not None
    assert res.manifest["skips"] == 0


def test_past_float_guard_is_a_split_row(drop_residue_tables):
    # |A| ~ 10^5 at q = 1000003: the pair counts r2 pass Percival's bound, r4 = r2 * r2 does
    # not, so r4 comes from the bit split.  Checked against |A ∩ (d - A)| for sampled r2
    # entries, exact object dot products for sampled r4 entries, and sum(r4) = |A|^4.
    q, N = 1000003, 100000
    res = run_sweep(SweepConfig("t42-bound", {"q": [q], "N": [N]}, seed=1))
    (row,) = res.rows
    assert "skip" not in row.params and "fail" not in row.params and res.manifest["skips"] == 0
    j = SplitMix64(cell_seeds(1, 1)[0]).randint(1, q - 1)  # the dilate the cell drew
    A = preimage_set(j, 2, N, q)
    m = A.members
    r2 = sum_rep(A, 2).counts
    r4 = sum_rep(A, 4).counts
    assert _float_convolve(r2, r2) is None
    rng = np.random.default_rng(q)
    for d in rng.integers(q, size=4).tolist():
        assert r2[d] == np.isin((d - m) % q, m).sum()
    r2 = r2.astype(object)
    for d in rng.integers(q, size=3).tolist():
        assert r4[d] == np.dot(r2, r2[(d - np.arange(q)) % q])
    assert sum(r4.tolist()) == A.cardinality**4
    assert row.measured == sum(c * c for c in r4.tolist())