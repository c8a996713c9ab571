import json

import pytest

import modroots.gowers as gowers
import modroots.harness as harness
from modroots.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def test_energy_subcommand(capsys):
    code, out = run(capsys, "energy", "--op", "T", "--nu", "2", "--k", "2", "--N", "3", "--j", "1", "--q", "7")
    assert code == 0 and out == "44"
    code, out = run(capsys, "energy", "--op", "set", "--q", "7", "--k", "2", "--members", "1,2")
    assert out == "44"
    code, out = run(capsys, "energy", "--op", "preimage", "--j", "1", "--k", "2", "--N", "3", "--q", "7")
    assert out == "1,3,4,6"


def test_roots_above_the_table_cap(capsys):
    code, out = run(capsys, "energy", "--op", "roots", "--q", "67108879", "--k", "3", "--j", "125")
    assert code == 0 and out == "5,17982324,49126550"


def test_gowers_subcommand(capsys):
    code, out = run(capsys, "gowers", "--op", "norm", "--q", "7", "--members", "1,3,4,6", "--k", "2")
    assert code == 0 and out == "44"
    code, out = run(capsys, "gowers", "--op", "lemmas", "--q", "7", "--members", "1,3,4,6", "--k", "2")
    assert code == 0 and "growth_ok=True" in out


def test_gowers_shift_subcommand(capsys):
    # A ∩ (A - 3) for A = {1, 2, 5} mod 7: 2 + 3 = 5 and 5 + 3 = 1 are in A, 1 + 3 = 4 is not
    code, out = run(capsys, "gowers", "--op", "shift", "--q", "7", "--members", "1,2,5", "--shifts", "3")
    assert code == 0 and out == "2,5"


def test_lattice_subcommand(capsys):
    code, out = run(capsys, "lattice", "--op", "count", "--q", "5", "--coeffs", "1,3", "--widths", "2,2")
    assert code == 0 and out == "5"
    code, out = run(capsys, "lattice", "--op", "geometry", "--q", "5", "--coeffs", "1,3", "--widths", "2,2")
    assert code == 0 and "minkowski_ok=True" in out


def test_lattice_input_errors_exit_three(capsys):
    for argv, message in (
        (("--op", "geometry", "--q", "5", "--coeffs", "1,3", "--widths", "2,2,2"), "dimension mismatch"),
        (("--op", "minima", "--q", "5", "--coeffs", "1,5", "--widths", "2,2"), "not coprime"),
    ):
        code = main(["lattice", *argv])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("input error: ") and message in captured.err
        assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, error",
    [
        # two very short vectors leave 7.5 * 10^8 candidates inside the radius at q = 100003
        (("lattice", "--op", "minima", "--q", "100003", "--coeffs", "1,2,3", "--widths", "100,100,100"),
         "BudgetExceededError"),
        (("poly", "--op", "construct", "--k", "6"), "CapacityError"),
        (("expsum", "--op", "gauss", "--q", "2", "--a", "1"), "DegenerateError"),
    ],
)
def test_refused_computations_exit_three(capsys, argv, error):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith(f"{error}: ") and len(captured.err.splitlines()) == 1


def test_refused_minima_keep_their_message(capsys):
    # the lifts of every block are counted before the first is expanded; the sum that
    # crosses the budget is the one the message has always named
    code = main(["lattice", "--op", "minima", "--q", "100003", "--coeffs", "1,2,3", "--widths", "100,100,100"])
    assert code == 3 and capsys.readouterr().err == (
        "BudgetExceededError: enumeration volume 91839 plus 29568180 lifts exceeds budget 10000000\n"
    )


def test_trichotomy_at_large_q_exits_zero(capsys):
    code, out = run(capsys, "lattice", "--op", "trichotomy", "--q", "100003", "--a", "1", "--b", "2",
                    "--c", "3", "--L", "100", "--M", "100", "--N", "100")
    assert code == 0 and out.startswith("K=13467 ") and "one_short=False" in out


def test_poly_subcommand(capsys):
    code, out = run(capsys, "poly", "--op", "eval", "--k", "3", "--point", "1,8,1,8")
    assert code == 0 and out == "0"
    code, out = run(capsys, "poly", "--op", "export", "--k", "2")
    assert len(out.splitlines()) == 35
    for mod in ("0", "-7"):
        code = main(["poly", "--op", "eval", "--k", "2", "--point", "1,2,3,4", "--mod", mod])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("input error: ") and "modulus must be >= 1" in captured.err


def test_discrepancy_subcommand(capsys):
    code, out = run(capsys, "discrepancy", "--op", "gamma", "--q", "7", "--P", "5")
    assert code == 0 and out == "12/7"
    code, out = run(capsys, "discrepancy", "--op", "value", "--points", "3/7,4/7")
    assert out.startswith("12/7")


def test_expsum_subcommand(capsys):
    code, out = run(capsys, "expsum", "--op", "salie", "--q", "101", "--U0", "5", "--r", "2", "--c", "1")
    assert code == 0 and "ratio=" in out
    code, out = run(capsys, "expsum", "--op", "gauss", "--q", "5", "--a", "1")
    assert code == 0 and out == "2.2360679775+0j"


def test_sweep_subcommand(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code = main([
        "--seed", "3", "--format", "json", "--out", str(out_path),
        "sweep", "--check", "salie-moment",
        "--grid", "q=101", "--grid", "U0=4", "--grid", "r=2", "--grid", "trial=1,2",
    ])
    capsys.readouterr()
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert len(rows) == 2


def test_sweep_infeasible_doubling_cell_is_skip_row(tmp_path, capsys):
    # N = 16 > q/4 admits no honest doubling instance: a skip row, not a crash
    out_path = tmp_path / "r.json"
    code = main([
        "--format", "json", "--out", str(out_path),
        "sweep", "--check", "e2k-set-doubling", "--grid", "q=31", "--grid", "k=3", "--grid", "N=16",
    ])
    capsys.readouterr()
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert [r["params"] for r in rows] == ["N=16;k=3;q=31;skip=InfeasibleCellError"]
    assert rows[0]["measured"] == ""


def test_sweep_wraparound_doubling_cell_is_skip_row(tmp_path, capsys):
    # L = 9 asks for a 2-dimensional progression that wraps around F_31
    out_path = tmp_path / "r.json"
    code = main([
        "--format", "json", "--out", str(out_path),
        "sweep", "--check", "e2k-set-doubling", "--grid", "q=31,10007", "--grid", "k=3",
        "--grid", "N=4", "--grid", "L=2,9",
    ])
    capsys.readouterr()
    assert code == 0
    params = [r["params"] for r in json.loads(out_path.read_text())]
    assert "L=9;N=4;k=3;q=31;skip=InfeasibleCellError" in params
    assert sum("skip=" in p for p in params) == 1 and len(params) == 4


def test_sweep_out_of_range_parameter_is_skip_row(capsys):
    code = main(["sweep", "--check", "gamma-ratio", "--grid", "q=7", "--grid", "P=0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gamma-ratio,P=0;q=7;skip=InfeasibleCellError,,,,,0" in out.splitlines()


def test_sweep_salie_moment_at_q_2_is_skip_row(tmp_path, capsys):
    # the quadratic character needs odd q: q = 2 skips, and q = 3 and 5 still run
    out_path = tmp_path / "o.csv"
    code = main(["--out", str(out_path), "sweep", "--check", "salie-moment",
                 "--grid", "q=2,3,5", "--grid", "U0=1"])
    capsys.readouterr()
    assert code == 0
    params = [line.split(",")[1] for line in out_path.read_text().splitlines()[1:]]
    assert params == ["U0=1;q=2;skip=InfeasibleCellError", "U0=1;q=3", "U0=1;q=5"]


def test_sweep_config_error(capsys):
    code = main(["sweep", "--check", "salie-moment", "--grid", "bogus=1"])
    capsys.readouterr()
    assert code == 3


def exit_three_with_one_line(capsys, argv, prefix, message):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 3 and err.startswith(prefix) and message in err
    assert len(err.splitlines()) == 1


def test_sweep_missing_config_exits_three(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    exit_three_with_one_line(capsys, ["sweep", "--config", str(missing)], "config error: ", "missing.json")


def test_sweep_config_not_an_object_exits_three(tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    exit_three_with_one_line(capsys, ["sweep", "--config", str(listed)], "config error: ", "not an object")


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--check", "salie-moment", "--grid", "q=101", "--grid", "U0=4"),
        ("poly", "--op", "export", "--k", "2"),
        ("discrepancy", "--op", "export", "--q", "7", "--P", "5"),
    ],
)
def test_unwritable_out_exits_three(tmp_path, capsys, argv):
    out = tmp_path / "no-such-dir" / "report"
    exit_three_with_one_line(capsys, ["--out", str(out), *argv], "output error: ", str(out))


def test_sweep_exit_two_on_hard_assertion_failure(capsys, monkeypatch):
    def always_fail(params, rng, budgets):
        return harness.CellResult(measured=0, passed=False)

    monkeypatch.setitem(harness.CHECKS, "trichotomy", (always_fail, {"trial"}))
    code = main(["sweep", "--check", "trichotomy", "--grid", "trial=1,2"])
    capsys.readouterr()
    assert code == 2


def test_sweep_exit_two_on_cross_check_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gowers, "_norm_by_cubes", lambda a, k: -1)
    out_path = tmp_path / "r.csv"
    code = main(["--out", str(out_path), "sweep", "--check", "gowers-lemmas", "--grid", "q=31"])
    capsys.readouterr()
    assert code == 2
    assert "fail=ArithmeticError;q=31" in out_path.read_text()
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert manifest["failures"] == 1
    assert "norm route mismatch" in manifest["cell_failures"][0]["message"]
