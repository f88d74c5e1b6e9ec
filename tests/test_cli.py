import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qmemchan import ensembles
from qmemchan.cli import EXIT_INVALID, EXIT_OK, EXIT_TOLERANCE, main, max_valid_d
from qmemchan import binary_entropy


FIGURE_HASHES = Path(__file__).resolve().parents[1] / "perfbench" / "figure_hashes.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ two-qubit


def test_two_qubit_entangled_regime(capsys):
    code, out, _ = run(capsys, "two-qubit", "--mu", str(2 / 3), "--a", str(1 / 3), "--d", "-1")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["optimal_family"] == "max_entangled"
    assert record["f"] == pytest.approx(1 / 9, abs=1e-12)
    assert record["theta_star"] == pytest.approx(math.pi / 4)
    for key in ("lambda00", "lambda01", "lambda11", "c2_product", "c2_entangled",
                "capacity", "x0", "x1", "valid"):
        assert key in record


def test_two_qubit_product_regime(capsys):
    code, out, _ = run(capsys, "two-qubit", "--mu", "0", "--a", "1", "--d", "0")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["optimal_family"] == "product"
    assert record["f"] == pytest.approx(-1.0, abs=1e-14)


def test_two_qubit_noiseless(capsys):
    code, out, _ = run(capsys, "two-qubit", "--mu", "0.5", "--a", "2", "--d", "0")
    assert code == EXIT_OK
    assert json.loads(out)["capacity"] == pytest.approx(1.0, abs=1e-12)


def test_two_qubit_x_flags(capsys):
    code, out, _ = run(capsys, "two-qubit", "--mu", "0.5", "--x0", "0.8", "--x1", "0.2")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["a"] == pytest.approx(1.0)
    assert record["d"] == pytest.approx(0.6)


def test_two_qubit_flag_conflicts(capsys):
    code, _, err = run(capsys, "two-qubit", "--mu", "0.5", "--x0", "0.8", "--a", "1")
    assert code == EXIT_INVALID
    assert "mutually exclusive" in err


def test_two_qubit_invalid_params_names_bound(capsys):
    code, _, err = run(capsys, "two-qubit", "--mu", "0", "--a", "2.5", "--d", "0")
    assert code == EXIT_INVALID
    assert "x0" in err and "outside" in err


def test_non_finite_input_exits_invalid(capsys):
    code, out, err = run(capsys, "two-qubit", "--mu", "0.5", "--a", "nan", "--d", "0.1")
    assert code == EXIT_INVALID and out == "" and "outside" in err
    code, out, err = run(capsys, "entropy-rate", "--mu", "0.5", "--a", "1", "--d", "0",
                         "--tolerance", "nan")
    assert code == EXIT_INVALID and out == "" and "--tolerance" in err


# ---------------------------------------------------------------------- sweep


def test_sweep_f_crossover_at_five_ninths(capsys):
    code, out, _ = run(
        capsys, "sweep", "--axis", "mu", "--lo", "0.3", "--hi", "0.8", "--steps", "11",
        "--a", str(1 / 3), "--d", "-1", "--quantity", "f",
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("row_type,index,mu,a,d,x0,x1,valid,f")
    crossover = [l for l in lines if l.startswith("crossover")]
    assert len(crossover) == 1
    mu_star = float(crossover[0].split(",")[2])
    assert mu_star == pytest.approx(5 / 9, abs=1e-9)


def test_sweep_c2_crossovers_in_d(capsys):
    code, out, _ = run(
        capsys, "sweep", "--axis", "d", "--lo", str(-4 / 3), "--hi", str(4 / 3),
        "--steps", "17", "--mu", str(2 / 3), "--a", str(1 / 3), "--quantity", "c2",
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    crossings = [float(l.split(",")[4]) for l in lines if l.startswith("crossover")]
    assert len(crossings) == 2
    root = math.sqrt(5.0 / 6.0)
    assert sorted(crossings) == pytest.approx([-root, root], abs=1e-9)
    # invalid grid points are flagged, not dropped
    invalid = [l for l in lines if l.split(",")[7] == "0"]
    assert invalid and all("nan" in l for l in invalid)


def test_sweep_rows_are_byte_stable(capsys):
    argv = ["sweep", "--axis", "mu", "--lo", "-0.9", "--hi", "0.9", "--steps", "13",
            "--a", "0.9", "--d", "0.4", "--quantity", "c2"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_sweep_i_n_product_wins_at_six_uses(capsys):
    code, out, _ = run(
        capsys, "sweep", "--axis", "a", "--lo", "0.3", "--hi", "1.2", "--steps", "4",
        "--mu", "0.9", "--d-mode", "max_valid", "--quantity", "i_n", "--n", "6",
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    idx = {name: k for k, name in enumerate(header)}
    for line in lines[1:]:
        cells = line.split(",")
        if cells[idx["valid"]] != "1":
            continue
        product = float(cells[idx["per_use_product"]])
        for kind in ("ghz", "w", "max_entangled"):
            assert product >= float(cells[idx[f"per_use_{kind}"]]) - 1e-12


def test_sweep_validation_errors(capsys):
    code, _, err = run(capsys, "sweep", "--axis", "mu", "--lo", "0.5", "--hi", "0.1",
                       "--steps", "5", "--a", "1", "--d", "0", "--quantity", "f")
    assert code == EXIT_INVALID and "--lo" in err
    code, _, err = run(capsys, "sweep", "--axis", "d", "--lo", "0", "--hi", "1",
                       "--steps", "5", "--mu", "0.5", "--a", "1", "--quantity", "f",
                       "--d-mode", "max_valid")
    assert code == EXIT_INVALID
    # max_valid picks d itself, so a given --d would be ignored
    code, out, err = run(capsys, "sweep", "--axis", "mu", "--lo", "0", "--hi", "0.5",
                         "--steps", "3", "--a", "1", "--d", "0.5", "--quantity", "f",
                         "--d-mode", "max_valid")
    assert code == EXIT_INVALID and out == "" and "--d" in err
    # non-finite bounds, and a tolerance that is negative or not finite
    base = ["sweep", "--axis", "mu", "--steps", "5", "--a", "1", "--d", "0", "--quantity", "c_prod"]
    for extra, flag in ((["--lo", "nan", "--hi", "0.5"], "--lo"),
                        (["--lo", "0.1", "--hi", "inf"], "--hi"),
                        (["--lo", "0.1", "--hi", "0.5", "--tolerance", "-1"], "--tolerance"),
                        (["--lo", "0.1", "--hi", "0.5", "--tolerance", "nan"], "--tolerance")):
        code, out, err = run(capsys, *base, *extra)
        assert code == EXIT_INVALID and out == "" and flag in err
    # an option the quantity does not read is refused, not ignored; the
    # quantities that read it still take it
    base = ["sweep", "--axis", "mu", "--lo", "0.1", "--hi", "0.5", "--steps", "3",
            "--a", "1", "--d", "0"]
    for extra, flag in ((["--quantity", "f", "--families", "bell"], "--families"),
                        (["--quantity", "f", "--n", "99"], "--n"),
                        (["--quantity", "c2", "--n-max", "99"], "--n-max"),
                        (["--quantity", "c2", "--tolerance", "5"], "--tolerance"),
                        (["--quantity", "i_n", "--tolerance", "1e-6"], "--tolerance"),
                        (["--quantity", "c_prod", "--n", "4"], "--n"),
                        (["--quantity", "bound", "--families", "ghz"], "--families")):
        code, out, err = run(capsys, *base, *extra)
        assert code == EXIT_INVALID and out == "" and flag in err
    for extra in (["--quantity", "i_n", "--n", "4", "--families", "ghz"],
                  ["--quantity", "bound", "--n-max", "4", "--tolerance", "1e-6"]):
        code, out, _ = run(capsys, *base, *extra)
        assert code == EXIT_OK and out.count("\n") == 4
    # sweep fixes its point by --mu/--a/--d only; argparse refuses --x0/--x1
    with pytest.raises(SystemExit) as exc:
        run(capsys, "sweep", "--axis", "mu", "--lo", "0", "--hi", "0.5", "--steps", "3",
            "--a", "1", "--d", "0", "--x0", "0.3", "--x1", "0.9", "--quantity", "f")
    assert exc.value.code == 2


def test_sweep_max_valid_flags_hopeless_points(capsys):
    # a outside [-2/3, 2] admits no valid d at all; rows are flagged, not fatal
    code, out, _ = run(capsys, "sweep", "--axis", "a", "--lo", "-1.2", "--hi", "2.4",
                       "--steps", "7", "--mu", "0.5", "--d-mode", "max_valid",
                       "--quantity", "f")
    assert code == EXIT_OK
    lines = out.strip().split("\n")[1:]
    flags = [line.split(",")[7] for line in lines if line.startswith("grid")]
    assert flags[0] == "0" and flags[-1] == "0"
    assert "1" in flags


def test_max_valid_d_keeps_branches_in_range():
    for a in np.linspace(-2 / 3, 2.0, 30):
        d = max_valid_d(float(a))
        x0, x1 = (a + d) / 2, (a - d) / 2
        assert -1 / 3 - 1e-12 <= x0 <= 1 + 1e-12
        assert -1 / 3 - 1e-12 <= x1 <= 1 + 1e-12
        # largest magnitude: nudging |d| up violates a bound
        x0_up, x1_up = (a + d + 1e-9) / 2, (a - d - 1e-9) / 2
        assert x0_up > 1 + 1e-12 or x1_up < -1 / 3 - 1e-12 or d == 0.0
    # outside [-2/3, 2] no d is valid
    assert math.isnan(max_valid_d(-0.7)) and math.isnan(max_valid_d(2.1))


# --------------------------------------------------------------- entropy-rate


def test_entropy_rate_closed_forms(capsys):
    code, out, _ = run(capsys, "entropy-rate", "--mu", "0.5", "--a", "1", "--d", "0")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["c_prod"] == pytest.approx(1.0 - binary_entropy(0.25), abs=1e-10)
    assert record["markov_rate"] == pytest.approx(binary_entropy(0.75), abs=1e-12)
    assert record["converged"] is True
    assert record["bracket_monotone"] is True
    assert record["c_prod_bracket"][0] <= record["c_prod"] <= record["c_prod_bracket"][1]


def test_entropy_rate_trivial_channel(capsys):
    code, out, _ = run(capsys, "entropy-rate", "--mu", "0.3", "--a", "2", "--d", "0")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["c_prod"] == pytest.approx(1.0, abs=1e-12)
    assert record["n_used"] == 1


def test_entropy_rate_partial_exit_code(capsys):
    code, out, _ = run(capsys, "entropy-rate", "--mu", str(2 / 3), "--a", str(1 / 3),
                       "--d", "-1", "--tolerance", "1e-12", "--n-max", "6")
    assert code == EXIT_TOLERANCE
    record = json.loads(out)  # partial results still printed
    assert record["converged"] is False
    assert record["n_used"] == 6
    assert record["lower"] < record["upper"]


# ---------------------------------------------------------------- mutual-info


def test_mutual_info_table(capsys):
    code, out, _ = run(capsys, "mutual-info", "--mu", "0.9", "--a", str(2 / 3),
                       "--d", str(-4 / 3), "--n", "6")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "family,n,mu,a,d,x0,x1,valid,i_n,per_use"
    assert lines[1].startswith("product")  # sorted descending, product wins at n=6
    values = [float(l.split(",")[-1]) for l in lines[1:]]
    assert values == sorted(values, reverse=True)


def test_mutual_info_json(capsys):
    code, out, _ = run(capsys, "mutual-info", "--mu", "0.2", "--a", "1.2", "--d", "0.1",
                       "--n", "2", "--format", "json", "--families", "product,ghz")
    assert code == EXIT_OK
    record = json.loads(out)
    assert sorted(row["family"] for row in record["rows"]) == ["ghz", "product"]
    assert record["n"] == 2
    assert all(0.0 <= row["per_use"] <= 1.0 for row in record["rows"])


def test_mutual_info_bad_family(capsys):
    code, _, err = run(capsys, "mutual-info", "--mu", "0.2", "--a", "1", "--d", "0",
                       "--n", "2", "--families", "bell")
    assert code == EXIT_INVALID
    assert "unknown family" in err
    # a known family first does not get its spectrum printed
    code, out, err = run(capsys, "mutual-info", "--mu", "0.2", "--a", "1", "--d", "0",
                         "--n", "2", "--families", "product,bell")
    assert code == EXIT_INVALID
    assert out == "" and "unknown family 'bell'" in err
    # a family named twice would print its row, or its columns, twice
    for kind, command in (("ghz", ("mutual-info", "--mu", "0.2", "--a", "1", "--d", "0",
                                   "--n", "4", "--families", "ghz,ghz")),
                          ("product", ("sweep", "--axis", "mu", "--lo", "0", "--hi", "0.5",
                                       "--steps", "3", "--a", "1", "--d", "0",
                                       "--quantity", "i_n", "--families", "product,product"))):
        code, out, err = run(capsys, *command)
        assert code == EXIT_INVALID
        assert out == "" and f"family '{kind}' is named more than once" in err


def test_mutual_info_stabilizer_families_above_the_dense_cap(capsys):
    code, out, _ = run(capsys, "mutual-info", "--mu", "0.9", "--a", str(2 / 3),
                       "--d", str(-4 / 3), "--n", "16",
                       "--families", "product,ghz,max_entangled", "--format", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    assert sorted(row["family"] for row in record["rows"]) == ["ghz", "max_entangled", "product"]
    assert all(0.0 <= row["i_n"] <= 16.0 for row in record["rows"])


def test_mutual_info_size_limits_name_the_cap(capsys, monkeypatch):
    # every family's size is checked before any spectrum is computed
    calls = []
    monkeypatch.setattr(ensembles, "stabilizer_spectrum", lambda *args: calls.append(args))
    flags = ("--mu", "0.9", "--a", str(2 / 3), "--d", str(-4 / 3))
    code, out, err = run(capsys, "mutual-info", *flags, "--n", "13", "--families", "all")
    assert code == EXIT_INVALID
    assert out == ""
    assert "'w'" in err and "cap 12" in err
    assert calls == []
    # a sweep checks them before its first grid point
    code, out, err = run(capsys, "sweep", "--axis", "mu", "--lo", "0", "--hi", "0.5",
                         "--steps", "3", *flags[2:], "--quantity", "i_n", "--n", "13",
                         "--families", "product,w")
    assert code == EXIT_INVALID
    assert out == ""
    assert "'w'" in err and "cap 12" in err
    assert calls == []
    code, out, err = run(capsys, "mutual-info", *flags, "--n", "25", "--families", "product")
    assert code == EXIT_INVALID
    assert out == ""
    assert "cap 24" in err


# ------------------------------------------------------------------ --out paths


POINT = ("--mu", "0.2", "--a", "1", "--d", "0")
OUT_COMMANDS = {
    "two-qubit": ("two-qubit", *POINT),
    "sweep": ("sweep", "--axis", "mu", "--lo", "0", "--hi", "0.5", "--steps", "3",
              *POINT[2:], "--quantity", "f"),
    "entropy-rate": ("entropy-rate", *POINT, "--n-max", "4"),
    "mutual-info": ("mutual-info", *POINT, "--n", "2"),
    "figures": ("figures",),
}


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_unwritable_out_exits_invalid_and_names_the_path(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    # figures creates missing directories, so only a file in the way stops it
    targets = [blocker / "x"] if command == "figures" else [tmp_path / "missing" / "x",
                                                            blocker / "x"]
    for target in targets:
        code, out, err = run(capsys, *OUT_COMMANDS[command], "--out", str(target))
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith(f"{command}: ") and str(target) in err
        assert not target.exists()


# -------------------------------------------------------------------- figures


def test_figures_outputs(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, _, _ = run(capsys, "figures", "--out", str(out_dir))
    assert code == EXIT_OK
    names = {p.name for p in out_dir.iterdir()}
    assert names == {"fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv",
                     "manifest.json"}
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["log_base"] == 2

    fig3 = (out_dir / "fig3.csv").read_text().strip().split("\n")
    assert fig3[0] == "mu,a,d,x0,x1,valid,n,family,i_n,per_use"
    seen = {(line.split(",")[6], line.split(",")[7]) for line in fig3[1:]}
    assert seen == {(str(n), fam) for n in (2, 4, 6, 8)
                    for fam in ("product", "ghz", "w", "max_entangled")}

    fig2 = (out_dir / "fig2.csv").read_text()
    assert "crossover" in fig2
    assert fig2.split("\n")[0].split(",").count("f") == 1

    # the bytes of every file match the recorded reference hashes
    reference = json.loads(FIGURE_HASHES.read_text())
    assert {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in names} == reference
