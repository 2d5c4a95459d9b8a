import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bathkit.cli import main
from bathkit.discretize import load_bath_model
from bathkit.hamiltonian import import_model

SRC = Path(__file__).resolve().parent.parent / "src"
DEBYE_JSON = '{"kind": "debye", "lambda": 35.0, "gamma": 106.1}'


@pytest.fixture
def debye_sd(tmp_path):
    p = tmp_path / "debye.json"
    p.write_text(DEBYE_JSON)
    return str(p)


@pytest.fixture
def qubit_system(tmp_path):
    p = tmp_path / "qubit.json"
    p.write_text(
        json.dumps(
            {
                "dim": 2,
                "h_s": [[50.0, 0.0], [0.0, -50.0]],
                "couplings": [{"bath": "main", "v_sb": [[1.0, 0.0], [0.0, -1.0]]}],
            }
        )
    )
    return str(p)


def data_rows(path):
    lines = Path(path).read_text().splitlines()
    return [l for l in lines if l and not l.startswith("#")][1:]  # skip header


def discretize_args(debye_sd, out, **over):
    args = {
        "temp-k": "300",
        "t-max-fs": "300",
        "omega-max-cm1": "1000",
        "n-time": "100",
        "n-freq": "1000",
        "tol": "1e-2",
    }
    args.update(over)
    argv = ["discretize", "--sd", debye_sd, "--out", str(out)]
    for k, v in args.items():
        argv += [f"--{k}", v]
    return argv


# --- eval-sd -----------------------------------------------------------------


def test_eval_sd_row_count(debye_sd, tmp_path):
    out = tmp_path / "sd.csv"
    rc = main(
        [
            "eval-sd", "--sd", debye_sd, "--temp-k", "300",
            "--omega-min", "-500", "--omega-max", "500", "--n", "1001",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = data_rows(out)
    assert len(rows) == 1001
    header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
    assert header == "omega_cm1,J_cm1,S_beta_cm1"


def test_eval_sd_defaults_to_zero_temperature(debye_sd, tmp_path):
    out = tmp_path / "sd.csv"
    rc = main(
        [
            "eval-sd", "--sd", debye_sd,
            "--omega-min", "-100", "--omega-max", "-10", "--n", "5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    s_col = [float(r.split(",")[2]) for r in data_rows(out)]
    assert all(s == 0.0 for s in s_col)  # S vanishes for omega < 0 at T = 0


def test_eval_sd_malformed_json_exits_2_no_partial_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "debye", ')
    out = tmp_path / "sd.csv"
    rc = main(
        [
            "eval-sd", "--sd", str(bad),
            "--omega-min", "0", "--omega-max", "1", "--n", "5",
            "--out", str(out),
        ]
    )
    assert rc == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_eval_sd_stdout(debye_sd, capsys):
    rc = main(
        ["eval-sd", "--sd", debye_sd, "--omega-min", "0", "--omega-max", "10", "--n", "3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "omega_cm1,J_cm1,S_beta_cm1" in out


def test_eval_sd_accepts_csv_table(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("10,1.0\n20,2.0\n")
    rc = main(
        ["eval-sd", "--sd", str(table), "--omega-min", "0", "--omega-max", "20",
         "--n", "3", "--out", str(tmp_path / "o.csv")]
    )
    assert rc == 0


# --- discretize ----------------------------------------------------------------


def test_discretize_writes_model_and_diagnostics(debye_sd, tmp_path, capsys):
    out = tmp_path / "bath.json"
    rc = main(discretize_args(debye_sd, out))
    assert rc == 0
    err = capsys.readouterr().err
    assert "modes M=" in err and "rel=" in err
    model = load_bath_model(str(out))
    assert model.mode_count > 0
    assert model.diagnostics.rel_error <= 1e-2
    doc = json.loads(out.read_text())
    assert doc["schema"] == "bathkit-bath/1"
    assert doc["metadata"]["config"]["n_time"] == 100
    assert doc["metadata"]["tool"].startswith("bathkit ")


def test_discretize_default_grid_shape_echoed(debye_sd, tmp_path):
    # defaults must be echoed even when not given on the command line;
    # the run itself uses a coarse grid to stay quick
    out = tmp_path / "bath.json"
    rc = main(
        ["discretize", "--sd", debye_sd, "--temp-k", "300",
         "--omega-max-cm1", "800", "--n-time", "64", "--n-freq", "512",
         "--t-max-fs", "200", "--out", str(out)]
    )
    assert rc == 0
    config = json.loads(out.read_text())["metadata"]["config"]
    assert config["tol"] == 1e-2  # documented default
    assert config["n_time"] == 64


def test_discretize_requires_temperature(debye_sd, tmp_path, capsys):
    rc = main(
        ["discretize", "--sd", debye_sd, "--omega-max-cm1", "800",
         "--out", str(tmp_path / "x.json")]
    )
    assert rc == 2
    assert "temp" in capsys.readouterr().err


def test_discretize_nnls_nonconvergence_exit_3(debye_sd, tmp_path, capsys, monkeypatch):
    import bathkit.cli as cli_mod
    from bathkit.errors import ConvergenceError

    def fail(*args, **kwargs):
        raise ConvergenceError("did not converge", diagnostics={"id_rank": 7})

    monkeypatch.setattr(cli_mod, "discretize_bath", fail)
    rc = main(discretize_args(debye_sd, tmp_path / "x.json"))
    assert rc == 3
    err = capsys.readouterr().err
    assert "partial diagnostics" in err and '"id_rank": 7' in err


def test_discretize_memory_cap_exit_4(debye_sd, tmp_path, capsys):
    rc = main(
        discretize_args(
            debye_sd, tmp_path / "x.json",
            **{"n-time": "1000", "n-freq": "10000", "memory-cap-gib": "0.01"},
        )
    )
    assert rc == 4
    assert "cap" in capsys.readouterr().err


def test_discretize_window_monotonicity_on_surrogate(tmp_path):
    out300 = tmp_path / "b300.json"
    out1000 = tmp_path / "b1000.json"
    argv = ["discretize", "--sd", "configs/surrogate_sd.csv", "--temp-k", "300",
            "--omega-max-cm1", "600", "--n-time", "250", "--n-freq", "2500",
            "--tol", "1e-2"]
    assert main(argv + ["--t-max-fs", "300", "--out", str(out300)]) == 0
    assert main(argv + ["--t-max-fs", "1000", "--out", str(out1000)]) == 0
    m300 = load_bath_model(str(out300)).mode_count
    m1000 = load_bath_model(str(out1000)).mode_count
    assert m300 <= m1000


def test_discretize_tol_sweep_improves_error(debye_sd, tmp_path):
    rels = []
    for tol in ("0.5", "1e-3"):
        out = tmp_path / f"b{tol}.json"
        assert main(discretize_args(debye_sd, out, tol=tol)) == 0
        rels.append(load_bath_model(str(out)).diagnostics.rel_error)
    assert rels[1] <= rels[0]


# --- reconstruct -----------------------------------------------------------------


@pytest.fixture
def small_model(debye_sd, tmp_path):
    out = tmp_path / "bath.json"
    assert main(discretize_args(debye_sd, out)) == 0
    return str(out)


def test_reconstruct_columns_and_accuracy(small_model, tmp_path):
    out = tmp_path / "bcf.csv"
    rc = main(["reconstruct", "--model", small_model, "--n-time", "200", "--out", str(out)])
    assert rc == 0
    rows = [r.split(",") for r in data_rows(out)]
    assert len(rows) == 200
    header = [l for l in Path(out).read_text().splitlines() if not l.startswith("#")][0]
    assert header == "t_fs,re_C,im_C,re_C_ref,im_C_ref"
    # first row is t=0: imaginary part identically zero
    assert float(rows[0][0]) == 0.0
    assert abs(float(rows[0][2])) < 1e-12
    data = np.array([[float(x) for x in r] for r in rows])
    dev = np.hypot(data[:, 1] - data[:, 3], data[:, 2] - data[:, 4])
    peak = np.max(np.hypot(data[:, 3], data[:, 4]))
    assert np.max(dev) <= 1e-2 * peak


def test_reconstruct_deterministic_bytes(small_model, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["reconstruct", "--model", small_model, "--out", str(out1)]) == 0
    assert main(["reconstruct", "--model", small_model, "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    # artifacts embed config, so normalize the output-path field first
    assert b1.replace(b"a.csv", b"x.csv") == b2.replace(b"b.csv", b"x.csv")


def test_reconstruct_schema_violation_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "bathkit-bath/1", "t_max_fs": 10.0}')
    rc = main(["reconstruct", "--model", str(bad), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "temperature_K" in capsys.readouterr().err


# --- validate --------------------------------------------------------------------


def test_validate_qubit_sweep_exit_0(debye_sd, qubit_system, tmp_path):
    report_path = tmp_path / "report.json"
    series_path = tmp_path / "series.csv"
    rc = main(
        ["validate", "--sd", debye_sd, "--temp-k", "300",
         "--system", qubit_system, "--tol-sweep", "1e-1,1e-2,1e-3",
         "--t-max-fs", "300", "--omega-max-cm1", "1000",
         "--n-time", "100", "--n-freq", "1000",
         "--out", str(report_path), "--series-out", str(series_path)]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["observable"] == "dephasing_coherence"
    assert report["monotone_within_slack"] is True
    assert len(report["tols"]) == 3
    assert len(report["distances"]) == 2
    rows = data_rows(series_path)
    assert len(rows) == 100


def test_validate_non_hermitian_system_exit_2(debye_sd, tmp_path, capsys):
    bad = tmp_path / "bad_system.json"
    bad.write_text(
        json.dumps(
            {
                "dim": 2,
                "h_s": [[0.0, 1.0], [0.5, 0.0]],
                "couplings": [{"bath": "main", "v_sb": [[1.0, 0.0], [0.0, -1.0]]}],
            }
        )
    )
    rc = main(
        ["validate", "--sd", debye_sd, "--temp-k", "300", "--system", str(bad),
         "--tol-sweep", "1e-2", "--t-max-fs", "100", "--omega-max-cm1", "500",
         "--n-time", "50", "--n-freq", "200", "--out", str(tmp_path / "r.json")]
    )
    assert rc == 2
    assert "h_s" in capsys.readouterr().err


def test_validate_empty_tol_sweep_exit_2(debye_sd, qubit_system, tmp_path, capsys):
    rc = main(
        ["validate", "--sd", debye_sd, "--temp-k", "300", "--system", qubit_system,
         "--tol-sweep", "", "--t-max-fs", "100", "--omega-max-cm1", "500",
         "--n-time", "50", "--n-freq", "200", "--out", str(tmp_path / "r.json")]
    )
    assert rc == 2
    assert "tol" in capsys.readouterr().err.lower()


# --- build-model ------------------------------------------------------------------


def test_build_model_roundtrip(small_model, qubit_system, tmp_path):
    out = tmp_path / "model.json"
    rc = main(
        ["build-model", "--system", qubit_system,
         "--bath", f"main={small_model}", "--out", str(out)]
    )
    assert rc == 0
    model = import_model(str(out))
    bath = load_bath_model(small_model)
    assert model.total_mode_count == bath.mode_count
    assert model.bath_for("main").diagnostics.mode_count == bath.mode_count


def test_build_model_bad_bath_flag(qubit_system, tmp_path, capsys):
    rc = main(
        ["build-model", "--system", qubit_system, "--bath", "nonsense",
         "--out", str(tmp_path / "m.json")]
    )
    assert rc == 2
    assert "LABEL=path" in capsys.readouterr().err


# --- process-level smoke test --------------------------------------------------


def test_module_entry_point(debye_sd, tmp_path):
    out = tmp_path / "sd.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "bathkit", "eval-sd", "--sd", debye_sd,
         "--omega-min", "0", "--omega-max", "10", "--n", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0
    assert out.exists()
