import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bathkit.cli as cli
from bathkit.cli import build_parser, main
from bathkit.discretize import FdrGrid, load_bath_model, save_bath_model
from bathkit.dynamics import convergence_study
from bathkit.hamiltonian import import_model, system_from_dict
from bathkit.specdens import NoiseKernel, Temperature, load_tabulated

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


def no_linspace(*args, **kwargs):
    raise AssertionError("rows were allocated before the memory check")


@pytest.mark.parametrize("n", ["1000000000000", "10000000000000000000"])
def test_eval_sd_huge_row_count_exit_4(debye_sd, tmp_path, capsys, monkeypatch, n):
    # 10^12 rows need terabytes and 10^19 exceed numpy's array size: both
    # stop at the cap, before any row array exists
    monkeypatch.setattr(cli.np, "linspace", no_linspace)
    out = tmp_path / "sd.csv"
    argv = ["eval-sd", "--sd", debye_sd, "--omega-min", "0", "--omega-max", "1", "--n", n]
    assert main(argv + ["--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"a table of {n} rows" in err and "cap" in err
    assert not out.exists()


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


def test_eval_sd_needs_two_rows_exit_2(debye_sd, tmp_path, capsys):
    out = tmp_path / "sd.csv"
    argv = ["eval-sd", "--sd", debye_sd, "--omega-min", "0", "--omega-max", "1", "--n", "1"]
    assert main(argv + ["--out", str(out)]) == 2
    assert "--n must be >= 2, got 1" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "flag, value, message",
    [("n-time", "1", "n_time >= 2"), ("t-max-fs", "0", "t_max_fs must be finite and > 0")],
    ids=["one-time", "zero-t-max"],
)
def test_discretize_grid_that_is_no_window_exit_2(debye_sd, tmp_path, capsys, flag, value, message):
    # C(0) alone is no window: the grid holds two times or more, over a t_max > 0
    out = tmp_path / "bath.json"
    assert main(discretize_args(debye_sd, out, **{flag: value})) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


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


def test_cap_defaults_are_the_library_constants(monkeypatch):
    from bathkit.discretize import DEFAULT_MEMORY_CAP_BYTES, FdrGrid

    common = ["--sd", "x.json", "--omega-max-cm1", "1", "--out", "o"]

    def defaults():
        parse = build_parser().parse_args
        return (
            parse(["discretize", *common]),
            parse(["validate", *common, "--system", "s", "--tol-sweep", "1"]),
            parse(["reconstruct", "--model", "m", "--out", "o"]),
        )

    discretize, validate, reconstruct = defaults()
    for args in (discretize, validate):
        assert args.memory_cap_gib * 2**30 == DEFAULT_MEMORY_CAP_BYTES
        assert (args.n_time, args.n_freq) == (FdrGrid.n_time, FdrGrid.n_freq) == (1000, 10000)
    assert reconstruct.n_time == FdrGrid.n_time
    # the parser reads the constants, not copies of their values
    monkeypatch.setattr(cli, "DEFAULT_MEMORY_CAP_BYTES", 3 << 30)
    monkeypatch.setattr(FdrGrid, "n_time", 7)
    monkeypatch.setattr(FdrGrid, "n_freq", 70)
    discretize, validate, reconstruct = defaults()
    for args in (discretize, validate):
        assert (args.memory_cap_gib, args.n_time, args.n_freq) == (3.0, 7, 70)
    assert reconstruct.n_time == 7


def test_discretize_memory_cap_exit_4(debye_sd, tmp_path, capsys):
    rc = main(
        discretize_args(
            debye_sd, tmp_path / "x.json",
            **{"n-time": "1000", "n-freq": "10000", "memory-cap-gib": "0.01"},
        )
    )
    assert rc == 4
    assert "cap" in capsys.readouterr().err


def test_validate_bad_tightest_tol_exit_2_before_any_work(
    qubit_system, tmp_path, capsys, monkeypatch
):
    def no_discretize(*args, **kwargs):
        raise AssertionError("a bath was discretized")

    monkeypatch.setattr("bathkit.dynamics.discretize_bath", no_discretize)
    monkeypatch.setattr("bathkit.dynamics.fdr_factor", no_discretize)
    out = tmp_path / "r.json"
    argv = ["validate", "--sd", "configs/surrogate_sd.csv", "--temp-k", "300",
            "--system", qubit_system, "--tol-sweep", "0.3,0.2,0", "--omega-max-cm1", "600",
            "--out", str(out)]
    assert main(argv) == 2
    assert "tol must be in (0, 1), got 0.0" in capsys.readouterr().err
    assert not out.exists()


def test_validate_memory_cap_exit_4(qubit_system, tmp_path, capsys):
    # the column ID on the default grid needs 0.19 GiB, above a 0.01 GiB cap
    out = tmp_path / "r.json"
    argv = ["validate", "--sd", "configs/surrogate_sd.csv", "--temp-k", "300",
            "--system", qubit_system, "--tol-sweep", "1e-2", "--omega-max-cm1", "600",
            "--memory-cap-gib", "0.01", "--out", str(out)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "above the 0.01 GiB cap" in err and "column ID" in err
    assert not out.exists()


def test_validate_metadata_records_the_memory_cap(qubit_system, tmp_path):
    out = tmp_path / "r.json"
    argv = ["validate", "--sd", "configs/surrogate_sd.csv", "--temp-k", "300",
            "--system", qubit_system, "--tol-sweep", "1e-1", "--omega-max-cm1", "600",
            "--t-max-fs", "100", "--n-time", "20", "--n-freq", "200", "--memory-cap-gib", "2.5",
            "--out", str(out)]
    assert main(argv) == 0
    config = json.loads(out.read_text())["metadata"]["config"]
    assert config["memory_cap_gib"] == 2.5 and "dim_cap" not in config


@pytest.mark.parametrize("t_max_fs, need", [("50000", 1800), ("100000", 3599)])
def test_discretize_refuses_a_grid_that_does_not_resolve_its_band(
    debye_sd, tmp_path, capsys, monkeypatch, t_max_fs, need
):
    # the default 1000 times alias a 600 cm^-1 band over these windows: the fit would
    # interpolate its samples and report roundoff as its error, so exit 2 before any work
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the grid check")

    monkeypatch.setattr(cli, "discretize_bath", no_work)
    monkeypatch.setattr(NoiseKernel, "evaluate", no_work)
    out = tmp_path / "b.json"
    argv = ["discretize", "--sd", debye_sd, "--temp-k", "300", "--t-max-fs", t_max_fs,
            "--omega-max-cm1", "600", "--tol", "1e-2", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n_time 1000 does not resolve the band") and err.count("\n") == 1
    assert err.endswith(f"use n_time >= {need}\n")
    assert not out.exists()


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


@pytest.mark.parametrize("n", ["1000000000000", "10000000000000000000"])
def test_reconstruct_huge_row_count_exit_4(small_model, tmp_path, capsys, monkeypatch, n):
    monkeypatch.setattr(cli.np, "linspace", no_linspace)
    out = tmp_path / "bcf.csv"
    assert main(["reconstruct", "--model", small_model, "--n-time", n, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"a table of {n} rows" in err and "cap" in err
    assert not out.exists()


def test_reconstruct_schema_violation_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "bathkit-bath/1", "t_max_fs": 10.0}')
    rc = main(["reconstruct", "--model", str(bad), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "temperature_K" in capsys.readouterr().err


def test_reconstruct_unknown_bath_schema_exit_2(small_model, tmp_path, capsys):
    doc = json.loads(Path(small_model).read_text())
    doc["schema"] = "bathkit-bath/2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["reconstruct", "--model", str(bad), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "/schema" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("temp", [["--temp-k", "300"], ["--zero-temp"]], ids=["300K", "zero"])
def test_bath_json_reloads_and_resaves_byte_identical(debye_sd, tmp_path, temp):
    out, again = tmp_path / "bath.json", tmp_path / "again.json"
    argv = discretize_args(debye_sd, out)
    i = argv.index("--temp-k")
    argv[i : i + 2] = temp
    assert main(argv) == 0
    model = load_bath_model(str(out))
    assert model.temperature.is_zero == (temp == ["--zero-temp"])
    save_bath_model(model, again, metadata=json.loads(out.read_text())["metadata"])
    assert again.read_bytes() == out.read_bytes()
    assert main(["reconstruct", "--model", str(again), "--out", str(tmp_path / "c.csv")]) == 0


def test_discretize_negative_noise_at_a_selected_column_exit_2(tmp_path, capsys):
    sd, out = tmp_path / "neg.csv", tmp_path / "b.json"
    sd.write_text("omega,J\n10,-1\n20,-2\n40,-1\n")
    argv = ["discretize", "--sd", str(sd), "--temp-k", "300", "--n-time", "20",
            "--n-freq", "100", "--omega-max-cm1", "60", "--t-max-fs", "200", "--out", str(out)]
    assert main(argv) == 2
    assert "quantum noise is negative at selected frequencies" in capsys.readouterr().err
    assert not out.exists()


def test_discretize_identically_zero_noise_exit_2(tmp_path, capsys):
    # no tol in (0, 1) stops the ID before its first pivot; only a zero noise does
    sd, out = tmp_path / "zero.csv", tmp_path / "b.json"
    sd.write_text("1.0,0.0\n600.0,0.0\n")
    argv = ["discretize", "--sd", str(sd), "--temp-k", "300", "--n-time", "20",
            "--n-freq", "100", "--omega-max-cm1", "600", "--t-max-fs", "200", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "selected no columns: every column's squared norm is zero on the grid" in err
    assert "tol" not in err
    assert not out.exists()


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


def test_validate_populations_series_csv(tmp_path):
    # off-diagonal h_s takes the propagation branch: one population column per
    # system level and tolerance, each cell repr(float(x)) of the library's series
    spin_boson = {
        "dim": 2,
        "h_s": [[50.0, 40.0], [40.0, -50.0]],
        "couplings": [{"bath": "main", "v_sb": [[1.0, 0.0], [0.0, -1.0]]}],
    }
    system = tmp_path / "spin_boson.json"
    system.write_text(json.dumps(spin_boson))
    series_path = tmp_path / "series.csv"
    rc = main(
        ["validate", "--sd", "configs/surrogate_sd.csv", "--temp-k", "300",
         "--system", str(system), "--tol-sweep", "0.3,0.2,0.1",
         "--t-max-fs", "100", "--omega-max-cm1", "600", "--n-time", "101", "--n-freq", "2000",
         "--out", str(tmp_path / "r.json"), "--series-out", str(series_path)]
    )
    assert rc == 0
    header, *rows = [l for l in series_path.read_text().splitlines() if not l.startswith("#")]
    assert header == "t_fs," + ",".join(f"pop{j}_tol{i}" for i in range(3) for j in (1, 2))
    rows = [r.split(",") for r in rows]
    assert {len(r) for r in rows} == {1 + 2 * 3}

    kernel = NoiseKernel(load_tabulated("configs/surrogate_sd.csv"), Temperature.finite(300.0))
    report = convergence_study(
        kernel, system_from_dict(spin_boson, pointer=""), [0.3, 0.2, 0.1],
        FdrGrid(t_max_fs=100.0, omega_max_cm1=600.0, n_time=101, n_freq=2000),
    )
    expected = [
        [repr(float(t))] + [repr(float(p)) for s in report.series for p in s[k]]
        for k, t in enumerate(report.times)
    ]
    assert rows == expected


def test_validate_sweep_with_a_zero_distance_exit_0(tmp_path):
    # tols 0.3 and 0.2 give the same 4-mode bath, so the first distance is
    # exactly 0; the trend is judged on the nonzero distances only
    system = tmp_path / "spin_boson.json"
    system.write_text(json.dumps({
        "dim": 2,
        "h_s": [[50.0, 40.0], [40.0, -50.0]],
        "couplings": [{"bath": "main", "v_sb": [[1.0, 0.0], [0.0, -1.0]]}],
    }))
    rc = main(
        ["validate", "--sd", "configs/surrogate_sd.csv", "--temp-k", "300",
         "--system", str(system), "--tol-sweep", "0.3,0.2,0.1", "--t-max-fs", "100",
         "--omega-max-cm1", "600", "--n-time", "6", "--n-freq", "2000",
         "--out", str(tmp_path / "r.json")]
    )
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["distances"][0] == 0.0 and report["distances"][1] > 0.0
    assert report["monotone_within_slack"] is True
    assert rc == 0


def test_validate_non_monotone_sweep_exit_5(debye_sd, qubit_system, tmp_path, monkeypatch):
    # distances 0.01 then 0.05 grow past the slack: the report is written and
    # the exit code says the validation failed
    import bathkit.dynamics as dynamics

    gammas = iter(-np.log([0.5, 0.51, 0.56]))
    monkeypatch.setattr(
        dynamics, "dephasing_gamma", lambda model, times: np.full(len(times), next(gammas))
    )
    rc = main(
        ["validate", "--sd", debye_sd, "--temp-k", "300", "--system", qubit_system,
         "--tol-sweep", "0.5,0.4,0.3", "--t-max-fs", "50", "--omega-max-cm1", "500",
         "--n-time", "4", "--n-freq", "128", "--out", str(tmp_path / "r.json")]
    )
    assert rc == 5
    assert json.loads((tmp_path / "r.json").read_text())["monotone_within_slack"] is False


def test_validate_populations_on_a_one_time_grid_exit_2(tmp_path, capsys):
    # the propagation branch names the grid option, not propagate's arguments
    system = tmp_path / "spin_boson.json"
    system.write_text(json.dumps({
        "dim": 2,
        "h_s": [[50.0, 40.0], [40.0, -50.0]],
        "couplings": [{"bath": "main", "v_sb": [[1.0, 0.0], [0.0, -1.0]]}],
    }))
    rc = main(
        ["validate", "--sd", "configs/surrogate_sd.csv", "--temp-k", "300",
         "--system", str(system), "--tol-sweep", "0.3,0.2", "--t-max-fs", "100",
         "--omega-max-cm1", "600", "--n-time", "1", "--n-freq", "2000",
         "--out", str(tmp_path / "r.json")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "n_time >= 2" in err and "t_max_fs and dt_fs" not in err
    assert not (tmp_path / "r.json").exists()


def test_validate_nnls_nonconvergence_exit_3(
    debye_sd, qubit_system, tmp_path, capsys, monkeypatch
):
    # every ConvergenceError with diagnostics is reported by main, whichever
    # subcommand raised it
    import bathkit.discretize as disc
    from bathkit.lowrank import NnlsResult

    def no_convergence(a, b, factor=None):
        return NnlsResult(np.zeros(a.shape[1]), float(np.linalg.norm(b)), 0, False, 1e-12)

    monkeypatch.setattr(disc, "nnls", no_convergence)
    rc = main(
        ["validate", "--sd", debye_sd, "--temp-k", "300", "--system", qubit_system,
         "--tol-sweep", "1e-1", "--t-max-fs", "100", "--omega-max-cm1", "500",
         "--n-time", "20", "--n-freq", "200", "--out", str(tmp_path / "r.json")]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "partial diagnostics" in err and '"id_rank": ' in err
    assert not (tmp_path / "r.json").exists()


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


def test_build_model_empty_bath_label_exit_2_no_output(small_model, qubit_system, tmp_path, capsys):
    out = tmp_path / "m.json"
    rc = main(
        ["build-model", "--system", qubit_system, "--bath", f"main={small_model}",
         "--bath", f"={small_model}", "--out", str(out)]
    )
    assert rc == 2
    assert "label must be a nonempty string" in capsys.readouterr().err
    assert not out.exists()


# --- metadata -----------------------------------------------------------------


def subcommand_dests(name):
    """The argparse dests of one subcommand, as ``build_parser`` declares them."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[name]._actions if a.dest != "help"}


def csv_metadata(path):
    """The command and config of a CSV artifact's ``#`` metadata lines."""
    lines = Path(path).read_text().splitlines()
    command = next(l for l in lines if l.startswith("# command: "))[len("# command: "):]
    config = next(l for l in lines if l.startswith("# config: "))[len("# config: "):]
    return {"command": command, "config": json.loads(config)}


def test_every_artifact_config_is_the_parsed_flags_of_its_subcommand(
    debye_sd, qubit_system, tmp_path
):
    sd_csv, bath = tmp_path / "sd.csv", tmp_path / "bath.json"
    bcf, model = tmp_path / "bcf.csv", tmp_path / "model.json"
    report, series = tmp_path / "report.json", tmp_path / "series.csv"
    grid = ["--t-max-fs", "300", "--omega-max-cm1", "1000", "--n-time", "20", "--n-freq", "200"]
    runs = {
        "eval-sd": ["--sd", debye_sd, "--omega-min", "0", "--omega-max", "10", "--n", "3",
                    "--out", str(sd_csv)],
        "discretize": ["--sd", debye_sd, "--temp-k", "300", *grid, "--out", str(bath)],
        "reconstruct": ["--model", str(bath), "--n-time", "5", "--out", str(bcf)],
        "validate": ["--sd", debye_sd, "--zero-temp", "--system", qubit_system,
                     "--tol-sweep", "1e-2, 1e-1", *grid, "--out", str(report),
                     "--series-out", str(series)],
        "build-model": ["--system", qubit_system, "--bath", f"main={bath}", "--out", str(model)],
    }
    for name, argv in runs.items():
        assert main([name, *argv]) == 0, name

    metas = {
        "eval-sd": csv_metadata(sd_csv),
        "discretize": json.loads(bath.read_text())["metadata"],
        "reconstruct": csv_metadata(bcf),
        "validate": json.loads(report.read_text())["metadata"],
        "build-model": json.loads(model.read_text())["metadata"],
    }
    for name, meta in metas.items():
        assert meta["command"] == name
        assert set(meta["config"]) == subcommand_dests(name), name
    # defaults are filled in and every flag is recorded as given
    assert metas["eval-sd"]["config"]["temp_k"] is None
    assert metas["discretize"]["config"]["temp_k"] == 300.0
    assert metas["discretize"]["config"]["tol"] == 1e-2
    assert metas["validate"]["config"]["zero_temp"] is True
    assert metas["validate"]["config"]["tol_sweep"] == "1e-2, 1e-1"
    assert json.loads(report.read_text())["tols"] == [1e-1, 1e-2]
    assert metas["build-model"]["config"]["bath"] == [f"main={bath}"]
    # the series CSV carries the report's metadata
    assert csv_metadata(series) == {"command": "validate", "config": metas["validate"]["config"]}


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
