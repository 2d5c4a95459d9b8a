"""Hostile inputs: non-finite numbers, unreadable files and odd paths.

Every input must either load into finite values or raise ValidationError,
and the CLI may only exit with 0 or 2-5 (never a traceback, never NaN
output with exit 0).
"""

import dataclasses
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import bathkit.quadrature as quadrature
from bathkit._schema import read_json
from bathkit.discretize import (
    BathModel,
    FdrGrid,
    FdrOperator,
    load_bath_model,
    reference_bcf,
    save_bath_model,
)
from bathkit.dynamics import dephasing_gamma_continuum
from bathkit.errors import ConvergenceError, SchemaError, ValidationError
from bathkit.hamiltonian import SystemSpec, system_from_dict
from bathkit.specdens import Debye, NoiseKernel, Temperature, load_tabulated, sd_from_config

DEBYE_JSON = '{"kind": "debye", "lambda": 35.0, "gamma": 106.1}'
KERNEL = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
QUBIT = {
    "dim": 2,
    "h_s": [[50.0, 0.0], [0.0, -50.0]],
    "couplings": [{"bath": "main", "v_sb": [[1.0, 0.0], [0.0, -1.0]]}],
}
HUGE_INT = 10**400  # valid JSON, too large for a double


@pytest.fixture
def debye_sd(tmp_path):
    p = tmp_path / "debye.json"
    p.write_text(DEBYE_JSON)
    return str(p)


@pytest.fixture
def nan_bath(bath_doc, tmp_path):
    doc = json.loads(json.dumps(bath_doc))
    doc["modes"][0]["omega_cm1"] = math.nan
    p = tmp_path / "nan_bath.json"
    p.write_text(json.dumps(doc))  # writes the bare token NaN
    return str(p)


# --- non-finite numbers in JSON -----------------------------------------------


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_bath_json_rejects_non_finite_mode_numbers(bath_doc, value):
    doc = json.loads(json.dumps(bath_doc))
    doc["modes"][0]["z"] = value
    with pytest.raises(SchemaError) as err:
        load_bath_model(io.StringIO(json.dumps(doc)))
    assert err.value.pointer == "/modes/0/z"


def test_bath_json_rejects_non_finite_window(bath_doc):
    doc = json.loads(json.dumps(bath_doc))
    doc["t_max_fs"] = math.inf
    with pytest.raises(SchemaError) as err:
        load_bath_model(io.StringIO(json.dumps(doc)))
    assert err.value.pointer == "/t_max_fs"


@pytest.mark.parametrize(
    "key, value",
    [("t_max_fs", -1000.0), ("t_max_fs", 0.0), ("omega_max_cm1", -600.0),
     ("omega_max_cm1", 0.0), ("omega_max_cm1", 1e308)],
)
def test_bath_json_window_is_one_a_grid_accepts(bath_doc, key, value):
    doc = json.loads(json.dumps(bath_doc))
    doc[key] = value
    with pytest.raises(SchemaError, match=key.rsplit("_", 1)[0]):
        load_bath_model(io.StringIO(json.dumps(doc)))


def test_bath_json_window_phases_must_be_finite(bath_doc):
    # omega_max * t_max overflows although each of them is finite
    doc = dict(json.loads(json.dumps(bath_doc)), t_max_fs=1e10, omega_max_cm1=1e306)
    with pytest.raises(SchemaError, match=r"phases omega\*t overflow"):
        load_bath_model(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_bath_json_modes_lie_in_the_window(bath_doc, sign):
    doc = json.loads(json.dumps(bath_doc))
    doc["modes"][0]["omega_cm1"] = sign * 1e306
    with pytest.raises(SchemaError, match=r"modes must lie in \[-omega_max, omega_max\]"):
        load_bath_model(io.StringIO(json.dumps(doc)))
    # the band edge itself lies in the window
    doc["modes"][0]["omega_cm1"] = sign * doc["omega_max_cm1"]
    assert load_bath_model(io.StringIO(json.dumps(doc))).omegas[0] == sign * doc["omega_max_cm1"]


def test_bath_json_top_level_must_be_an_object():
    with pytest.raises(ValidationError):
        load_bath_model(io.StringIO("[1, 2]"))


def test_invalid_json_on_an_unnamed_stream_names_the_stream():
    with pytest.raises(ValidationError, match=r"^<stream>: invalid JSON: "):
        read_json(io.StringIO("{"))


@pytest.mark.parametrize(
    "key, value, message",
    [("diagnostics", [], "expected an object, got list"),
     ("modes", {}, "expected an array, got dict")],
    ids=["diagnostics", "modes"],
)
def test_bath_json_member_of_the_wrong_kind_points_at_it(bath_doc, key, value, message):
    doc = json.loads(json.dumps(bath_doc))
    doc[key] = value
    with pytest.raises(SchemaError) as err:
        load_bath_model(io.StringIO(json.dumps(doc)))
    assert err.value.pointer == f"/{key}"
    assert str(err.value) == f"/{key}: {message}"


@pytest.mark.parametrize("field", ["omegas", "z", "g"])
def test_bath_model_rejects_non_finite_arrays(bath_doc, field):
    model = load_bath_model(io.StringIO(json.dumps(bath_doc)))
    arrays = {"omegas": model.omegas.copy(), "z": model.z.copy(), "g": model.g.copy()}
    arrays[field][0] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        BathModel(
            **arrays,
            temperature=model.temperature,
            sd=model.sd,
            t_max_fs=model.t_max_fs,
            omega_max_cm1=model.omega_max_cm1,
            tol=model.tol,
            diagnostics=model.diagnostics,
        )


@pytest.mark.parametrize(
    "arrays, match",
    [({"g": np.array([1.0])}, "equal length"), ({"g": np.array([-1.0, 1.0])}, "nonnegative")],
    ids=["unequal-lengths", "negative-g"],
)
def test_bath_model_rejects_unequal_arrays_and_negative_couplings(bath_doc, arrays, match):
    model = load_bath_model(io.StringIO(json.dumps(bath_doc)))
    two = {"omegas": model.omegas[:2], "z": model.z[:2], "g": model.g[:2]}
    with pytest.raises(ValidationError, match=match):
        dataclasses.replace(model, **{**two, **arrays})


@pytest.mark.parametrize("tol", [0.0, 1.0, 5.0, -5.0, math.nan])
def test_bath_model_rejects_a_tol_the_loader_rejects(bath_doc, tol):
    # load_bath_model refuses these, so save_bath_model must never write one
    model = load_bath_model(io.StringIO(json.dumps(bath_doc)))
    with pytest.raises(ValidationError, match=r"tol must be in \(0, 1\)"):
        dataclasses.replace(model, tol=tol)


def test_saving_a_bath_whose_diagnostics_miscount_its_modes_raises(bath_doc):
    model = load_bath_model(io.StringIO(json.dumps(bath_doc)))
    assert model.mode_count > 2
    diagnostics = dataclasses.replace(model.diagnostics, mode_count=2)
    buf = io.StringIO()
    with pytest.raises(ValidationError, match="mode"):
        save_bath_model(dataclasses.replace(model, diagnostics=diagnostics), buf)
    assert buf.getvalue() == ""


@pytest.mark.parametrize("dim", [math.nan, 2.5, "2", True])
def test_system_dim_must_be_an_integer(dim):
    with pytest.raises(SchemaError) as err:
        system_from_dict(dict(QUBIT, dim=dim), pointer="")
    assert err.value.pointer == "/dim"


@pytest.mark.parametrize(
    "value", [math.nan, HUGE_INT, "35", -5], ids=["nan", "huge", "str", "negative"]
)
def test_bath_json_temperature_must_be_a_finite_number(bath_doc, value):
    doc = json.loads(json.dumps(bath_doc))
    doc["temperature_K"] = value
    with pytest.raises(SchemaError, match="temperature") as err:
        load_bath_model(io.StringIO(json.dumps(doc)))
    assert err.value.pointer == "/temperature_K"
    assert "zero" in str(err.value)


@pytest.mark.parametrize(
    ("key", "value"),
    [
        ("nnls_converged", "false"),
        ("nnls_converged", 0),
        ("nnls_converged", None),
        ("mode_count", 2.7),
        ("mode_count", 2.0),
        ("mode_count", True),
        ("mode_count", -1),
        ("id_rank", "7"),
        ("nnls_iterations", 1.5),
    ],
)
def test_bath_json_diagnostics_types_are_strict(bath_doc, key, value):
    doc = json.loads(json.dumps(bath_doc))
    doc["diagnostics"][key] = value
    with pytest.raises(SchemaError) as err:
        load_bath_model(io.StringIO(json.dumps(doc)))
    assert err.value.pointer == f"/diagnostics/{key}"


@pytest.mark.parametrize("delta", [-1, 1, 9])
def test_bath_json_mode_count_must_match_the_modes(bath_doc, delta):
    doc = json.loads(json.dumps(bath_doc))
    doc["diagnostics"]["mode_count"] = len(doc["modes"]) + delta
    with pytest.raises(SchemaError) as err:
        load_bath_model(io.StringIO(json.dumps(doc)))
    assert err.value.pointer == "/diagnostics/mode_count"


@pytest.mark.parametrize("tol", [-5.0, 0.0, 1.0, 2.5])
def test_bath_json_tol_must_lie_in_the_unit_interval(bath_doc, tol):
    doc = json.loads(json.dumps(bath_doc))
    doc["tol"] = tol
    with pytest.raises(SchemaError) as err:
        load_bath_model(io.StringIO(json.dumps(doc)))
    assert err.value.pointer == "/tol"


def test_reconstruct_bath_with_string_bool_exits_2(exit_code, bath_doc, tmp_path, capsys):
    doc = json.loads(json.dumps(bath_doc))
    doc["diagnostics"]["nnls_converged"] = "false"
    model = tmp_path / "bath.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "bcf.csv"
    assert exit_code(["reconstruct", "--model", str(model), "--out", str(out)]) == 2
    assert not out.exists()
    assert "/diagnostics/nnls_converged" in capsys.readouterr().err


def test_temperature_with_overflowing_beta_is_rejected():
    with pytest.raises(ValidationError, match="temperature"):
        Temperature.finite(5e-324)


@pytest.mark.parametrize("lam", ["abc", HUGE_INT], ids=["str", "huge"])
def test_sd_config_with_unparseable_numbers(lam):
    with pytest.raises(ValidationError, match="debye"):
        sd_from_config({"kind": "debye", "lambda": lam, "gamma": 106.1})


# configs the float()-based reader accepted, or crashed on (a list kind)
LOOSE_SD_CONFIGS = {
    "numeric-string": {"kind": "debye", "lambda": "35", "gamma": 106.1},
    "bool": {"kind": "debye", "lambda": 35.0, "gamma": True},
    "underscore-string": {"kind": "ohmic_exp", "alpha": "1_0", "omega_c": 150.0},
    "lorentzian-string": {
        "kind": "lorentzian_sum",
        "terms": [{"lambda": 18.0, "gamma": "12", "omega0": 90.0}],
    },
    "point-triple": {"kind": "tabulated", "points": [[10.0, 1.0], [20.0, 2.0, 99.0]]},
    "point-string": {"kind": "tabulated", "points": [[10.0, 1.0], ["20", 2.0]]},
    "point-bool": {"kind": "tabulated", "points": [[10.0, 1.0], [20.0, False]]},
    "unhashable-kind": {"kind": ["debye"], "lambda": 35.0, "gamma": 106.1},
}


@pytest.mark.parametrize("config", LOOSE_SD_CONFIGS.values(), ids=LOOSE_SD_CONFIGS.keys())
def test_sd_config_numbers_are_strict_in_a_bath_json(bath_doc, config):
    doc = dict(bath_doc, spectral_density=config)
    with pytest.raises(SchemaError) as err:
        load_bath_model(io.StringIO(json.dumps(doc)))
    assert err.value.pointer == "/spectral_density"


@pytest.mark.parametrize("config", LOOSE_SD_CONFIGS.values(), ids=LOOSE_SD_CONFIGS.keys())
def test_eval_sd_with_a_loose_sd_config_exits_2(exit_code, tmp_path, config):
    sd, out = tmp_path / "sd.json", tmp_path / "sd.csv"
    sd.write_text(json.dumps(config))
    argv = ["eval-sd", "--sd", str(sd), "--omega-min", "0", "--omega-max", "20", "--n", "3",
            "--out", str(out)]
    assert exit_code(argv) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "entry", [HUGE_INT, [0.0, HUGE_INT], math.inf], ids=["huge", "huge-imag", "inf"]
)
def test_system_matrix_entries_must_be_finite(entry):
    doc = dict(QUBIT, h_s=[[entry, 0.0], [0.0, -50.0]])
    with pytest.raises(SchemaError) as err:
        system_from_dict(doc, pointer="")
    assert err.value.pointer.startswith("/h_s")


# entries whose modulus overflows a double; the matrix is not Hermitian
OVERFLOWING_H = [[0.0, 1.5e308 + 1.5e308j], [-1.5e308 + 1.5e308j, 0.0]]


def test_overflowing_non_hermitian_matrix_is_rejected():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="not Hermitian"):
            SystemSpec(h_s=OVERFLOWING_H, couplings=())
        with pytest.raises(ValidationError, match="not Hermitian"):
            SystemSpec(h_s=np.eye(2), couplings=(("main", OVERFLOWING_H),))


def test_overflowing_non_hermitian_system_json_is_rejected():
    entries = [[[z.real, z.imag] for z in row] for row in np.array(OVERFLOWING_H)]
    doc = dict(QUBIT, h_s=entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match="not Hermitian"):
            system_from_dict(doc, pointer="")


def test_overflowing_hermitian_matrix_is_accepted():
    h = [[0.0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SystemSpec(h_s=h, couplings=()).dim == 2


def test_reconstruct_nan_bath_exits_2_without_output(exit_code, nan_bath, tmp_path, capsys):
    out = tmp_path / "bcf.csv"
    assert exit_code(["reconstruct", "--model", nan_bath, "--out", str(out)]) == 2
    assert not out.exists()
    assert "/modes/0/omega_cm1" in capsys.readouterr().err


def test_build_model_nan_bath_exits_2_without_output(exit_code, nan_bath, tmp_path):
    system = tmp_path / "qubit.json"
    system.write_text(json.dumps(QUBIT))
    out = tmp_path / "model.json"
    argv = ["build-model", "--system", str(system), "--bath", f"main={nan_bath}", "--out", str(out)]
    assert exit_code(argv) == 2
    assert not out.exists()


def test_reconstruct_bath_with_a_negative_window_exits_2(exit_code, bath_doc, tmp_path, capsys):
    doc = json.loads(json.dumps(bath_doc))
    doc["t_max_fs"] = -1000.0
    model = tmp_path / "bath.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "bcf.csv"
    assert exit_code(["reconstruct", "--model", str(model), "--n-time", "3", "--out", str(out)]) == 2
    assert not out.exists()
    assert "t_max_fs must be finite and > 0" in capsys.readouterr().err


def test_reconstruct_bath_whose_g_squared_overflows_exits_2(exit_code, bath_doc, tmp_path, capsys):
    doc = json.loads(json.dumps(bath_doc))
    doc["modes"][0]["g_cm1"] = 1e300
    model = tmp_path / "bath.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "bcf.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exit_code(["reconstruct", "--model", str(model), "--out", str(out)]) == 2
    assert not out.exists()
    assert "C(t) is not finite" in capsys.readouterr().err


def test_build_model_bath_with_a_mode_outside_the_window_exits_2(
    exit_code, bath_doc, tmp_path, capsys
):
    doc = json.loads(json.dumps(bath_doc))
    doc["modes"][0]["omega_cm1"] = 1e306
    bath = tmp_path / "bath.json"
    bath.write_text(json.dumps(doc))
    system = tmp_path / "qubit.json"
    system.write_text(json.dumps(QUBIT))
    out = tmp_path / "model.json"
    argv = ["build-model", "--system", str(system), "--bath", f"main={bath}", "--out", str(out)]
    assert exit_code(argv) == 2
    assert not out.exists()
    assert "modes must lie in" in capsys.readouterr().err


def test_build_model_bath_with_a_negative_band_exits_2(exit_code, bath_doc, tmp_path, capsys):
    doc = json.loads(json.dumps(bath_doc))
    doc["omega_max_cm1"] = -600.0
    bath = tmp_path / "bath.json"
    bath.write_text(json.dumps(doc))
    system = tmp_path / "qubit.json"
    system.write_text(json.dumps(QUBIT))
    out = tmp_path / "model.json"
    argv = ["build-model", "--system", str(system), "--bath", f"main={bath}", "--out", str(out)]
    assert exit_code(argv) == 2
    assert not out.exists()
    assert "band width" in capsys.readouterr().err


def test_validate_nan_dim_exits_2(exit_code, debye_sd, tmp_path, capsys):
    system = tmp_path / "qubit.json"
    system.write_text(json.dumps(dict(QUBIT, dim=math.nan)))
    argv = [
        "validate", "--sd", debye_sd, "--temp-k", "300", "--system", str(system),
        "--tol-sweep", "1e-2", "--omega-max-cm1", "500", "--out", str(tmp_path / "r.json"),
    ]
    assert exit_code(argv) == 2
    assert "/dim" in capsys.readouterr().err


# --- numeric CLI flags ----------------------------------------------------------


# the discretize cases keep their original ids; validate takes the same flag
CAP_CASES = [
    pytest.param(command, cap, id=cap if command == "discretize" else f"{command}-{cap}")
    for command in ("discretize", "validate")
    for cap in ("nan", "inf", "0", "-1")
]


@pytest.mark.parametrize("command, cap", CAP_CASES)
def test_memory_cap_must_be_positive_and_finite(
    exit_code, debye_sd, tmp_path, capsys, command, cap
):
    system = tmp_path / "qubit.json"
    system.write_text(json.dumps(QUBIT))
    argv = [
        command, "--sd", debye_sd, "--temp-k", "300", "--omega-max-cm1", "500",
        "--n-time", "20", "--n-freq", "200", "--t-max-fs", "100",
        f"--memory-cap-gib={cap}", "--out", str(tmp_path / "b.json"),
    ]
    if command == "validate":
        argv += ["--system", str(system), "--tol-sweep", "1e-1"]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "--memory-cap-gib" in err and "unrecognized" not in err
    assert not (tmp_path / "b.json").exists()


def test_memory_cap_above_the_double_range_of_bytes(exit_code, debye_sd, tmp_path):
    # 1e300 GiB is 1.07e309 bytes: the cap is converted exactly, not as a float
    out = tmp_path / "b.json"
    argv = [
        "discretize", "--sd", debye_sd, "--temp-k", "300", "--omega-max-cm1", "500",
        "--n-time", "20", "--n-freq", "200", "--t-max-fs", "100",
        "--memory-cap-gib=1e300", "--out", str(out),
    ]
    assert exit_code(argv) == 0
    assert json.loads(out.read_text())["metadata"]["config"]["memory_cap_gib"] == 1e300


def test_validate_with_a_state_count_beyond_str_exits_4(exit_code, tmp_path, capsys):
    # 200 sigma_x couplings to one bath: the truncated space has thousands of
    # digits, which no message may print (str(int) stops at 4300 digits)
    system = tmp_path / "many.json"
    coupling = {"bath": "b", "v_sb": [[0.0, 1.0], [1.0, 0.0]]}
    system.write_text(json.dumps(dict(QUBIT, couplings=[coupling] * 200)))
    out = tmp_path / "r.json"
    argv = [
        "validate", "--sd", "configs/surrogate_sd.csv", "--temp-k", "300",
        "--system", str(system), "--tol-sweep", "1e-2", "--omega-max-cm1", "600",
        "--out", str(out),
    ]
    assert exit_code(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "Krylov basis" in err and len(err) < 200
    assert not out.exists()


def test_tol_sweep_rejects_non_numbers(exit_code, debye_sd, tmp_path, capsys):
    system = tmp_path / "qubit.json"
    system.write_text(json.dumps(QUBIT))
    argv = [
        "validate", "--sd", debye_sd, "--temp-k", "300", "--system", str(system),
        "--tol-sweep", "1e-1,abc", "--omega-max-cm1", "500", "--out", str(tmp_path / "r.json"),
    ]
    assert exit_code(argv) == 2
    assert "abc" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--omega-min", "--omega-max", "--temp-k"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_eval_sd_rejects_non_finite_flags(exit_code, debye_sd, tmp_path, flag, value):
    out = tmp_path / "sd.csv"
    flags = {"--omega-min": "0", "--omega-max": "10", "--temp-k": "300", flag: value}
    argv = ["eval-sd", "--sd", debye_sd, "--n", "3", "--out", str(out)]
    argv += [f"{k}={v}" for k, v in flags.items()]
    assert exit_code(argv) == 2
    assert not out.exists()


def test_eval_sd_rejects_a_range_that_overflows(exit_code, debye_sd, tmp_path):
    out = tmp_path / "sd.csv"
    argv = [
        "eval-sd", "--sd", debye_sd, "--omega-min=-1.7e308", "--omega-max=1.7e308",
        "--n", "3", "--out", str(out),
    ]
    assert exit_code(argv) == 2
    assert not out.exists()


def run_without_warnings(exit_code, argv):
    """Exit code of the CLI; fails if numpy (or anything) warned on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = exit_code(argv)
    assert [str(w.message) for w in caught] == []
    return code


@pytest.mark.parametrize(
    "flags",
    [
        ["--omega-max-cm1", "1e308"],
        ["--omega-max-cm1", "1e306", "--t-max-fs", "1e10"],
        ["--omega-max-cm1", "1e200"],
    ],
    ids=["band-overflows", "phases-overflow", "noise-vanishes"],
)
def test_discretize_extreme_finite_flags_exit_2_without_warnings(
    exit_code, debye_sd, tmp_path, capsys, flags
):
    out = tmp_path / "b.json"
    argv = ["discretize", "--sd", debye_sd, "--temp-k", "300", "--n-time", "20",
            "--n-freq", "200", "--out", str(out), *flags]
    assert run_without_warnings(exit_code, argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "RuntimeWarning" not in err
    assert not out.exists()


def test_discretize_noise_too_small_to_square_exits_2(exit_code, tmp_path, capsys):
    # the noise is nonzero on the default grid, but every m * S^2 underflows to 0
    sd = Path(__file__).resolve().parent.parent / "configs" / "debye_sd.json"
    out = tmp_path / "x.json"
    argv = ["discretize", "--sd", str(sd), "--temp-k", "300", "--omega-max-cm1", "1e300",
            "--out", str(out)]
    assert run_without_warnings(exit_code, argv) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: interpolative decomposition selected no columns: every column's squared norm "
        "is zero on the grid (the noise is zero, or too small to square in double precision)\n"
    )
    assert not out.exists()
    grid = FdrGrid(1000.0, 1e300)
    kernel = NoiseKernel(sd_from_config(read_json(str(sd))), Temperature.finite(300.0))
    assert np.count_nonzero(kernel.evaluate(grid.freqs)) > 0
    assert np.all(FdrOperator(kernel, grid).norms2 == 0.0)


def validate_at_tiny_band(exit_code, debye_sd, tmp_path, h_s, omega_max, tols):
    system = tmp_path / "qubit.json"
    system.write_text(json.dumps(dict(QUBIT, h_s=h_s)))
    out = tmp_path / "r.json"
    argv = ["validate", "--sd", debye_sd, "--temp-k", "300", "--system", str(system),
            "--tol-sweep", tols, "--omega-max-cm1", omega_max, "--t-max-fs", "100",
            "--n-time", "11", "--n-freq", "20", "--out", str(out)]
    return run_without_warnings(exit_code, argv), out


def test_validate_fock_caps_saturate_for_a_tiny_band(exit_code, debye_sd, tmp_path):
    # (g / omega)^2 overflows for every mode; the caps saturate at MAX_FOCK_CAP
    code, out = validate_at_tiny_band(
        exit_code, debye_sd, tmp_path, [[50.0, 40.0], [40.0, -50.0]], "1e-305", "0.3,0.1"
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["observable"] == "populations"
    assert len(report["distances"]) == 1 and math.isfinite(report["distances"][0])


def test_validate_dephasing_at_a_tiny_band_exits_0(exit_code, debye_sd, tmp_path):
    # omega^2 underflows, but g / omega and the dephasing exponent stay finite
    code, out = validate_at_tiny_band(
        exit_code, debye_sd, tmp_path, QUBIT["h_s"], "1e-200", "0.3,0.1"
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["observable"] == "dephasing_coherence"
    assert len(report["distances"]) == 1 and math.isfinite(report["distances"][0])


@pytest.mark.parametrize(
    "config, span",
    [
        (DEBYE_JSON, ("-1.7e308", "1.7e308")),
        # 2*lam*gamma itself overflows, so J is inf at every omega > 0
        ('{"kind": "debye", "lambda": 1e300, "gamma": 1e300}', ("0", "1.7e308")),
    ],
    ids=["span-overflows", "noise-overflows"],
)
def test_eval_sd_extreme_finite_range_exits_2_without_warnings(
    exit_code, tmp_path, capsys, config, span
):
    sd = tmp_path / "sd.json"
    sd.write_text(config)
    out = tmp_path / "sd.csv"
    argv = ["eval-sd", "--sd", str(sd), f"--omega-min={span[0]}", f"--omega-max={span[1]}",
            "--n", "3", "--out", str(out)]
    assert run_without_warnings(exit_code, argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "RuntimeWarning" not in err
    assert not out.exists()


def test_eval_sd_far_debye_tail_is_not_zero(exit_code, debye_sd, tmp_path):
    out = tmp_path / "sd.csv"
    argv = ["eval-sd", "--sd", debye_sd, "--omega-min=1e200", "--omega-max=1e201",
            "--n", "3", "--out", str(out)]
    assert run_without_warnings(exit_code, argv) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[5:]]
    assert len(rows) == 3
    for omega, j, s in rows:
        assert float(j) == pytest.approx(2.0 * 35.0 * 106.1 / float(omega), rel=1e-14, abs=0.0)
        assert float(s) == float(j)  # zero temperature: S = J for omega > 0


def test_eval_sd_shipped_debye_is_finite_up_to_the_largest_double(exit_code, tmp_path):
    sd = Path(__file__).resolve().parent.parent / "configs" / "debye_sd.json"
    out = tmp_path / "sd.csv"
    argv = ["eval-sd", "--sd", str(sd), "--omega-min=0", "--omega-max=1.7e308",
            "--n", "3", "--out", str(out)]
    assert run_without_warnings(exit_code, argv) == 0
    rows = [[float(c) for c in line.split(",")] for line in out.read_text().splitlines()[5:]]
    assert rows[0] == [0.0, 0.0, 0.0]
    for omega, j, s in rows[1:]:
        assert j == pytest.approx(2.0 * 35.0 * 106.1 / omega, rel=1e-14, abs=0.0)
        assert s == j


# --- file-system and decoding errors ------------------------------------------------


def test_out_path_inside_a_regular_file_exits_2(exit_code, debye_sd, tmp_path, capsys):
    argv = [
        "eval-sd", "--sd", debye_sd, "--omega-min", "0", "--omega-max", "10",
        "--n", "3", "--out", f"{debye_sd}/x.csv",
    ]
    assert exit_code(argv) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["x.json", "x.csv"])
def test_sd_path_inside_a_regular_file_exits_2(exit_code, debye_sd, tmp_path, name):
    argv = [
        "eval-sd", "--sd", f"{debye_sd}/{name}", "--omega-min", "0", "--omega-max", "10",
        "--n", "3", "--out", str(tmp_path / "o.csv"),
    ]
    assert exit_code(argv) == 2


@pytest.mark.parametrize("name", ["binary.json", "binary.csv"])
def test_binary_sd_file_exits_2(exit_code, tmp_path, capsys, name):
    sd = tmp_path / name
    sd.write_bytes(bytes(range(256)))
    argv = [
        "eval-sd", "--sd", str(sd), "--omega-min", "0", "--omega-max", "10",
        "--n", "3", "--out", str(tmp_path / "o.csv"),
    ]
    assert exit_code(argv) == 2
    assert "UTF-8" in capsys.readouterr().err


# --- a string is always a path ----------------------------------------------------


@pytest.fixture
def comma_dir_table(tmp_path):
    directory = tmp_path / "a,b"
    directory.mkdir()
    table = directory / "table.csv"
    table.write_text("omega_cm1,J_cm1\n10,1.0\n20,2.0\n")
    return table


def test_load_tabulated_path_with_a_comma(comma_dir_table):
    sd = load_tabulated(str(comma_dir_table))
    assert sd.omega.tolist() == [10.0, 20.0]
    assert load_tabulated(comma_dir_table).values.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("cell", ["1_0", "inf", "nan", "0x10", "1e999", "-inf", "\u0663"])
@pytest.mark.parametrize("row", [1, 2])
def test_load_tabulated_cells_are_plain_finite_decimals(cell, row):
    lines = ["10,1.0", "20,2.0", "30,3.0"]
    lines[row - 1] = f"{cell},1.0" if row == 1 else f"20,{cell}"
    with pytest.raises(ValidationError, match=f"line {row}:"):
        load_tabulated(io.StringIO("\n".join(lines) + "\n"))


def test_load_tabulated_keeps_the_header_and_plain_decimal_forms():
    text = "omega_cm1,J_cm1\n.5,+2\n1.5e1,3.\n1E2,4e-1\n"
    sd = load_tabulated(io.StringIO(text))
    assert sd.omega.tolist() == [0.5, 15.0, 100.0]
    assert sd.values.tolist() == [2.0, 3.0, 0.4]


def test_shipped_surrogate_csv_loads_as_python_floats():
    path = Path(__file__).resolve().parent.parent / "configs" / "surrogate_sd.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()[1:] if line]
    sd = load_tabulated(path)
    assert sd.omega.tolist() == [float(w) for w, _ in rows]
    assert sd.values.tolist() == [float(j) for _, j in rows]


def test_eval_sd_csv_path_with_a_comma(exit_code, comma_dir_table, tmp_path):
    argv = [
        "eval-sd", "--sd", str(comma_dir_table), "--omega-min", "0", "--omega-max", "20",
        "--n", "3", "--out", str(tmp_path / "o.csv"),
    ]
    assert exit_code(argv) == 0


# --- quadrature refinement cap ---------------------------------------------------------


def test_dephasing_gamma_continuum_refinement_cap_errors(monkeypatch):
    monkeypatch.setattr(quadrature, "QUAD_REL_TOL", 1e-30)
    monkeypatch.setattr(quadrature, "MAX_QUAD_POINTS", 1 << 15)
    with pytest.raises(ConvergenceError, match="dephasing quadrature.*relative change"):
        dephasing_gamma_continuum(KERNEL, np.linspace(0.0, 500.0, 20), 1000.0)


def test_continuum_series_at_no_times_are_empty():
    # as reconstruct_bcf and dephasing_gamma give for a model: no times, no values
    c = reference_bcf(KERNEL, [], 1000.0)
    gamma = dephasing_gamma_continuum(KERNEL, [], 1000.0)
    assert (c.shape, c.dtype) == ((0,), np.complex128)
    assert (gamma.shape, gamma.dtype) == ((0,), np.float64)
