import io

import numpy as np
import pytest

from bathkit.discretize import FdrGrid, discretize_bath
from bathkit.errors import SchemaError, ValidationError
from bathkit.hamiltonian import (
    DiscreteModel,
    SystemSpec,
    build_model,
    export_model,
    import_model,
    model_to_dict,
    system_from_dict,
)
from bathkit.specdens import Debye, NoiseKernel, Temperature

KERNEL = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
GRID = FdrGrid(t_max_fs=300.0, omega_max_cm1=1000.0, n_time=100, n_freq=1000)


@pytest.fixture(scope="module")
def bath():
    return discretize_bath(KERNEL, GRID, 1e-2)


def site_projector(dim, site):
    v = np.zeros((dim, dim))
    v[site, site] = 1.0
    return v


def test_smallest_valid_model(bath):
    system = SystemSpec(h_s=[[0.0]], couplings=(("b", [[1.0]]),))
    model = build_model(system, [("b", bath)])
    assert model.system.dim == 1
    assert model.total_mode_count == bath.mode_count


def test_two_site_two_bath_structure(bath):
    h_s = [[100.0, 20.0], [20.0, 0.0]]
    system = SystemSpec(
        h_s=h_s,
        couplings=(("site1", site_projector(2, 0)), ("site2", site_projector(2, 1))),
    )
    model = build_model(system, [("site1", bath), ("site2", bath)])
    assert model.total_mode_count == 2 * bath.mode_count


def test_mode_arrays_hold_one_bath_copy_per_coupling_in_order(bath):
    other = discretize_bath(KERNEL, GRID, 1e-1)
    couplings = tuple((label, site_projector(3, i)) for i, label in enumerate("bob"))
    system = SystemSpec(h_s=np.eye(3), couplings=couplings)
    model = build_model(system, [("b", bath), ("o", other)])
    m, k = bath.mode_count, other.mode_count
    expected = np.concatenate((bath.omegas, other.omegas, bath.omegas))
    np.testing.assert_array_equal(model.mode_omegas, expected)
    np.testing.assert_array_equal(model.mode_g, np.concatenate((bath.g, other.g, bath.g)))
    np.testing.assert_array_equal(model.mode_coupling, [0] * m + [1] * k + [2] * m)
    assert model.total_mode_count == 2 * m + k
    empty = build_model(SystemSpec(h_s=np.eye(2), couplings=()), [("b", bath)])
    assert empty.total_mode_count == 0 and empty.mode_coupling.size == 0


def test_seven_site_shared_bath_mode_count(bath):
    # placeholder seven-site system: values are arbitrary smoke-test numbers
    rng = np.random.default_rng(0)
    h = rng.uniform(-50, 50, size=(7, 7))
    h_s = (h + h.T) / 2
    couplings = tuple(("mol", site_projector(7, i)) for i in range(7))
    system = SystemSpec(h_s=h_s, couplings=couplings)
    model = build_model(system, [("mol", bath)])
    assert model.total_mode_count == 7 * bath.mode_count


def test_non_hermitian_h_s_rejected():
    with pytest.raises(ValidationError, match="h_s"):
        SystemSpec(h_s=[[0.0, 1.0], [0.5, 0.0]], couplings=())


def test_non_hermitian_coupling_rejected():
    with pytest.raises(ValidationError, match="v_sb"):
        SystemSpec(
            h_s=[[0.0, 0.0], [0.0, 0.0]],
            couplings=(("b", [[0.0, 1.0], [0.0, 0.0]]),),
        )


def test_unresolved_label_rejected(bath):
    system = SystemSpec(h_s=[[0.0]], couplings=(("missing", [[1.0]]),))
    with pytest.raises(ValidationError, match="missing"):
        build_model(system, [("b", bath)])


def test_duplicate_bath_labels_rejected(bath):
    system = SystemSpec(h_s=[[0.0]], couplings=(("b", [[1.0]]),))
    with pytest.raises(ValidationError, match="duplicate"):
        build_model(system, [("b", bath), ("b", bath)])


@pytest.mark.parametrize("label", ["", 7, None, 3.5], ids=["empty", "int", "none", "float"])
def test_build_model_rejects_a_bath_label_that_is_not_a_nonempty_string(bath, label):
    system = SystemSpec(h_s=[[0.0]], couplings=(("b", [[1.0]]),))
    with pytest.raises(ValidationError, match="bath 1: label must be a nonempty string"):
        build_model(system, [("b", bath), (label, bath)])


@pytest.mark.parametrize("label", [["x"], 3.5], ids=["array", "float"])
def test_import_rejects_a_bath_label_that_is_not_a_nonempty_string(bath, label):
    # an array label is unhashable: it must not reach the duplicate check
    system = SystemSpec(h_s=[[0.0]], couplings=(("b", [[1.0]]),))
    doc = model_to_dict(build_model(system, [("b", bath)]))
    doc["baths"].append(dict(doc["baths"][0], label=label))
    with pytest.raises(SchemaError, match="bath 1: label must be a nonempty string") as err:
        import_model_via_dict(doc)
    assert err.value.pointer == "/"


def test_roundtrip_exact(bath):
    h_s = [[100.0, 20.0 + 3.0j], [20.0 - 3.0j, 0.0]]
    system = SystemSpec(
        h_s=h_s,
        couplings=(("site1", site_projector(2, 0)), ("site2", site_projector(2, 1))),
    )
    model = build_model(system, [("site1", bath), ("site2", bath)])
    buf = io.StringIO()
    export_model(model, buf)
    clone = import_model(io.StringIO(buf.getvalue()))
    np.testing.assert_array_equal(clone.system.h_s, model.system.h_s)
    assert len(clone.system.couplings) == 2
    for (la, va), (lb, vb) in zip(clone.system.couplings, model.system.couplings):
        assert la == lb
        np.testing.assert_array_equal(va, vb)
    for (la, ba), (lb, bb) in zip(clone.baths, model.baths):
        assert la == lb
        np.testing.assert_array_equal(ba.omegas, bb.omegas)
        np.testing.assert_array_equal(ba.z, bb.z)
        np.testing.assert_array_equal(ba.g, bb.g)
        assert ba.diagnostics == bb.diagnostics
    assert clone.total_mode_count == model.total_mode_count


def test_missing_modes_pointer(bath):
    system = SystemSpec(h_s=[[0.0]], couplings=(("b", [[1.0]]),))
    model = build_model(system, [("b", bath)])
    doc = model_to_dict(model)
    del doc["baths"][0]["modes"]
    with pytest.raises(SchemaError) as err:
        import_model_via_dict(doc)
    assert err.value.pointer == "/baths/0/modes"


def test_bad_temperature_pointer(bath):
    system = SystemSpec(h_s=[[0.0]], couplings=(("b", [[1.0]]),))
    doc = model_to_dict(build_model(system, [("b", bath)]))
    doc["baths"][0]["temperature_K"] = "hot"
    with pytest.raises(SchemaError) as err:
        import_model_via_dict(doc)
    assert err.value.pointer == "/baths/0/temperature_K"


def import_model_via_dict(doc):
    import json

    return import_model(io.StringIO(json.dumps(doc)))


def test_label_integrity_under_bath_reordering(bath):
    other = discretize_bath(KERNEL, GRID, 5e-2)
    system = SystemSpec(
        h_s=np.zeros((2, 2)),
        couplings=(("fine", site_projector(2, 0)), ("coarse", site_projector(2, 1))),
    )
    m1 = build_model(system, [("fine", bath), ("coarse", other)])
    m2 = build_model(system, [("coarse", other), ("fine", bath)])
    np.testing.assert_array_equal(m1.bath_for("fine").omegas, m2.bath_for("fine").omegas)
    assert m1.total_mode_count == m2.total_mode_count
    buf = io.StringIO()
    export_model(m2, buf)
    clone = import_model(io.StringIO(buf.getvalue()))
    np.testing.assert_array_equal(clone.bath_for("fine").omegas, bath.omegas)
    np.testing.assert_array_equal(clone.bath_for("coarse").omegas, other.omegas)


def test_system_from_dict_plain_and_complex_entries():
    doc = {
        "dim": 2,
        "h_s": [[0.0, [0.0, 2.0]], [[0.0, -2.0], 5.0]],
        "couplings": [{"bath": "b", "v_sb": [[1.0, 0.0], [0.0, -1.0]]}],
    }
    system = system_from_dict(doc, pointer="")
    assert system.h_s[0, 1] == 2.0j
    assert system.couplings[0][0] == "b"


def test_system_from_dict_bad_entry_pointer():
    doc = {
        "dim": 1,
        "h_s": [["oops"]],
        "couplings": [],
    }
    with pytest.raises(SchemaError) as err:
        system_from_dict(doc, pointer="")
    assert err.value.pointer == "/h_s/0/0"


def test_import_rejects_wrong_schema(bath):
    system = SystemSpec(h_s=[[0.0]], couplings=(("b", [[1.0]]),))
    model = build_model(system, [("b", bath)])
    doc = model_to_dict(model)
    doc["schema"] = "bathkit-model/999"
    with pytest.raises(SchemaError) as err:
        import_model_via_dict(doc)
    assert err.value.pointer == "/schema"


@pytest.mark.parametrize(
    "h_s, couplings, match",
    [
        ([[0.0, 1.0]], (), "h_s must be square"),
        ([[np.nan]], (), "h_s contains non-finite"),
        ([[0.0]], (("", [[1.0]]),), "nonempty string"),
        ([[0.0, 0.0], [0.0, 0.0]], (("b", [[1.0]]),), "does not match"),
        (np.zeros((0, 0)), (), "dimension must be >= 1"),
    ],
    ids=["non-square", "non-finite", "empty-label", "v_sb-shape", "zero-dimension"],
)
def test_system_spec_rejects_bad_matrices_and_labels(h_s, couplings, match):
    with pytest.raises(ValidationError, match=match):
        SystemSpec(h_s=h_s, couplings=couplings)


@pytest.mark.parametrize(
    "h_s, match",
    [
        ([[0.0, 0.0], [0.0]], "ragged"),
        ([], "nonempty"),
        ([[0.0]], "expected 2 x 2"),
    ],
    ids=["ragged-rows", "empty-rows", "shape-differs-from-dim"],
)
def test_system_from_dict_rejects_bad_h_s(h_s, match):
    doc = {"dim": 2, "h_s": h_s, "couplings": []}
    with pytest.raises(SchemaError, match=match) as err:
        system_from_dict(doc, pointer="")
    assert err.value.pointer == "/h_s"


def test_bath_for_unknown_label_raises(bath):
    model = build_model(SystemSpec(h_s=[[0.0]], couplings=(("b", [[1.0]]),)), [("b", bath)])
    with pytest.raises(ValidationError, match="unknown bath label 'c'"):
        model.bath_for("c")


def test_build_model_rejects_a_coupling_to_an_unknown_bath_label(bath):
    system = SystemSpec(h_s=[[0.0]], couplings=(("c", [[1.0]]),))
    with pytest.raises(ValidationError, match="coupling 0 references unknown bath label 'c'"):
        build_model(system, [("b", bath)])


def test_import_rejects_duplicate_bath_labels(bath):
    system = SystemSpec(h_s=[[0.0]], couplings=(("b", [[1.0]]),))
    doc = model_to_dict(build_model(system, [("b", bath)]))
    doc["baths"].append(doc["baths"][0])
    with pytest.raises(SchemaError, match="duplicate") as err:
        import_model_via_dict(doc)
    assert err.value.pointer == "/"
