"""Discrete system-bath Hamiltonian assembly and JSON serialization.

A model is H = H_S + sum_k omega_k a_k^dag a_k
            + sum_c V_c * sum_k g_k (a_k^dag + a_k),

where the outer sum runs over the system couplings and each coupling
instantiates its own independent copy of the bath modes it references by
label.  Frequencies may be negative (finite-temperature models put thermal
occupation into the couplings and signed frequencies), and Hermiticity is
inherited from g_k >= 0 together with Hermitian H_S and V matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._schema import is_finite_number, read_json, require, require_list, write_json
from .discretize import BathModel, bath_model_from_dict, bath_model_to_dict
from .errors import SchemaError, ValidationError

__all__ = [
    "SystemSpec",
    "DiscreteModel",
    "build_model",
    "export_model",
    "import_model",
    "system_from_dict",
    "MODEL_SCHEMA",
]

MODEL_SCHEMA = "bathkit-model/1"
HERMITICITY_TOL = 1e-10


def _check_hermitian(matrix: np.ndarray, name: str):
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix.view(float))):
        raise ValidationError(f"{name} contains non-finite entries")
    # compare in units of the largest component, >= 1, so that neither the
    # difference nor a modulus can overflow
    unit = max(1.0, float(np.max(np.abs(matrix.view(float)), initial=0.0)))
    scaled = matrix / unit
    dev = np.abs(scaled - scaled.conj().T)
    bound = HERMITICITY_TOL * max(1.0 / unit, float(np.max(np.abs(scaled), initial=0.0)))
    if np.max(dev, initial=0.0) > bound:
        i, j = np.unravel_index(np.argmax(dev), dev.shape)
        raise ValidationError(
            f"{name} is not Hermitian: max deviation {float(dev[i, j]) * unit:.3e} "
            f"at entry ({i}, {j})"
        )


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """System Hamiltonian (cm^-1) and labeled bath-coupling operators."""

    h_s: np.ndarray
    couplings: tuple  # of (bath_label, v_sb matrix)

    def __post_init__(self):
        h_s = np.asarray(self.h_s, dtype=complex)
        _check_hermitian(h_s, "h_s")
        if h_s.shape[0] < 1:
            raise ValidationError("system dimension must be >= 1")
        parsed = []
        for idx, (label, v) in enumerate(self.couplings):
            if not isinstance(label, str) or not label:
                raise ValidationError(f"coupling {idx}: bath label must be a nonempty string")
            v = np.asarray(v, dtype=complex)
            _check_hermitian(v, f"couplings[{idx}].v_sb")
            if v.shape != h_s.shape:
                raise ValidationError(
                    f"couplings[{idx}].v_sb shape {v.shape} does not match "
                    f"system dimension {h_s.shape[0]}"
                )
            parsed.append((label, v))
        object.__setattr__(self, "h_s", h_s)
        object.__setattr__(self, "couplings", tuple(parsed))

    @property
    def dim(self) -> int:
        return self.h_s.shape[0]


@dataclass(frozen=True, eq=False)
class DiscreteModel:
    """A system plus one bath mode set per coupling, resolved by label."""

    system: SystemSpec
    baths: tuple  # of (label, BathModel)
    # the assembled Hamiltonian's modes, one bath copy per coupling in coupling
    # order: each mode's frequency, coupling constant and coupling index
    mode_omegas: np.ndarray = field(init=False, repr=False)
    mode_g: np.ndarray = field(init=False, repr=False)
    mode_coupling: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        labels = [label for label, _ in self.baths]
        if len(set(labels)) != len(labels):
            dupes = sorted({x for x in labels if labels.count(x) > 1})
            raise ValidationError(f"duplicate bath labels: {dupes}")
        table = dict(self.baths)
        for idx, (label, _) in enumerate(self.system.couplings):
            if label not in table:
                raise ValidationError(
                    f"coupling {idx} references unknown bath label '{label}'"
                )
        object.__setattr__(self, "baths", tuple(self.baths))
        copies = [table[label] for label, _ in self.system.couplings]
        counts = [bath.mode_count for bath in copies]
        object.__setattr__(self, "mode_omegas", np.concatenate([[]] + [b.omegas for b in copies]))
        object.__setattr__(self, "mode_g", np.concatenate([[]] + [b.g for b in copies]))
        object.__setattr__(self, "mode_coupling", np.repeat(np.arange(len(copies)), counts))

    def bath_for(self, label: str) -> BathModel:
        for name, bath in self.baths:
            if name == label:
                return bath
        raise ValidationError(f"unknown bath label '{label}'")

    @property
    def total_mode_count(self) -> int:
        """Modes in the assembled Hamiltonian: one bath copy per coupling."""
        return len(self.mode_omegas)


def build_model(system: SystemSpec, baths) -> DiscreteModel:
    """Validate and assemble a DiscreteModel from a system and labeled baths."""
    return DiscreteModel(system=system, baths=tuple(baths))


def _matrix_to_json(matrix: np.ndarray):
    return [[[float(x.real), float(x.imag)] for x in row] for row in matrix]


def _entry_from_json(value, pointer: str) -> complex:
    if is_finite_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(is_finite_number, value)):
        return complex(value[0], value[1])
    raise SchemaError(
        pointer, f"matrix entry must be a finite number or [re, im], got {value!r}"
    )


def _matrix_from_json(rows, pointer: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise SchemaError(pointer, "expected a nonempty array of rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise SchemaError(f"{pointer}/{i}", "expected an array")
        out.append([_entry_from_json(v, f"{pointer}/{i}/{j}") for j, v in enumerate(row)])
    widths = {len(r) for r in out}
    if len(widths) != 1:
        raise SchemaError(pointer, "ragged matrix rows")
    return np.array(out, dtype=complex)


def model_to_dict(model: DiscreteModel) -> dict:
    system = {
        "dim": model.system.dim,
        "h_s": _matrix_to_json(model.system.h_s),
        "couplings": [
            {"bath": label, "v_sb": _matrix_to_json(v)}
            for label, v in model.system.couplings
        ],
    }
    baths = []
    for label, bath in model.baths:
        entry = {"label": label}
        entry.update(bath_model_to_dict(bath))
        del entry["schema"]
        baths.append(entry)
    return {"schema": MODEL_SCHEMA, "system": system, "baths": baths}


def system_from_dict(doc: dict, pointer: str = "/system") -> SystemSpec:
    """Parse a system spec JSON object into a validated SystemSpec."""
    dim = require(doc, "dim", pointer)
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise SchemaError(f"{pointer}/dim", f"expected an integer, got {dim!r}")
    h_s = _matrix_from_json(require(doc, "h_s", pointer), f"{pointer}/h_s")
    if h_s.shape != (dim, dim):
        raise SchemaError(f"{pointer}/h_s", f"expected {dim} x {dim}, got {h_s.shape}")
    couplings = []
    for i, c in enumerate(require_list(doc, "couplings", pointer)):
        cp = f"{pointer}/couplings/{i}"
        label = require(c, "bath", cp)
        v = _matrix_from_json(require(c, "v_sb", cp), f"{cp}/v_sb")
        couplings.append((label, v))
    try:
        return SystemSpec(h_s=h_s, couplings=tuple(couplings))
    except ValidationError as exc:
        raise SchemaError(pointer or "/", str(exc)) from None


def model_from_dict(doc: dict) -> DiscreteModel:
    schema = require(doc, "schema", "")
    if schema != MODEL_SCHEMA:
        raise SchemaError("/schema", f"expected '{MODEL_SCHEMA}', got {schema!r}")
    system = system_from_dict(require(doc, "system", ""), pointer="/system")
    baths = []
    for i, b in enumerate(require_list(doc, "baths", "")):
        bp = f"/baths/{i}"
        label = require(b, "label", bp)
        baths.append((label, bath_model_from_dict(b, pointer=bp)))
    try:
        return DiscreteModel(system=system, baths=tuple(baths))
    except ValidationError as exc:
        raise SchemaError("/", str(exc)) from None


def export_model(model: DiscreteModel, sink, metadata: dict | None = None):
    """Write a model as JSON to a path or text stream; lossless round-trip."""
    doc = model_to_dict(model)
    if metadata is not None:
        doc["metadata"] = metadata
    write_json(sink, doc)


def import_model(source) -> DiscreteModel:
    """Read a model from a path (``str`` or ``os.PathLike``) or a text stream.

    A string is always a file name, never JSON text.
    """
    return model_from_dict(read_json(source))
