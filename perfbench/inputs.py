"""Seeded inputs for the four benchmark workloads.

``make_spec`` turns (workload, seed) into a dict of plain numbers using only
the standard library, so the same seed gives the same inputs on every
machine and Python version.  Seed 0 is the baseline recorded in ROADMAP.md;
any other seed draws each free parameter uniformly from its range in
``RANGES``.  The ranges are narrow on purpose: they change the inputs (and
so the selected modes and the artifact hashes) while keeping the work per
job within a few per cent, so the run-to-run spread stays well inside the
bounds in BENCHMARK.json.

``build_inputs`` turns a spec into bathkit objects; it is part of set-up.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("compress-3T", "sweep-dephasing", "exact-dephasing", "spin-boson-validate")

SURROGATE_OMEGA_MAX = 600.0  # cm^-1, band edge of the shipped surrogate density
SIGMA_Z = [[1.0, 0.0], [0.0, -1.0]]

# The four strongest modes with |omega| >= 80 cm^-1 of the 300 K surrogate
# discretization on the default grid at tol 1e-2, in order of descending
# coupling: the sub-model that acceptance criterion 8 propagates exactly.
# selftest.py recomputes them from the pipeline.
CRITERION8_OMEGA = (88.38, 117.3, 101.1, -86.34)
CRITERION8_Z = (15.338246847447833, 18.117025715660738, 12.584300394343499, 13.492573939853262)
N_MODES = len(CRITERION8_OMEGA)

# (low, high) of each seeded parameter.  Names ending in "_scales" are drawn
# once per mode of the exact-dephasing sub-model.
RANGES = {
    "compress-3T": {
        "low_temperature_K": (1.0, 10.0),
        "mid_temperature_K": (70.0, 85.0),
        "high_temperature_K": (285.0, 315.0),
    },
    "sweep-dephasing": {"temperature_K": (285.0, 315.0)},
    "exact-dephasing": {
        "splitting_cm1": (40.0, 60.0),
        "omega_scales": (0.95, 1.05),
        "z_scales": (0.9, 1.1),
    },
    "spin-boson-validate": {"tunneling_cm1": (30.0, 50.0)},
}

# Seed 0: the ROADMAP baseline inputs.  A temperature of 0.0 means exactly
# zero temperature.  The spin-boson values have no ROADMAP figure; they are
# this benchmark's own baseline.
BASELINE = {
    "compress-3T": {
        "low_temperature_K": 0.0,
        "mid_temperature_K": 77.0,
        "high_temperature_K": 300.0,
    },
    "sweep-dephasing": {"temperature_K": 300.0},
    "exact-dephasing": {
        "splitting_cm1": 50.0,
        "omega_scales": [1.0] * N_MODES,
        "z_scales": [1.0] * N_MODES,
    },
    "spin-boson-validate": {"tunneling_cm1": 40.0},
}

# Everything the seed does not change.
FIXED = {
    "compress-3T": {
        "tol": 1e-2,
        "t_max_fs": 1000.0,
        "n_time": 1000,
        "n_freq": 10000,
        "omega_max_cm1": SURROGATE_OMEGA_MAX,
    },
    "sweep-dephasing": {
        "system_config": "configs/dephasing_qubit.json",
        "tols": [1e-1, 1e-2, 1e-3],
        "t_max_fs": 1000.0,
        "n_time": 1000,
        "n_freq": 10000,
        "omega_max_cm1": SURROGATE_OMEGA_MAX,
    },
    "exact-dephasing": {
        "temperature_K": 300.0,
        "caps": 13,
        "krylov_dim": 14,
        "tol": 1e-12,
        "dt_fs": 2.0,
        "t_max_fs": 100.0,
    },
    "spin-boson-validate": {
        "temperature_K": 300.0,
        "bias_cm1": 50.0,
        "tols": [0.3, 0.2, 0.1],
        "t_max_fs": 100.0,
        "n_time": 101,
        "n_freq": 2000,
        "omega_max_cm1": SURROGATE_OMEGA_MAX,
    },
}


def make_spec(workload: str, seed: int) -> dict:
    """The inputs of one run as JSON-ready numbers."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    spec = {"workload": workload, "seed": seed}
    spec.update(FIXED[workload])
    if seed == 0:
        spec.update(BASELINE[workload])
    else:
        rng = random.Random(f"{workload}:{seed}")
        for name, (lo, hi) in RANGES[workload].items():
            if name.endswith("_scales"):
                spec[name] = [rng.uniform(lo, hi) for _ in range(N_MODES)]
            else:
                spec[name] = rng.uniform(lo, hi)
    return spec


def build_inputs(spec: dict, root: Path) -> dict:
    """bathkit objects for one spec; ``root`` is the checkout holding configs/."""
    import numpy as np

    from bathkit.discretize import BathDiagnostics, BathModel, FdrGrid
    from bathkit.dynamics import FockTruncation
    from bathkit.hamiltonian import SystemSpec, build_model, system_from_dict
    from bathkit.specdens import NoiseKernel, Temperature
    from bathkit.surrogate import surrogate_sd

    def temperature(kelvin):
        return Temperature.zero() if kelvin == 0.0 else Temperature.finite(kelvin)

    def grid():
        return FdrGrid(
            t_max_fs=spec["t_max_fs"],
            omega_max_cm1=spec["omega_max_cm1"],
            n_time=spec["n_time"],
            n_freq=spec["n_freq"],
        )

    sd = surrogate_sd()
    workload = spec["workload"]
    if workload == "compress-3T":
        temps = [spec[f"{k}_temperature_K"] for k in ("low", "mid", "high")]
        return {
            "grid": grid(),
            "tol": spec["tol"],
            "kernels": [(f"T={t!r}K", NoiseKernel(sd, temperature(t))) for t in temps],
        }
    if workload == "sweep-dephasing":
        with open(root / spec["system_config"], encoding="utf-8") as fh:
            system = system_from_dict(json.load(fh), pointer="")
        return {
            "grid": grid(),
            "tols": spec["tols"],
            "kernel": NoiseKernel(sd, temperature(spec["temperature_K"])),
            "system": system,
        }
    if workload == "spin-boson-validate":
        eps, delta = spec["bias_cm1"], spec["tunneling_cm1"]
        system = SystemSpec(h_s=[[eps, delta], [delta, -eps]], couplings=(("b", SIGMA_Z),))
        return {
            "grid": grid(),
            "tols": spec["tols"],
            "kernel": NoiseKernel(sd, temperature(spec["temperature_K"])),
            "system": system,
        }
    # exact-dephasing: a hand-built 4-mode bath, g = sqrt(z * S(omega))
    kernel = NoiseKernel(sd, temperature(spec["temperature_K"]))
    omegas = np.array([w * f for w, f in zip(CRITERION8_OMEGA, spec["omega_scales"])])
    z = np.array([v * f for v, f in zip(CRITERION8_Z, spec["z_scales"])])
    g = np.sqrt(z * kernel.evaluate(omegas))
    diagnostics = BathDiagnostics(N_MODES, N_MODES, 0.0, 0.0, 0.0, 0, 0.0, True, 0.0, 0.0, 0.0)
    bath = BathModel(
        omegas=omegas,
        z=z,
        g=g,
        temperature=kernel.temperature,
        sd=sd,
        t_max_fs=1000.0,
        omega_max_cm1=SURROGATE_OMEGA_MAX,
        tol=1e-2,
        diagnostics=diagnostics,
    )
    eps = spec["splitting_cm1"]
    system = SystemSpec(h_s=np.diag([eps, -eps]), couplings=(("b", SIGMA_Z),))
    return {
        "model": build_model(system, [("b", bath)]),
        "trunc": FockTruncation(caps=(spec["caps"],) * N_MODES),
        "psi0": np.array([1.0, 1.0]) / math.sqrt(2.0),
        "t_max_fs": spec["t_max_fs"],
        "dt_fs": spec["dt_fs"],
        "krylov_dim": spec["krylov_dim"],
        "tol": spec["tol"],
    }
