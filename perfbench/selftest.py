"""Self-test of the seeded input generator.

    python3 perfbench/selftest.py

Checks that the same seed gives identical inputs, that other seeds give
different inputs inside the stated ranges, and that seed 0 gives the
ROADMAP baseline inputs.  The last check runs the 300 K default-grid
discretization once (a few seconds) to rebuild acceptance criterion 8's
sub-model.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import sys

from inputs import BASELINE, FIXED, RANGES, WORKLOADS, build_inputs, make_spec
from worker import ROOT, import_bathkit

SEEDS = range(1, 41)


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        sys.exit(1)


def in_range(value, lo, hi):
    values = value if isinstance(value, list) else [value]
    return all(lo <= v <= hi for v in values)


def main():
    for workload in WORKLOADS:
        check(
            all(make_spec(workload, s) == make_spec(workload, s) for s in (0, *SEEDS)),
            f"{workload}: the same seed gives identical inputs",
        )
        drawn = [
            tuple(repr(make_spec(workload, s)[name]) for name in RANGES[workload]) for s in SEEDS
        ]
        check(len(set(drawn)) == len(drawn), f"{workload}: {len(drawn)} seeds give {len(drawn)} different inputs")
        check(
            all(
                in_range(make_spec(workload, s)[name], lo, hi)
                for s in SEEDS
                for name, (lo, hi) in RANGES[workload].items()
            ),
            f"{workload}: every drawn parameter lies in its range",
        )
        spec0 = make_spec(workload, 0)
        check(
            all(spec0[k] == v for k, v in {**FIXED[workload], **BASELINE[workload]}.items()),
            f"{workload}: seed 0 gives the baseline values",
        )

    import_bathkit()
    import numpy as np

    from bathkit.discretize import FdrGrid, discretize_bath
    from bathkit.specdens import NoiseKernel, Temperature
    from bathkit.surrogate import SURROGATE_OMEGA_MAX, surrogate_sd

    compress = build_inputs(make_spec("compress-3T", 0), ROOT)
    temps = [k.temperature for _, k in compress["kernels"]]
    check(
        temps[0].is_zero
        and [t.kelvin for t in temps[1:]] == [77.0, 300.0]
        and (compress["grid"].n_time, compress["grid"].n_freq, compress["tol"]) == (1000, 10000, 1e-2),
        "compress-3T seed 0: surrogate at 0, 77 and 300 K on the 1000 x 10000 grid at tol 1e-2",
    )

    # criterion 8's sub-model, rebuilt exactly as tests/test_acceptance.py does
    kernel = NoiseKernel(surrogate_sd(), Temperature.finite(300.0))
    model = discretize_bath(kernel, FdrGrid(t_max_fs=1000.0, omega_max_cm1=SURROGATE_OMEGA_MAX), 1e-2)
    strong = np.argsort(model.g)[::-1]
    picks = [i for i in strong if abs(model.omegas[i]) >= 80.0][:4]
    exact = build_inputs(make_spec("exact-dephasing", 0), ROOT)
    bath = exact["model"].bath_for("b")
    check(
        all(np.array_equal(getattr(bath, f), getattr(model, f)[picks]) for f in ("omegas", "z", "g")),
        "exact-dephasing seed 0: the modes equal criterion 8's sub-model bit for bit",
    )
    n_steps = round(exact["t_max_fs"] / exact["dt_fs"])
    check(
        exact["trunc"].dimension(2) == 76_832
        and n_steps == 50
        and exact["krylov_dim"] == 14
        and np.array_equal(exact["model"].system.h_s, np.diag([50.0, -50.0])),
        "exact-dephasing seed 0: D = 76,832, 50 steps of 2 fs, Krylov dimension 14, H_S = diag(50, -50)",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
