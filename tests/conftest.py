"""Fixtures and oracles shared across the test modules."""

import io
import json

import numpy as np
import pytest

from bathkit.cli import main
from bathkit.discretize import FdrGrid, discretize_bath, save_bath_model
from bathkit.specdens import Debye, NoiseKernel, Temperature


@pytest.fixture(scope="session")
def bath_doc():
    """A small valid bath model as a parsed JSON document."""
    kernel = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
    grid = FdrGrid(t_max_fs=100.0, omega_max_cm1=1000.0, n_time=20, n_freq=200)
    buf = io.StringIO()
    save_bath_model(discretize_bath(kernel, grid, 1e-2), buf)
    return json.loads(buf.getvalue())


@pytest.fixture(scope="session")
def exit_code():
    """Runs the CLI; returns main's value or the code argparse exits with."""

    def run(argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    return run


def materialize(action):
    """Dense Hamiltonian from the matrix-free action (tiny spaces only).

    The one dense-H oracle: column j is the action on the j-th unit state.
    """
    dim = int(np.prod(action.shape))
    h = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[j] = 1.0
        h[:, j] = action(e.reshape(action.shape)).reshape(-1)
    return h
