"""The chirp-z sum and the numpy-only runtime.

``ChirpSum`` runs Bluestein's algorithm on ``numpy.fft``; scipy serves only
as a test oracle here, and importing bathkit must not load it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bathkit.quadrature as quadrature
from bathkit.cli import main
from bathkit.discretize import FdrGrid, discretize_bath, reference_bcf, save_bath_model
from bathkit.dynamics import dephasing_gamma_continuum
from bathkit.quadrature import (
    DEFAULT_QUAD_POINTS,
    ChirpSum,
    _fast_len,
    _is_uniform,
    direct_sum,
    fourier_midpoint_sum,
    midpoint_frequencies,
)
from bathkit.specdens import Debye, NoiseKernel, Temperature

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_bathkit_loads_no_scipy():
    # a fresh interpreter: this test session imports scipy for its oracles
    code = (
        "import sys, bathkit, bathkit.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fast_len_matches_scipy_next_fast_len():
    next_fast_len = pytest.importorskip("scipy.fft").next_fast_len
    targets = list(range(1, 5001))
    targets += np.random.default_rng(6).integers(5001, 2_200_000, 200).tolist()
    assert [_fast_len(t) for t in targets] == [next_fast_len(t) for t in targets]


# every case is one convolution of length _fast_len(n + m - 1); (500, 1000)
# reaches phases of ~2000 rad, and from (1, 1000) on m >> n, with v spanning
# ~10: at dv = 0.5 those shapes reach v of 2000-5000, where the direct sum
# itself rounds its phases by ~3e-13 and stops being an oracle to 1e-14
CHIRP_CASES = [
    (1, 2, 0.5), (7, 3, 0.5), (500, 1000, 0.5), (1000, 7, 0.5), (4096, 300, 0.5),
    (1, 1000, 0.01), (2, 4097, 0.0025), (101, 2000, 0.005), (1000, 10000, 0.001),
]


@pytest.mark.parametrize("n, m, dv", CHIRP_CASES, ids=[f"{n}-{m}" for n, m, _ in CHIRP_CASES])
def test_chirp_sum_matches_the_direct_sum_and_scipy_czt(n, m, dv):
    # scipy's CZT builds its chirp as a power w**(k**2/2), whose modulus drifts
    # from 1, so ChirpSum agrees with it to a tolerance, not bit for bit
    czt = pytest.importorskip("scipy.signal").CZT
    rng = np.random.default_rng(n + m)
    u0, du = -3.7, 7.5e-4
    v = 0.25 + dv * np.arange(m)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    got = ChirpSum(n, u0, du, v, scale=0.3)(x)
    direct = 0.3 * np.exp(-1j * np.outer(v, u0 + du * np.arange(n))) @ x
    np.testing.assert_allclose(got, direct, rtol=0, atol=1e-14 * np.abs(x).sum())
    # the same sum written with scipy's chirp-z transform
    pre = np.exp(-1j * np.arange(n) * du * v[0])
    want = czt(n, m=m, w=np.exp(-1j * du * (v[1] - v[0])), a=1.0 + 0.0j)(x * pre)
    want *= 0.3 * np.exp(-1j * u0 * v)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(x).sum())


def test_only_uniform_times_take_the_chirp_sum():
    rng = np.random.default_rng(9)
    for _ in range(200):
        start = rng.uniform(-1e3, 1e3) * rng.choice([0.0, 1e-3, 1.0])
        stop = start + 10 ** rng.uniform(-3, 6)
        assert _is_uniform(np.linspace(start, stop, int(rng.integers(3, 5000))))
    # two times are always uniform, from 0 or not
    assert _is_uniform(np.array([0.0, 0.9])) and _is_uniform(np.array([37.5, 38.4]))
    # jitter of 5e-10 of the span: the chirp-z sum would take these times as
    # uniform and miss the direct sum by ~1e-7 of its peak
    times = np.linspace(0.0, 1000.0, 1000)
    jittered = times + 5e-7 * rng.uniform(-1.0, 1.0, times.size)
    assert not _is_uniform(jittered)
    x = rng.standard_normal(4096) + 0j
    direct = direct_sum(x, midpoint_frequencies(600.0, x.size), 1200.0 / x.size, jittered)
    assert fourier_midpoint_sum(x, 600.0, jittered).tobytes() == direct.tobytes()


@pytest.fixture
def chirp_shapes(monkeypatch):
    """(input length, output count) of each ChirpSum fourier_midpoint_sum builds."""
    shapes = []

    class Recording(ChirpSum):
        def __init__(self, n_in, u0, du, v, scale=1.0):
            shapes.append((n_in, v.size))
            super().__init__(n_in, u0, du, v, scale)

    monkeypatch.setattr(quadrature, "ChirpSum", Recording)
    return shapes


# (2, m): one positive midpoint; (n, 2): two times, three after the fold
FOLD_CASES = [(2, 2), (2, 9), (8, 2), (4096, 2), (16384, 1000)]


@pytest.mark.parametrize("n, m", FOLD_CASES, ids=[f"{n}-{m}" for n, m in FOLD_CASES])
def test_real_weights_fold_onto_the_positive_half_band(n, m, chirp_shapes):
    # real weights on times k * dt take one transform over the n/2 positive
    # midpoints at the 2m - 1 times -t_{m-1} ... t_{m-1}; complex weights and
    # times that do not start at 0 take the direct sum
    rng = np.random.default_rng(n + m)
    w = rng.standard_normal(n)
    times = np.linspace(0.0, 0.9 * (m - 1), m)
    freqs, h = midpoint_frequencies(600.0, n), 1200.0 / n
    for t in (times, times + 37.5):
        direct = direct_sum(w + 0j, freqs, h, t)
        atol = 1e-13 * np.abs(w).sum() * h
        for x in (w, w + 0j):
            got = fourier_midpoint_sum(x, 600.0, t)
            np.testing.assert_allclose(got, direct, rtol=0, atol=atol)
            if x is not w or t is not times:
                assert got.tobytes() == direct_sum(x, freqs, h, t).tobytes()
    assert chirp_shapes == [(n // 2, 2 * m - 1)]


def test_every_caller_takes_the_fold(tmp_path, monkeypatch, chirp_shapes):
    # the fit, the reference quadratures and the CLI's reconstruct all pass
    # real weights on uniform times from 0: none of them reaches the direct
    # sum, and every transform is a fold over n/2 midpoints at 2m - 1 times
    # (FdrOperator and reconstruct_bcf look their names up in discretize)
    def no_direct_sum(*args):
        raise AssertionError("the direct sum was reached")

    monkeypatch.setattr(quadrature, "direct_sum", no_direct_sum)
    kernel = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
    grid = FdrGrid(t_max_fs=100.0, omega_max_cm1=1000.0, n_time=20, n_freq=200)

    def assert_folds(m):
        # refine_midpoint's levels n = DEFAULT_QUAD_POINTS * 2**k, in order
        levels = [(DEFAULT_QUAD_POINTS << k >> 1, 2 * m - 1) for k in range(len(chirp_shapes))]
        assert chirp_shapes and chirp_shapes == levels
        chirp_shapes.clear()

    model = discretize_bath(kernel, grid, 1e-2)
    assert_folds(grid.n_time)
    reference_bcf(kernel, grid.times, grid.omega_max_cm1)
    assert_folds(grid.n_time)
    dephasing_gamma_continuum(kernel, grid.times, grid.omega_max_cm1)
    assert_folds(grid.n_time)
    bath = tmp_path / "bath.json"
    save_bath_model(model, bath)
    argv = ["reconstruct", "--model", str(bath), "--n-time", "7", "--out", str(tmp_path / "c.csv")]
    assert main(argv) == 0
    assert_folds(7)
