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

from bathkit.quadrature import ChirpSum, _fast_len

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


@pytest.mark.parametrize("n, m", [(1, 2), (7, 3), (500, 1000), (1000, 7), (4096, 300)])
def test_chirp_sum_is_bit_equal_to_scipy_czt(n, m):
    czt = pytest.importorskip("scipy.signal").CZT
    rng = np.random.default_rng(n + m)
    u0, du = -3.7, 7.5e-4
    v = 0.25 + 0.5 * np.arange(m)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    got = ChirpSum(n, u0, du, v, scale=0.3)(x)
    # the same sum written with scipy's chirp-z transform
    pre = np.exp(-1j * np.arange(n) * du * v[0])
    want = czt(n, m=m, w=np.exp(-1j * du * 0.5), a=1.0 + 0.0j)(x * pre)
    want *= 0.3 * np.exp(-1j * u0 * v)
    assert got.tobytes() == want.tobytes()
    direct = 0.3 * np.exp(-1j * np.outer(v, u0 + du * np.arange(n))) @ x
    np.testing.assert_allclose(got, direct, rtol=0, atol=1e-9 * np.abs(x).sum())
