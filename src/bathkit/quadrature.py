"""Midpoint-rule Fourier sums over a symmetric frequency band.

The workhorse is the band-limited transform

    F(t_i) = h * sum_j  x_j * exp(-i * omega_j_rad * t_i),

with omega_j the midpoints of a uniform subdivision of [-omega_max,
omega_max] and h the subdivision width.  On uniformly spaced times this is
a chirp-z transform and is evaluated through the FFT; otherwise it falls
back to a chunked direct sum.  Both paths compute the identical sum (up to
roundoff) and are deterministic.  ``refine_midpoint`` doubles the
number of midpoints of such a quadrature until it settles.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import czt

from .errors import ConvergenceError, ValidationError
from .units import RAD_PER_FS_PER_CM1

__all__ = ["midpoint_frequencies", "fourier_midpoint_sum", "refine_midpoint"]

DEFAULT_QUAD_POINTS = 16384
MAX_QUAD_POINTS = 1 << 20
QUAD_REL_TOL = 1e-6

# chunk size (elements) for the direct-evaluation fallback
_DIRECT_CHUNK = 1 << 22


def midpoint_frequencies(omega_max_cm1: float, n: int) -> np.ndarray:
    """Midpoints omega_j = -omega_max + (j + 1/2) * 2*omega_max/n.

    ``n`` must be even so the grid is symmetric about zero and never
    contains omega = 0; the array is built as an exact mirror of its
    positive half.
    """
    if n < 2 or n % 2 != 0:
        raise ValidationError(f"frequency count must be even and >= 2, got {n}")
    if not (omega_max_cm1 > 0 and np.isfinite(omega_max_cm1)):
        raise ValidationError(f"omega_max must be positive, got {omega_max_cm1}")
    half = (np.arange(n // 2) + 0.5) * (2.0 * omega_max_cm1 / n)
    return np.concatenate((-half[::-1], half))


def _is_uniform(times: np.ndarray) -> bool:
    if times.size < 3:
        return times.size == 2
    dt = (times[-1] - times[0]) / (times.size - 1)
    ideal = times[0] + dt * np.arange(times.size)
    scale = max(abs(times[0]), abs(times[-1]), 1e-30)
    return bool(np.max(np.abs(times - ideal)) <= 1e-9 * scale)


def fourier_midpoint_sum(weights, omega_max_cm1: float, times_fs) -> np.ndarray:
    """h * sum_j weights_j * exp(-i*omega_j*t) on midpoint frequencies.

    ``weights`` has one entry per midpoint of [-omega_max, omega_max];
    phases use omega in rad/fs.  Returns a complex array over ``times_fs``.
    """
    x = np.asarray(weights, dtype=complex)
    times = np.asarray(times_fs, dtype=float)
    n = x.size
    h = 2.0 * omega_max_cm1 / n
    freqs = midpoint_frequencies(omega_max_cm1, n)
    if times.size == 0:
        return np.zeros(0, dtype=complex)
    if times.size >= 2 and _is_uniform(times):
        return _czt_sum(x, freqs, h, times)
    return _direct_sum(x, freqs, h, times)


def _czt_sum(x, freqs, h, times):
    dt = (times[-1] - times[0]) / (times.size - 1)
    t0 = times[0]
    dw_rad = (freqs[1] - freqs[0]) * RAD_PER_FS_PER_CM1
    j = np.arange(x.size)
    # fold the t0 phase into the weights, leaving a pure geometric kernel
    xx = x * np.exp(-1j * j * dw_rad * t0)
    out = czt(xx, m=times.size, w=np.exp(-1j * dw_rad * dt), a=1.0 + 0.0j)
    out *= h * np.exp(-1j * freqs[0] * RAD_PER_FS_PER_CM1 * times)
    return out


def _direct_sum(x, freqs, h, times):
    out = np.zeros(times.size, dtype=complex)
    cols = max(1, _DIRECT_CHUNK // max(times.size, 1))
    w_rad = freqs * RAD_PER_FS_PER_CM1
    for start in range(0, x.size, cols):
        sl = slice(start, min(start + cols, x.size))
        out += np.exp(-1j * np.outer(times, w_rad[sl])) @ x[sl]
    return h * out


def refine_midpoint(
    level,
    what: str,
    quad_n: int = DEFAULT_QUAD_POINTS,
    rel_tol: float = QUAD_REL_TOL,
    max_points: int = MAX_QUAD_POINTS,
) -> np.ndarray:
    """Refine a midpoint quadrature by doubling its point count.

    ``level(n)`` evaluates the quadrature on n midpoints.  Starting from
    ``quad_n`` points, the count doubles until one doubling changes the
    values by less than ``rel_tol`` of their peak; the finer level is
    returned.  Reaching ``max_points`` first raises a ConvergenceError that
    names the quantity as ``what``.
    """
    if quad_n < 10_000:
        raise ValidationError(f"quad_n must be >= 10^4, got {quad_n}")
    if quad_n % 2 != 0:
        raise ValidationError(f"quad_n must be even, got {quad_n}")
    n = quad_n
    current = level(n)
    achieved = np.inf
    while 2 * n <= max_points:
        finer = level(2 * n)
        scale = float(np.max(np.abs(finer)))
        achieved = float(np.max(np.abs(finer - current))) / max(scale, 1e-300)
        current = finer
        n *= 2
        if achieved < rel_tol:
            return current
    raise ConvergenceError(
        f"{what} quadrature did not reach {rel_tol:.1e} within "
        f"{max_points} points (best relative change {achieved:.3e})"
    )
