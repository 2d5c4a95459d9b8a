"""Midpoint-rule Fourier sums over a symmetric frequency band.

The workhorse is the band-limited transform

    F(t_i) = h * sum_j  x_j * exp(-i * omega_j_rad * t_i),

with omega_j the midpoints of a uniform subdivision of [-omega_max,
omega_max] and h the subdivision width.  Real weights on uniform times
from 0, in either direction, are folded onto the positive half of the
band and summed by one chirp-z transform by Bluestein's algorithm on
``numpy.fft``, each chirp exp of a real phase so that its modulus stays 1
at any length; every other input takes the chunked direct sum.  Both are
deterministic and agree to roundoff.
``refine_midpoint`` doubles the midpoints of a quadrature until it settles.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, ValidationError
from .units import RAD_PER_FS_PER_CM1

__all__ = ["midpoint_frequencies", "fourier_midpoint_sum", "ChirpSum", "refine_midpoint"]

# refine_midpoint: first point count, point-count cap and stopping change
DEFAULT_QUAD_POINTS = 16384
MAX_QUAD_POINTS = 1 << 20
QUAD_REL_TOL = 1e-6

# chunk size (elements) for the direct-evaluation fallback
DIRECT_CHUNK = 1 << 22


def midpoint_frequencies(omega_max_cm1: float, n: int) -> np.ndarray:
    """Midpoints omega_j = -omega_max + (j + 1/2) * 2*omega_max/n.

    ``n`` must be even so the grid is symmetric about zero and never
    contains omega = 0; the array is built as an exact mirror of its
    positive half.
    """
    check_midpoints(omega_max_cm1, n)
    half = (np.arange(n // 2) + 0.5) * (2.0 * omega_max_cm1 / n)
    return np.concatenate((-half[::-1], half))


def check_midpoints(omega_max_cm1: float, n: int):
    """Raise ValidationError, allocating nothing, unless n is even and >= 2 and the
    band width 2*omega_max is positive and a finite double."""
    if n < 2 or n % 2 != 0:
        raise ValidationError(f"frequency count must be even and >= 2, got {n}")
    # a Python float product overflows to inf without a numpy warning
    if not (omega_max_cm1 > 0 and math.isfinite(2.0 * float(omega_max_cm1))):
        raise ValidationError(
            f"omega_max must be positive with a finite band width, got {omega_max_cm1}"
        )


def _is_uniform(times: np.ndarray) -> bool:
    dt = (times[-1] - times[0]) / (times.size - 1)
    ideal = times[0] + dt * np.arange(times.size)
    scale = max(abs(times[0]), abs(times[-1]), 1e-30)
    return bool(np.max(np.abs(times - ideal)) <= 8 * np.finfo(float).eps * scale)


def fourier_midpoint_sum(weights, omega_max_cm1: float, times_fs) -> np.ndarray:
    """h * sum_j weights_j * exp(-i*omega_j*t) on midpoint frequencies.

    ``weights`` has one entry per midpoint of [-omega_max, omega_max];
    phases use omega in rad/fs.  Returns a complex array over ``times_fs``.

    Real weights on m >= 2 uniform times t_k = k * dt (dt of either sign) are
    folded onto the n/2 positive midpoints from h/2: with x_p = w(omega_p) +
    i w(-omega_p) and G the sum of x over those midpoints, one chirp-z transform
    gives G at the 2m - 1 times -t_{m-1} ... t_{m-1}, and with A = G(t_k),
    B = conj(G(-t_k)) the sum is (A + B)/2 + (i/2) conj(A - B).  Every other
    input takes the direct sum over all n midpoints, at O(n * m) cost.
    """
    x = np.asarray(weights)
    times = np.asarray(times_fs, dtype=float)
    n = x.size
    check_midpoints(omega_max_cm1, n)
    h = 2.0 * omega_max_cm1 / n
    if not (np.isrealobj(x) and times.size >= 2 and times[0] == 0.0 and _is_uniform(times)):
        return direct_sum(x, midpoint_frequencies(omega_max_cm1, n), h, times)
    half, m = n // 2, times.size
    folded = x[half:] + 1j * x[half - 1 :: -1]
    both = np.concatenate((-times[:0:-1], times))
    du = h * RAD_PER_FS_PER_CM1
    g = ChirpSum(half, 0.5 * du, du, both, scale=h)(folded)  # from h/2, the first positive midpoint
    a, b = g[m - 1 :], np.conj(g[m - 1 :: -1])
    return 0.5 * (a + b) + 0.5j * np.conj(a - b)


class ChirpSum:
    """The map x -> scale * sum_j x_j * exp(-i*(u0 + j*du)*v_k), j < n.

    ``v`` must be uniformly spaced; a single point has no spacing, and is
    taken with dv = 0 (any dv gives the same sum).  Each call is
    one chirp-z transform by Bluestein's algorithm (Rabiner, Schafer &
    Rader 1969) on ``numpy.fft``: with h = du*dv/2 and 2jk = j**2 + k**2 -
    (k-j)**2, the sum is a convolution with exp(i*h*l**2) between chirps
    exp(-i*h*k**2).  Each chirp is exp of a phase formed in real arithmetic,
    so its modulus is 1 to roundoff; a power w**(k**2/2) of a rounded w
    would scale w's ulp error by k**2/2.

    The convolution has length nfft = _fast_len(n + m - 1), with the kernel
    exp(i*h*l**2) at l = 1 - n ... nfft - n.  The factors and the kernel's
    FFT are built once, so a call is one FFT of the input, one product with
    the kernel, one inverse FFT and one multiply.
    """

    def __init__(self, n: int, u0: float, du: float, v, scale: float = 1.0):
        m = v.size
        h = du * ((v[-1] - v[0]) / (m - 1) if m > 1 else 0.0) / 2.0
        nfft = _fast_len(n + m - 1)
        j, k, ell = np.arange(n), np.arange(m), np.arange(1 - n, nfft - n + 1)
        self._n, self._m, self._nfft = n, m, nfft
        self._pre = np.exp(-1j * (j * du * v[0] + h * j**2))
        # one row of a 2-D FFT: numpy's 1-D FFT rounds differently at some lengths
        self._kernel = np.fft.fft(np.exp(1j * (h * ell**2))[None, :], axis=1)
        self._post = scale * np.exp(-1j * (u0 * v + h * k**2))

    def __call__(self, x) -> np.ndarray:
        y = np.fft.ifft(self._kernel * np.fft.fft(x * self._pre, self._nfft), axis=1)
        return y[0, self._n - 1 : self._n - 1 + self._m] * self._post


def _fast_len(target: int) -> int:
    """The least length >= target whose prime factors are all <= 11.

    These 11-smooth lengths are the ones pocketfft transforms fastest,
    and the usual choice of zero-padded length for complex FFTs.
    """
    n = target
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def direct_sum(x, freqs, h, times):
    """h * sum_j x_j * exp(-i*omega_j_rad*t) at each time, on any frequencies."""
    out = np.zeros(times.size, dtype=complex)
    cols = max(1, DIRECT_CHUNK // max(times.size, 1))
    w_rad = freqs * RAD_PER_FS_PER_CM1
    for start in range(0, x.size, cols):
        sl = slice(start, min(start + cols, x.size))
        out += np.exp(-1j * np.outer(times, w_rad[sl])) @ x[sl]
    return h * out


def refine_midpoint(level, what: str) -> np.ndarray:
    """Refine a midpoint quadrature by doubling its point count.

    ``level(n)`` evaluates the quadrature on n midpoints.  Starting from
    ``DEFAULT_QUAD_POINTS`` points, the count doubles until one doubling
    changes the values by less than ``QUAD_REL_TOL`` of their peak; the
    finer level is returned.  Reaching ``MAX_QUAD_POINTS`` first raises a
    ConvergenceError that names the quantity as ``what``; a level with a
    non-finite value raises a ValidationError.  The three constants are
    read at call time; a level with no values settles on the first doubling.
    """

    def checked(n_points):
        # far out in the band an intermediate may overflow; a non-finite
        # level is rejected here rather than refined to the point cap
        with np.errstate(over="ignore", invalid="ignore"):
            values = level(n_points)
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"{what} quadrature is not finite on {n_points} points")
        return values

    n = DEFAULT_QUAD_POINTS
    current = checked(n)
    achieved = np.inf
    while 2 * n <= MAX_QUAD_POINTS:
        finer = checked(2 * n)
        scale = float(np.max(np.abs(finer), initial=0.0))
        achieved = float(np.max(np.abs(finer - current), initial=0.0)) / max(scale, 1e-300)
        current = finer
        n *= 2
        if achieved < QUAD_REL_TOL:
            return current
    raise ConvergenceError(
        f"{what} quadrature did not reach {QUAD_REL_TOL:.1e} within "
        f"{MAX_QUAD_POINTS} points (best relative change {achieved:.3e})"
    )
