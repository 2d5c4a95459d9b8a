"""Structured surrogate spectral density shipped for tests and demos.

An overdamped background (lambda = 35 cm^-1, gamma = 106.1 cm^-1) plus
three antisymmetrized Lorentzian vibrational peaks, rolled off smoothly to
exactly zero at SURROGATE_OMEGA_MAX.  The peak positions and strengths are
in-house choices: this is NOT experimental data for any real pigment-protein
complex, just a band-limited stand-in with comparable structure.
"""

from __future__ import annotations

import numpy as np

from .specdens import Debye, LorentzianSum, Tabulated

__all__ = [
    "SURROGATE_OMEGA_MAX",
    "surrogate_sd",
    "surrogate_support_count",
]

# Band limit: J is identically zero beyond this frequency (cm^-1).
SURROGATE_OMEGA_MAX = 600.0

_DEBYE = Debye(lam=35.0, gamma=106.1)
_PEAKS = LorentzianSum(
    terms=(
        (18.0, 12.0, 90.0),
        (24.0, 10.0, 180.0),
        (10.0, 14.0, 280.0),
    )
)
# Structure is concentrated below the main rolloff; a faint shelf keeps the
# support alive across the whole band before closing exactly at the edge.
_ROLLOFF_START = 300.0
_ROLLOFF_END = 420.0
_SHELF_LEVEL = 5e-3
_EDGE_START = 560.0
_TABLE_STEP = 0.2


def _cos_step(x):
    """1 -> 0 smoothly as x goes 0 -> 1."""
    x = np.clip(x, 0.0, 1.0)
    return np.where(x >= 1.0, 0.0, 0.5 * (1.0 + np.cos(np.pi * x)))


def _rolloff(omega):
    """Taper to a faint shelf after the structured region, then to zero."""
    w = np.asarray(omega, dtype=float)
    main = _SHELF_LEVEL + (1.0 - _SHELF_LEVEL) * _cos_step(
        (w - _ROLLOFF_START) / (_ROLLOFF_END - _ROLLOFF_START)
    )
    edge = _cos_step((w - _EDGE_START) / (SURROGATE_OMEGA_MAX - _EDGE_START))
    return main * edge


def surrogate_sd() -> Tabulated:
    """The surrogate as a tabulated density on (0, SURROGATE_OMEGA_MAX]."""
    n = int(round(SURROGATE_OMEGA_MAX / _TABLE_STEP))
    omega = np.linspace(_TABLE_STEP, SURROGATE_OMEGA_MAX, n)
    values = (_DEBYE.evaluate(omega) + _PEAKS.evaluate(omega)) * _rolloff(omega)
    values[-1] = 0.0  # close the band exactly
    return Tabulated(omega=omega, values=values)


def surrogate_support_count(spacing_cm1: float = 4.0, half_range_cm1: float = 500.0) -> int:
    """Number of uniform samples of [-half_range, half_range] where J != 0."""
    sd = surrogate_sd()
    samples = np.arange(-half_range_cm1, half_range_cm1 + 0.5 * spacing_cm1, spacing_cm1)
    return int(np.count_nonzero(sd.evaluate(samples) != 0.0))
