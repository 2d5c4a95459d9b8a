"""Spectral densities J(omega) and the temperature-dressed quantum noise.

Every spectral density is an odd function of frequency.  Oddness is
enforced structurally: a kind only ever defines its magnitude on
omega >= 0 and evaluation returns sign(omega) * magnitude(|omega|), so
J(-omega) + J(omega) is exactly zero in floating point.

The quantum noise combines J with the thermal occupation factor,

    S_beta(omega) = 0.5 * J(omega) * (coth(beta*omega/2) + 1),

evaluated through the cancellation-free identity
coth(x) + 1 = -2/expm1(-2x), accurate for every normal beta*omega, with
no power series; where beta*omega underflows (omega = 0 or a subnormal
product) it takes the limit J'(0)/beta.  Values are finite for all real
omega, and detailed balance S_beta(-omega) = exp(-beta*omega) *
S_beta(omega) holds to machine precision.  Zero temperature is the
beta -> inf limit of the same formula (``Temperature.beta`` is inf there):
S_beta(omega) = J(omega) for omega > 0 and exactly 0 for omega <= 0.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ._schema import is_finite_number, read_text, require_list, require_number
from .errors import SchemaError, ValidationError
from .units import KB_CM1_PER_K

__all__ = [
    "SpectralDensity",
    "Debye",
    "OhmicExp",
    "LorentzianSum",
    "Tabulated",
    "Temperature",
    "NoiseKernel",
    "load_tabulated",
    "sd_from_config",
]


def _require_positive(where: str, name: str, value: float):
    if not (value > 0 and np.isfinite(value)):
        raise ValidationError(f"{where}: {name} must be positive, got {value}")


class SpectralDensity:
    """Base class; subclasses implement the magnitude on omega >= 0."""

    def _magnitude(self, x):
        raise NotImplementedError

    def derivative_at_zero(self) -> float:
        """Slope J'(0), needed for the omega -> 0 limit of the noise."""
        raise NotImplementedError

    def to_config(self) -> dict:
        """JSON-ready description of this spectral density."""
        raise NotImplementedError

    def evaluate(self, omega):
        """J(omega) with exact odd extension; accepts scalars or arrays."""
        w = np.asarray(omega, dtype=float)
        out = np.sign(w) * self._magnitude(np.abs(w))
        return out if w.ndim else float(out)


@dataclass(frozen=True, eq=False)
class Debye(SpectralDensity):
    """Overdamped form J(omega) = 2*lam*omega*gamma / (omega^2 + gamma^2).

    ``lam`` and the cutoff ``gamma`` are in cm^-1, and the peak value J(gamma)
    equals lam.  C(t) here carries no 1/pi, so the reorganization energy,
    the integral of J/omega over omega > 0, is pi * lam, not lam.
    """

    lam: float
    gamma: float

    def __post_init__(self):
        _require_positive("debye", "lambda", self.lam)
        _require_positive("debye", "gamma", self.gamma)

    def _magnitude(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            denom = x * x + self.gamma * self.gamma
            out = 2.0 * self.lam * self.gamma * x / denom
            far = np.isinf(denom)
            if np.any(far):
                # x*x overflows: divide by hypot(x, gamma) first, so neither the
                # square nor 2*lam*gamma*x is ever formed
                h = np.hypot(x, self.gamma)
                out = np.where(far, 2.0 * self.lam * self.gamma / h * (x / h), out)
        return out

    def derivative_at_zero(self) -> float:
        return 2.0 * self.lam / self.gamma

    def to_config(self) -> dict:
        return {"kind": "debye", "lambda": self.lam, "gamma": self.gamma}


@dataclass(frozen=True, eq=False)
class OhmicExp(SpectralDensity):
    """Ohmic J(omega) = (pi/2)*alpha*omega*exp(-|omega|/omega_c).

    C(t) here carries no 1/pi, so under V_SB = sigma_z the dimensionless
    spin-boson coupling of Leggett et al. (Rev. Mod. Phys. 59, 1 (1987)) is
    pi * alpha, not alpha: at zero temperature a qubit's coherence decays as
    (1 + (omega_c t)^2)^(-pi * alpha).
    """

    alpha: float
    omega_c: float

    def __post_init__(self):
        _require_positive("ohmic_exp", "alpha", self.alpha)
        _require_positive("ohmic_exp", "omega_c", self.omega_c)

    def _magnitude(self, x):
        # x * exp(-x/omega_c) first: it underflows to 0 where alpha * x would overflow
        return 0.5 * np.pi * self.alpha * (x * np.exp(-x / self.omega_c))

    def derivative_at_zero(self) -> float:
        return 0.5 * np.pi * self.alpha

    def to_config(self) -> dict:
        return {"kind": "ohmic_exp", "alpha": self.alpha, "omega_c": self.omega_c}


@dataclass(frozen=True, eq=False)
class LorentzianSum(SpectralDensity):
    """Sum of antisymmetrized Lorentzian pairs.

    Each term (lam, gamma, omega0) contributes

        lam * gamma^2 * [ ((omega-omega0)^2 + gamma^2)^-1
                          - ((omega+omega0)^2 + gamma^2)^-1 ],

    which is odd by construction; lam is approximately the peak height at
    omega0 when gamma << omega0.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple((float(a), float(b), float(c)) for a, b, c in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValidationError("lorentzian_sum: needs at least one term")
        for i, term in enumerate(terms):
            for name, value in zip(("lambda", "gamma", "omega0"), term):
                _require_positive(f"lorentzian_sum: term {i}", name, value)

    def _magnitude(self, x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        for lam, gamma, omega0 in self.terms:
            g2 = gamma * gamma
            out = out + lam * g2 * (
                1.0 / ((x - omega0) ** 2 + g2) - 1.0 / ((x + omega0) ** 2 + g2)
            )
        return out

    def derivative_at_zero(self) -> float:
        total = 0.0
        for lam, gamma, omega0 in self.terms:
            g2 = gamma * gamma
            total += 4.0 * lam * g2 * omega0 / (omega0 * omega0 + g2) ** 2
        return total

    def to_config(self) -> dict:
        return {
            "kind": "lorentzian_sum",
            "terms": [
                {"lambda": lam, "gamma": gamma, "omega0": omega0}
                for lam, gamma, omega0 in self.terms
            ],
        }


@dataclass(frozen=True, eq=False)
class Tabulated(SpectralDensity):
    """Piecewise-linear J from sampled (omega > 0, J) pairs.

    Interpolation is linear between points and between (0, 0) and the
    first point; J is zero beyond the last abscissa.
    """

    omega: np.ndarray
    values: np.ndarray
    # interpolation nodes with the (0, 0) anchor prepended
    _xs: np.ndarray = field(init=False, repr=False)
    _ys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if omega.ndim != 1 or values.shape != omega.shape:
            raise ValidationError("tabulated: omega and values must be equal-length 1-d arrays")
        if omega.size < 2:
            raise ValidationError(f"tabulated: needs at least 2 points, got {omega.size}")
        if not np.all(np.isfinite(omega)) or not np.all(np.isfinite(values)):
            raise ValidationError("tabulated: non-finite entries")
        if omega[0] <= 0.0:
            raise ValidationError(
                f"tabulated: first abscissa must be positive, got {omega[0]}"
            )
        if not np.all(np.diff(omega) > 0.0):
            bad = int(np.flatnonzero(np.diff(omega) <= 0.0)[0]) + 1
            raise ValidationError(
                f"tabulated: abscissae not strictly increasing at point {bad} "
                f"(omega={omega[bad]})"
            )
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_xs", np.concatenate(([0.0], omega)))
        object.__setattr__(self, "_ys", np.concatenate(([0.0], values)))

    def _magnitude(self, x):
        return np.interp(x, self._xs, self._ys, left=0.0, right=0.0)

    def derivative_at_zero(self) -> float:
        # one-sided difference through the (0, 0) anchor
        return float(self.values[0] / self.omega[0])

    def to_config(self) -> dict:
        return {
            "kind": "tabulated",
            "points": np.column_stack((self.omega, self.values)).tolist(),
        }


# a CSV number: optional sign, digits with an optional point, optional exponent
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def load_tabulated(source) -> Tabulated:
    """Read a two-column CSV (omega_cm1, J_cm1) into a Tabulated density.

    ``source`` is a path (``str`` or ``os.PathLike``) or a text stream; a
    string is always a file name, never CSV text.  Cells must be finite
    numbers in plain decimal notation (no inf, nan, hex or underscores).
    The first line that is neither blank nor a ``#`` comment is skipped as
    a header if it holds no number at all.
    Errors carry the line number.
    """
    omegas, values = [], []
    first = True
    for lineno, raw in enumerate(read_text(source).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        header, first = first, False
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ValidationError(f"line {lineno}: expected 2 columns, got {len(parts)}")
        w, j = map(_decimal, parts)
        if w is None or j is None:
            if header and not any(map(_loose_number, parts)):
                continue  # header row
            raise ValidationError(
                f"line {lineno}: expected two finite decimal numbers, got '{line}'"
            )
        omegas.append(w)
        values.append(j)
    try:
        return Tabulated(np.array(omegas), np.array(values))
    except ValidationError as exc:
        raise ValidationError(f"tabulated CSV: {exc}") from None


def _decimal(cell: str) -> float | None:
    """The finite double a CSV cell spells in plain decimal notation, else None."""
    if _DECIMAL.fullmatch(cell):
        value = float(cell)
        if math.isfinite(value):
            return value
    return None


def _loose_number(cell: str) -> bool:
    """True if ``float`` reads the cell (it also takes inf, nan and 1_0)."""
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _numbers(obj, keys, pointer: str = "") -> tuple:
    """obj[key] for each key, each a finite JSON number (never a bool or a string)."""
    return tuple(require_number(obj, key, pointer) for key in keys)


def _points(config) -> np.ndarray:
    """The tabulated ``points`` as an (n, 2) array of finite [omega, J] pairs."""
    points = require_list(config, "points", "")
    values = _finite_pairs(points)
    if values is None:
        # _finite_pairs rejects only a table with a bad point: name the first one
        for i, p in enumerate(points):
            if not (isinstance(p, list) and len(p) == 2 and all(map(is_finite_number, p))):
                raise SchemaError(
                    f"/points/{i}", f"expected [omega, J], two finite numbers, got {p!r}"
                )
    return values.reshape(-1, 2)


def _finite_pairs(points: list) -> np.ndarray | None:
    """The points as floats if each is a list of two finite numbers, else None.

    ``is_finite_number`` on every value, made on the set of value types and
    on one array, so a 3,000-point table runs no Python code per value.
    """
    if not all(issubclass(t, list) for t in set(map(type, points))) or set(map(len, points)) - {2}:
        return None
    types = set(map(type, chain.from_iterable(points)))
    if not all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in types):
        return None
    try:
        values = np.array(points, dtype=float)
    except OverflowError:  # an int beyond the double range
        return None
    # an int just above the largest double converts to it: compare the ints exactly
    exact = not any(issubclass(t, int) for t in types) or (
        max(map(abs, chain.from_iterable(points))) <= sys.float_info.max
    )
    return values if exact and np.isfinite(values).all() else None


_SD_KINDS = {
    "debye": lambda c: Debye(*_numbers(c, ("lambda", "gamma"))),
    "ohmic_exp": lambda c: OhmicExp(*_numbers(c, ("alpha", "omega_c"))),
    "lorentzian_sum": lambda c: LorentzianSum(
        tuple(
            _numbers(t, ("lambda", "gamma", "omega0"), f"/terms/{i}")
            for i, t in enumerate(require_list(c, "terms", ""))
        )
    ),
    "tabulated": lambda c: Tabulated(*_points(c).T),
}


def sd_from_config(config: dict) -> SpectralDensity:
    """Build a spectral density from its JSON config object."""
    if not isinstance(config, dict) or "kind" not in config:
        raise ValidationError("spectral density config must be an object with a 'kind'")
    kind = config["kind"]
    if not isinstance(kind, str) or kind not in _SD_KINDS:
        raise ValidationError(
            f"unknown spectral density kind '{kind}' "
            f"(expected one of {sorted(_SD_KINDS)})"
        )
    try:
        return _SD_KINDS[kind](config)
    except SchemaError as exc:
        raise ValidationError(f"bad '{kind}' config: {exc}") from None


@dataclass(frozen=True)
class Temperature:
    """Environment temperature; ``kelvin is None`` means exactly zero.

    ``beta`` is 1/(kB*T), and ``math.inf`` at zero temperature, the
    beta -> inf limit that ``NoiseKernel`` evaluates with its one formula.
    """

    kelvin: float | None

    def __post_init__(self):
        # beta is 0 at kelvin = inf and overflows at a tiny positive kelvin: both rejected
        if self.kelvin is not None and not (self.kelvin > 0 and 0.0 < self.beta < math.inf):
            raise ValidationError(
                f"temperature must be finite and positive with a finite beta, got {self.kelvin} K; "
                "for zero temperature use \"zero\" in JSON or --zero-temp on the CLI"
            )

    @classmethod
    def zero(cls) -> "Temperature":
        return cls(kelvin=None)

    @classmethod
    def finite(cls, kelvin: float) -> "Temperature":
        return cls(kelvin=float(kelvin))

    @property
    def is_zero(self) -> bool:
        return self.kelvin is None

    @property
    def beta(self) -> float:
        """1/(kB*T) in (cm^-1)^-1; ``math.inf`` at zero temperature."""
        return math.inf if self.kelvin is None else 1.0 / (KB_CM1_PER_K * self.kelvin)

    def to_json(self):
        return "zero" if self.kelvin is None else self.kelvin

    @classmethod
    def from_json(cls, value) -> "Temperature":
        if value == "zero":
            return cls.zero()
        if is_finite_number(value):
            return cls.finite(float(value))
        raise ValidationError(f"temperature must be a finite number or 'zero', got {value!r}")


@dataclass(frozen=True, eq=False)
class NoiseKernel:
    """Quantum noise S_beta(omega) for one spectral density and temperature."""

    sd: SpectralDensity
    temperature: Temperature

    def evaluate(self, omega):
        """S_beta(omega); finite for every real omega, scalars or arrays."""
        w = np.asarray(omega, dtype=float)
        j = self.sd.evaluate(w)
        beta = self.temperature.beta
        # coth(y/2) + 1 == -2/expm1(-y), exact to machine precision for all normal y;
        # e^{|y|} -> inf gives a clean S -> 0 (at beta = inf: J above omega = 0, 0
        # below), and omega = 0 or a y that underflows (subnormal, where J(omega)/y
        # loses bits) takes the limit J'(0)/beta, which also replaces inf * 0 = nan
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            y = beta * w
            limit = (w == 0.0) | (np.abs(y) < np.finfo(float).tiny)
            out = np.where(limit, self.sd.derivative_at_zero() / beta, -j / np.expm1(-y))
        return out if w.ndim else float(out)
