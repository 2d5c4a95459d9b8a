"""Compression of a noise kernel into a finite set of harmonic modes.

The pipeline views the kernel's time-frequency fingerprint

    f(t, omega) = S_beta(omega) * exp(-i * omega_rad * t)

on a rectangular grid, with real and imaginary parts stacked into a tall
real matrix, selects a small set of physically meaningful frequency
columns with a column interpolative decomposition, and fits nonnegative
weights z_k against a refined quadrature of the correlation function

    C(t) = integral_{-W}^{W} S_beta(omega) exp(-i*omega_rad*t) domega.

The surviving modes (omega_k, z_k) with couplings
g_k = sqrt(z_k * S_beta(omega_k)) reproduce C(t) on the fitted window as
C(t) ~ sum_k g_k^2 exp(-i*omega_k_rad*t).  ``fdr_factor`` runs the ID and
the reference once; ``discretize_bath`` fits on a pivot prefix of it, so a
tolerance sweep shares one factor built at its tightest tol.

The sample matrix is never stored: ``FdrOperator`` builds columns on
demand, on only the band of columns the ID at ``tol`` can select, and
gives the ID its Gram rows from one Toeplitz table that a single chirp-z
transform builds (its transpose products, by chirp-z transforms, serve
tols below ``lowrank.GRAM_ROW_MIN_TOL``).  ``assemble_fdr`` builds the
dense matrix for tests and small studies.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from decimal import MAX_EMAX, Context, Decimal
from functools import cached_property

import numpy as np

from ._schema import is_integer, read_json, require, require_list, require_number, write_json
from .errors import ConvergenceError, ResourceLimitError, SchemaError, ValidationError
from .lowrank import RECOMPUTE_CHUNK, IdResult, column_id, nnls
from .quadrature import (
    DIRECT_CHUNK,
    MAX_QUAD_POINTS,
    ChirpSum,
    check_midpoints,
    direct_sum,
    fourier_midpoint_sum,
    midpoint_frequencies,
    refine_midpoint,
)
from .specdens import NoiseKernel, SpectralDensity, Temperature, sd_from_config
from .units import RAD_PER_FS_PER_CM1

__all__ = [
    "FdrGrid",
    "FdrOperator",
    "BathDiagnostics",
    "BathModel",
    "reference_bcf",
    "series_bytes",
    "check_memory",
    "check_tol",
    "assemble_fdr",
    "FdrFactor",
    "fdr_factor",
    "discretize_bath",
    "reconstruct_bcf",
    "bcf_error_stats",
    "bath_model_to_dict",
    "bath_model_from_dict",
    "save_bath_model",
    "load_bath_model",
]

DEFAULT_MEMORY_CAP_BYTES = 4 << 30


def _check_window(t_max_fs: float, omega_max_cm1: float, n_freq: int = 2):
    """The window rule of FdrGrid and BathModel: a finite t_max > 0, ``n_freq``
    midpoints of [-omega_max, omega_max] as ``check_midpoints`` accepts them, and a
    finite largest phase omega_max * t_max."""
    if not (np.isfinite(t_max_fs) and t_max_fs > 0):
        raise ValidationError(f"t_max_fs must be finite and > 0, got {t_max_fs}")
    check_midpoints(omega_max_cm1, n_freq)
    # a plain float product overflows to inf without a numpy warning
    if not math.isfinite(float(omega_max_cm1) * RAD_PER_FS_PER_CM1 * float(t_max_fs)):
        raise ValidationError(
            f"phases omega*t overflow (omega_max {omega_max_cm1} cm^-1, t_max {t_max_fs} fs)"
        )


@dataclass(frozen=True)
class FdrGrid:
    """Uniform sampling rectangle [0, t_max] x [-omega_max, omega_max].

    Frequencies are midpoint-offset so omega = 0 is never sampled
    (``n_freq`` must be even); times include both endpoints (``n_time`` >= 2).
    The times must resolve the band: omega_max * dt <= pi in rad, with
    dt = t_max / (n_time - 1), or the samples cannot pin a C(t) limited to
    [-omega_max, omega_max] and the fit would only interpolate them.
    """

    t_max_fs: float
    omega_max_cm1: float
    n_time: int = 1000
    n_freq: int = 10000

    def __post_init__(self):
        for name in ("n_time", "n_freq"):
            if not is_integer(getattr(self, name)):
                raise ValidationError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_time < 2:
            raise ValidationError(f"the grid needs n_time >= 2, got {self.n_time}")
        _check_window(self.t_max_fs, self.omega_max_cm1, self.n_freq)
        phase = float(self.omega_max_cm1) * RAD_PER_FS_PER_CM1 * float(self.t_max_fs)
        # a float against an int compares exactly, for an n_time of any size
        if phase / math.pi > self.n_time - 1:
            raise ValidationError(
                f"n_time {self.n_time} does not resolve the band: omega_max * dt = "
                f"{phase / (self.n_time - 1):.3g} rad exceeds pi; "
                f"use n_time >= {math.ceil(phase / math.pi) + 1}"
            )

    @cached_property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max_fs, self.n_time)

    @cached_property
    def freqs(self) -> np.ndarray:
        return midpoint_frequencies(self.omega_max_cm1, self.n_freq)


@dataclass(frozen=True)
class BathDiagnostics:
    """Counts and errors of one run.  The duals are recomputed on the full basis A,
    so they meet ``nnls_dual_tolerance`` only to roundoff (see NnlsResult)."""

    id_rank: int
    mode_count: int
    max_abs_error: float
    mean_abs_error: float
    rel_error: float
    nnls_iterations: int
    nnls_residual_norm: float
    nnls_converged: bool
    nnls_dual_tolerance: float
    nnls_max_dual_inactive: float
    nnls_max_abs_dual_active: float


@dataclass(frozen=True, eq=False)
class BathModel:
    """A compressed harmonic environment: modes, weights and couplings.

    ``omegas`` are grid frequencies (cm^-1, may be negative), ``z`` the
    strictly positive fitted weights and ``g`` the couplings
    sqrt(z * S_beta(omega)).  The spectral density and frequency window are
    kept so the reference correlation function can be recomputed from the
    serialized model alone; the window must be one ``FdrGrid`` accepts, and
    every |omega_k| at most omega_max, so every phase omega_k * t on it is finite.
    """

    omegas: np.ndarray
    z: np.ndarray
    g: np.ndarray
    temperature: Temperature
    sd: SpectralDensity
    t_max_fs: float
    omega_max_cm1: float
    tol: float
    diagnostics: BathDiagnostics

    def __post_init__(self):
        if not (len(self.omegas) == len(self.z) == len(self.g)):
            raise ValidationError("bath model arrays must have equal length")
        for name in ("omegas", "z", "g"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"bath model {name} must be finite")
        if np.any(self.z <= 0.0):
            raise ValidationError("bath model weights must be strictly positive")
        if np.any(self.g < 0.0):
            raise ValidationError("bath model couplings must be nonnegative")
        _check_window(self.t_max_fs, self.omega_max_cm1)
        if np.any(np.abs(self.omegas) > self.omega_max_cm1):
            raise ValidationError("bath model modes must lie in [-omega_max, omega_max]")
        check_tol(self.tol)

    @property
    def mode_count(self) -> int:
        return len(self.omegas)

    @property
    def kernel(self) -> NoiseKernel:
        return NoiseKernel(self.sd, self.temperature)


def reference_bcf(kernel: NoiseKernel, times_fs, omega_max_cm1: float) -> np.ndarray:
    """Band-limited correlation function by refined midpoint quadrature.

    Integrates S_beta(omega)*exp(-i*omega_rad*t) over [-omega_max,
    omega_max] on midpoint-offset points, refined by ``refine_midpoint``,
    at any real times: ``fourier_midpoint_sum`` takes them as given.
    """
    times = np.atleast_1d(np.asarray(times_fs, dtype=float))

    def level(n_points: int) -> np.ndarray:
        weights = kernel.evaluate(midpoint_frequencies(omega_max_cm1, n_points))
        return fourier_midpoint_sum(weights, omega_max_cm1, times)

    return refine_midpoint(level, "correlation")


class FdrOperator:
    """The sample matrix of ``assemble_fdr``, never stored.

    Column j is S_j * [cos(omega_j t); -sin(omega_j t)] over the grid
    times.  This is the column operator ``column_id`` reads: ``norms2``
    (m * S_j^2), ``columns(idx)`` (built on demand, bit-equal to the
    columns of ``assemble_fdr`` at ``freqs[idx]``), ``gram_row(j)`` and
    ``rmatvec(q)``.  On the uniform band cos a cos b + sin a sin b =
    cos(a - b) makes the Gram matrix D_S K D_S with K Toeplitz, K[d] =
    sum_i cos(d * domega * t_i), so ``gram_row(j)`` is S_j * S times a
    slice of one table of the 2n - 1 values K[|d|], built on the first call
    by one chirp-z transform, Re sum_i exp(-i omega_0 t_i) exp(i omega_d t_i).
    ``rmatvec(q)`` gives q^T F as S * Re(sum_i (a_i + i b_i) exp(i omega_j
    t_i)) for q = [a; b] by one chirp-z transform.  The constructor raises
    ValidationError, before any sine or cosine is taken, unless S and m * S^2
    are finite on the whole grid (the grid's window bounds every phase omega*t).

    Given ``tol`` in (0, 1), the operator holds only the band of grid
    columns that ``column_id`` at that tol can select: the contiguous run
    from the first to the last column whose m * S_j^2 is at least
    (1 - 1e-6) * tol^2 times the largest (every column for identically zero
    noise, and without ``tol``).  Residual norms only fall and the first
    pivot is the largest column, so no column with ||f_j|| <= tol * max ||f||
    is accepted; the 1e-6 margin is far above the roundoff of a computed
    norm.  Operator column j is the grid column at ``freqs[j]``.  The ID's
    accepted pivots and their norms are those of the full grid; only the
    terminal ``pivot_norms`` entry may differ, being the largest residual
    left in the band.
    """

    def __init__(self, kernel: NoiseKernel, grid: FdrGrid, tol: float | None = None):
        m = grid.n_time
        self.times = grid.times
        w_rad = grid.freqs * RAD_PER_FS_PER_CM1
        with np.errstate(over="ignore", invalid="ignore"):
            s = kernel.evaluate(grid.freqs)
            norms2 = m * s * s
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(norms2))):
            raise ValidationError("the quantum noise is not finite (or overflows) on the grid")
        band = slice(None)
        if tol is not None:
            check_tol(tol)
            keep = np.flatnonzero(norms2 >= (1.0 - 1e-6) * tol * tol * np.max(norms2))
            band = slice(keep[0], keep[-1] + 1)
        self.freqs, self.w_rad = grid.freqs[band], w_rad[band]
        self.s, self.norms2 = s[band], norms2[band]
        self.shape = (2 * m, self.freqs.size)
        # sum_i c_i exp(-i*(-t_i)*omega_j): the time axis runs backwards from t = 0
        self._transform = ChirpSum(m, -self.times[0], -grid.t_max_fs / (m - 1), self.w_rad)

    def columns(self, idx) -> np.ndarray:
        m = self.times.size
        idx = np.asarray(idx, dtype=int)
        s = self.s[idx]
        arg = np.outer(self.times, self.w_rad[idx])
        out = np.empty((2 * m, idx.size), order="F")  # the layout of assemble_fdr(...)[:, idx]
        out[:m] = s * np.cos(arg)
        out[m:] = -(s * np.sin(arg))
        return out

    def rmatvec(self, q) -> np.ndarray:
        m = self.times.size
        return self.s * self._transform(q[:m] + 1j * q[m:]).real

    @cached_property
    def _gram_table(self) -> np.ndarray:
        # K[d] = sum_i cos(d * domega * t_i) = Re sum_i exp(i * (omega_d - omega_0) * t_i),
        # laid out as K[n-1], ..., K[1], K[0], K[1], ..., K[n-1]
        k = self._transform(np.exp(-1j * (self.w_rad[0] * self.times))).real
        return np.concatenate((k[:0:-1], k))

    def gram_row(self, j) -> np.ndarray:
        n = self.s.size
        return self.s[j] * (self.s * self._gram_table[n - 1 - j : 2 * n - 1 - j])


def check_memory(nbytes: int, cap: int, what: str):
    """Raise ResourceLimitError if ``what`` ("<name>; <remedy>") needs over ``cap`` bytes."""
    if nbytes > cap:
        gib = Context(prec=3, Emax=MAX_EMAX)  # three digits for an int of any size
        need, limit = (gib.divide(Decimal(b), 2**30).normalize() for b in (nbytes, cap))
        raise ResourceLimitError(f"{need:g} GiB is needed, above the {limit:g} GiB cap, for {what}")


def check_tol(tol: float):
    """Raise ValidationError unless ``tol`` lies in (0, 1); NaN does not."""
    if not (0.0 < tol < 1.0):
        raise ValidationError(f"tol must be in (0, 1), got {tol}")


def assemble_fdr(kernel: NoiseKernel, grid: FdrGrid) -> np.ndarray:
    """Sample the kernel on the grid and stack Re/Im into a 2m x n matrix.

    Rows [0, m) hold Re f and rows [m, 2m) Im f over the grid times.  The
    dense oracle for ``FdrOperator``, built independently of it; the
    pipeline itself never builds this matrix.  It is built in place, a pair
    of rows at a time: the phases omega * t_i in row m + i, their cos times S
    in row i, then their sin times -S over the phases.  The cap is
    ``DEFAULT_MEMORY_CAP_BYTES``, read at call time.
    """
    m, n = grid.n_time, grid.n_freq
    # the matrix, the times and, a column, S's evaluation, the frequencies, rates and -S
    nbytes = 16 * m * n + 8 * m + (kernel.BYTES_PER_POINT + 24) * n
    check_memory(nbytes, DEFAULT_MEMORY_CAP_BYTES, f"the {m} x {n} samples; use a coarser grid")
    s = kernel.evaluate(grid.freqs)
    w_rad, minus_s = grid.freqs * RAD_PER_FS_PER_CM1, -s
    realified = np.empty((2 * m, n))
    # row by row: a broadcast ufunc given ``out`` allocates iteration buffers (to 128 KiB)
    for i, t in enumerate(grid.times):
        re, im = realified[i], realified[m + i]
        np.multiply(t, w_rad, out=im)
        np.multiply(np.cos(im, out=re), s, out=re)
        np.multiply(np.sin(im, out=im), minus_s, out=im)
    return realified


@dataclass(frozen=True, eq=False)
class FdrFactor:
    """One column ID of a kernel's samples on a grid at ``tol``, with its reference.

    ``id_result`` is the ``IdResult`` that ``column_id`` returned on the
    samples, Q and R at its rank; ``basis`` holds the selected columns in
    pivot order (2m x rank, F-order), ``freqs`` and ``s`` their frequencies
    (cm^-1) and noise S_beta; ``c_ref`` is ``reference_bcf`` on the grid
    times.  ``discretize_bath`` fits any tol at or above ``tol`` on a
    prefix of its pivots from these arrays alone.
    """

    kernel: NoiseKernel
    grid: FdrGrid
    tol: float
    id_result: IdResult
    basis: np.ndarray
    freqs: np.ndarray
    s: np.ndarray
    c_ref: np.ndarray


def fdr_factor(
    kernel: NoiseKernel,
    grid: FdrGrid,
    tol: float,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
) -> FdrFactor:
    """Select frequency columns of the kernel samples and refine the reference C(t).

    The column ID runs at ``tol`` through ``FdrOperator`` on the band tol can
    select, so only the selected columns are ever built and they are those
    of the full grid.  The reference is ``reference_bcf`` on the grid times.
    Then the selected columns are built once more, within the worst-case Q
    counted below, as the factor's ``basis``, and the operator is freed on return.
    Before any work, the worst-case working set of the column ID and the reference's
    ``series_bytes(m)`` is checked against ``memory_cap_bytes`` (ResourceLimitError
    above it): all n grid columns, not the band, the largest rank, the reference's deepest level.
    """
    check_tol(tol)
    # Q (r x 2m) and R (r x n) at r = min(2m, n), three 2m x RECOMPUTE_CHUNK blocks of
    # recomputed residuals, and up to ~120 bytes per band column (~77 per grid column)
    # measured for S, the norms, the Gram table, the chirp-z kernel and one call's FFT buffers
    m2, n = 2 * grid.n_time, grid.n_freq
    nbytes = 8 * (min(m2, n) * (m2 + n) + 3 * m2 * min(n, RECOMPUTE_CHUNK)) + 192 * n
    nbytes += series_bytes(grid.n_time)
    what = f"the column ID on the {grid.n_time} x {n} grid; use a coarser grid or a higher cap"
    check_memory(nbytes, memory_cap_bytes, what)
    samples = FdrOperator(kernel, grid, tol)
    id_res = column_id(samples, tol=tol)
    if id_res.rank == 0:
        raise ValidationError(
            "interpolative decomposition selected no columns: every column's squared norm "
            "is zero on the grid (the noise is zero, or too small to square in double precision)"
        )
    c_ref = reference_bcf(kernel, grid.times, grid.omega_max_cm1)
    # after the reference: its quadrature, not the ID's mostly untouched Q and R,
    # sets the resident peak, which the basis would otherwise add to
    sel = id_res.selected
    basis, freqs, s = samples.columns(sel), samples.freqs[sel], samples.s[sel]
    return FdrFactor(kernel, grid, tol, id_res, basis, freqs, s, c_ref)


def discretize_bath(
    kernel: NoiseKernel,
    grid: FdrGrid,
    tol: float,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
    factor: FdrFactor | None = None,
) -> BathModel:
    """Run the full compression pipeline and return the mode set.

    Steps: take the column ID and reference of ``factor``, built by
    ``fdr_factor(kernel, grid, tol, memory_cap_bytes)`` when it is None and
    freed on return; keep its first k pivots, fit nonnegative weights on
    their columns, the first k of the factor's ``basis``, against the
    reference, prune zero weights, build couplings from the factor's ``s``,
    and attach diagnostics, whose BCF errors are those of A z,
    the fitted columns' C(t) on the grid times (``reconstruct_bcf``
    evaluates a saved model), and whose ``id_rank`` is k.  Deterministic
    for fixed inputs; modes come out sorted by ascending frequency.

    k is the first index with ``pivot_norms[k] <= tol * pivot_norms[0]`` in
    the factor's ``id_result``, or every pivot: ``column_id``'s own stop
    test.  A looser tol's ID stops the same pivot sequence earlier, and T,
    q and the pivot norms come from the pivots' own columns, so one factor
    built at the tightest tol of a sweep gives every tol of it the bath its
    own factor would, bit for bit, unless roundoff in the ID's rows of R
    breaks a near tie between pivots: those rows come from the tightest
    tol's wider band, and from transforms where the sweep crosses
    ``lowrank.GRAM_ROW_MIN_TOL``.  No tested sweep breaks one.  Two tols
    with the same k give the same bath, but for ``tol``.  ValidationError if
    ``factor`` was built on another kernel object or grid, or at a tol above
    ``tol``.  ``memory_cap_bytes`` is read only when ``factor`` is None: a
    given factor's working set was checked by the ``fdr_factor`` that built it.
    """
    check_tol(tol)
    if factor is None:
        factor = fdr_factor(kernel, grid, tol, memory_cap_bytes)
    elif factor.kernel is not kernel or factor.grid != grid:
        raise ValidationError("the column ID factor was built on another kernel or grid")
    elif factor.tol > tol:
        raise ValidationError(f"a factor built at tol {factor.tol} cannot fit tol {tol}")
    id_res = factor.id_result
    norms = id_res.pivot_norms
    k = next((i for i in range(id_res.rank) if norms[i] <= tol * norms[0]), id_res.rank)
    c_ref = factor.c_ref
    target = np.concatenate((c_ref.real, c_ref.imag))

    basis = factor.basis[:, :k]
    fit = nnls(basis, target, (id_res.triangle[:k, :k], id_res.q[:k]))
    fitted = basis @ fit.z  # sum_k g_k^2 e^{-i omega_k t} on the grid times, Re then Im
    duals = basis.T @ (target - fitted)
    active = fit.z > 0.0
    # the fit record: a nonconverged fit's partial diagnostics, part of every BathDiagnostics
    record = {
        "id_rank": k,
        "nnls_iterations": fit.iterations,
        "nnls_residual_norm": fit.residual_norm,
        "nnls_dual_tolerance": fit.dual_tolerance,
        # 0.0 when the inactive set is empty (keeps the JSON strict)
        "nnls_max_dual_inactive": float(np.max(duals[~active])) if (~active).any() else 0.0,
    }
    if not fit.converged:
        raise ConvergenceError(
            f"nonnegative fit did not converge in {fit.iterations} iterations", diagnostics=record
        )

    omegas = factor.freqs[:k][active]
    z = fit.z[active]
    s_at_modes = factor.s[:k][active]  # the S that weighted the fitted columns
    if np.any(s_at_modes < 0.0):
        bad = omegas[s_at_modes < 0.0]
        raise ValidationError(
            f"quantum noise is negative at selected frequencies {bad}; "
            "the input spectral density is unphysical"
        )
    g = np.sqrt(z * s_at_modes)

    order = np.argsort(omegas)
    omegas, z, g = omegas[order], z[order], g[order]

    diagnostics = BathDiagnostics(
        **record,
        mode_count=len(omegas),
        **bcf_error_stats(fitted[: grid.n_time] + 1j * fitted[grid.n_time :], c_ref),
        nnls_converged=fit.converged,
        nnls_max_abs_dual_active=float(np.max(np.abs(duals[active]), initial=0.0)),
    )
    return BathModel(
        omegas=omegas,
        z=z,
        g=g,
        temperature=kernel.temperature,
        sd=kernel.sd,
        t_max_fs=grid.t_max_fs,
        omega_max_cm1=grid.omega_max_cm1,
        tol=tol,
        diagnostics=diagnostics,
    )


def reconstruct_bcf(model: BathModel, times_fs) -> np.ndarray:
    """C(t) = sum g_k^2 e^{-i w_k t} of the discrete modes by ``direct_sum``, at any real
    times; ValidationError unless every value is finite (g^2 or the sum may overflow)."""
    times = np.atleast_1d(np.asarray(times_fs, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        c = direct_sum(model.g * model.g, model.omegas, 1.0, times)
    if not np.all(np.isfinite(c)):
        raise ValidationError("the modes' C(t) is not finite: g^2 or the sum overflows")
    return c


def series_bytes(n_times: int, n_modes: int = 0) -> int:
    """Bytes that ``reference_bcf`` and, for M = ``n_modes``, ``reconstruct_bcf`` allocate
    over m = ``n_times`` times: the reference's 256 a time (measured: 160) and 64 a point
    of the deepest level ``refine_midpoint`` can reach, MAX_QUAD_POINTS, whatever the
    noise, and 32 an entry of ``direct_sum``'s largest chunk of phases."""
    m = n_times
    return 256 * m + 64 * MAX_QUAD_POINTS + 32 * min(m * n_modes, max(m, DIRECT_CHUNK))


def bcf_error_stats(c_model, c_reference) -> dict:
    """Distances of two series, keyed as in BathDiagnostics: ``max_abs_error``,
    ``mean_abs_error`` and ``rel_error``, the max abs error / peak |reference|."""
    diff = np.abs(np.asarray(c_model) - np.asarray(c_reference))
    peak = float(np.max(np.abs(c_reference), initial=0.0))
    max_abs = float(np.max(diff, initial=0.0))
    return {
        "max_abs_error": max_abs,
        "mean_abs_error": float(np.mean(diff)) if diff.size else 0.0,
        "rel_error": max_abs / max(peak, 1e-300),
    }


# --- serialization (schema "bathkit-bath/1") ------------------------------

BATH_SCHEMA = "bathkit-bath/1"


def bath_model_to_dict(model: BathModel) -> dict:
    # here, not in BathModel, so that dataclasses.replace can cut sub-models
    # from a fit; what is written must load with bath_model_from_dict
    count = model.diagnostics.mode_count
    if count != model.mode_count:
        raise ValidationError(f"diagnostics.mode_count {count} is not the {model.mode_count} modes")
    return {
        "schema": BATH_SCHEMA,
        "temperature_K": model.temperature.to_json(),
        "t_max_fs": model.t_max_fs,
        "omega_max_cm1": model.omega_max_cm1,
        "tol": model.tol,
        "spectral_density": model.sd.to_config(),
        "modes": [
            {"omega_cm1": float(w), "z": float(z), "g_cm1": float(g)}
            for w, z, g in zip(model.omegas, model.z, model.g)
        ],
        "diagnostics": asdict(model.diagnostics),
    }


def bath_model_from_dict(doc: dict, pointer: str = "") -> BathModel:
    if not isinstance(doc, dict):
        raise SchemaError(pointer or "/", f"expected an object, got {type(doc).__name__}")
    schema = doc.get("schema", BATH_SCHEMA)
    if schema != BATH_SCHEMA:
        raise SchemaError(f"{pointer}/schema", f"expected '{BATH_SCHEMA}', got {schema!r}")
    temperature_k = require(doc, "temperature_K", pointer)
    with SchemaError.at(f"{pointer}/temperature_K"):
        temperature = Temperature.from_json(temperature_k)
    t_max = require_number(doc, "t_max_fs", pointer)
    omega_max = require_number(doc, "omega_max_cm1", pointer)
    tol = require_number(doc, "tol", pointer)
    if not (0.0 < tol < 1.0):
        raise SchemaError(f"{pointer}/tol", f"expected a number in (0, 1), got {tol!r}")
    sd_config = require(doc, "spectral_density", pointer)
    with SchemaError.at(f"{pointer}/spectral_density"):
        sd = sd_from_config(sd_config)
    modes = require_list(doc, "modes", pointer)
    omegas, z, g = [], [], []
    for i, mode in enumerate(modes):
        mp = f"{pointer}/modes/{i}"
        omegas.append(require_number(mode, "omega_cm1", mp))
        z.append(require_number(mode, "z", mp))
        g.append(require_number(mode, "g_cm1", mp))
    diag_doc = require(doc, "diagnostics", pointer)
    dp = f"{pointer}/diagnostics"
    diagnostics = {}
    for f in fields(BathDiagnostics):
        if f.type == "bool":
            value = require(diag_doc, f.name, dp)
            if not isinstance(value, bool):
                raise SchemaError(f"{dp}/{f.name}", f"expected true or false, got {value!r}")
        elif f.type == "int":
            value = require(diag_doc, f.name, dp)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise SchemaError(f"{dp}/{f.name}", f"expected a count >= 0, got {value!r}")
        else:
            value = require_number(diag_doc, f.name, dp)
        diagnostics[f.name] = value
    if diagnostics["mode_count"] != len(modes):
        raise SchemaError(
            f"{dp}/mode_count",
            f"expected {len(modes)}, the number of modes, got {diagnostics['mode_count']}",
        )
    with SchemaError.at(pointer or "/"):
        return BathModel(
            omegas=np.array(omegas, dtype=float),
            z=np.array(z, dtype=float),
            g=np.array(g, dtype=float),
            temperature=temperature,
            sd=sd,
            t_max_fs=t_max,
            omega_max_cm1=omega_max,
            tol=tol,
            diagnostics=BathDiagnostics(**diagnostics),
        )


def save_bath_model(model: BathModel, sink, metadata: dict | None = None):
    """Write the model as JSON to a path or text stream."""
    write_json(sink, bath_model_to_dict(model), metadata)


def load_bath_model(source) -> BathModel:
    """Read a model from a path (``str`` or ``os.PathLike``) or a text stream.

    A string is always a file name, never JSON text.
    """
    return bath_model_from_dict(read_json(source))
