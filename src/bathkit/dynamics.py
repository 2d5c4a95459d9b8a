"""Desk-scale exact dynamics for validating discretized environments.

``propagate`` integrates the Schroedinger equation for a DiscreteModel in
a truncated number-state space with Lanczos exponentials, never
materializing the Hamiltonian: the action of each mode's ladder operators
is applied axis by axis on the state tensor.  One Lanczos basis serves as
many uniform output steps as its a-posteriori error estimate allows.  The
bath always starts in its vacuum; at finite temperature the thermal
occupation is already baked into the couplings and signed frequencies of
the bath model.

``dephasing_gamma`` is the closed-form decoherence exponent of a qubit
with diagonal (sigma_z) coupling and vacuum bath,

    Gamma(t) = sum_k 4 g_k^2 (1 - cos(omega_k_rad t)) / omega_k^2
             = sum_k 8 ((g_k / omega_k) sin(omega_k_rad t / 2))^2,

with |rho01(t)/rho01(0)| = exp(-Gamma(t)).  It scales to any number of
modes and acts as the oracle for the exact propagator and for the full
discretization pipeline; its continuum counterpart
``dephasing_gamma_continuum`` integrates 4 S(omega)(1-cos omega t)/omega^2
over the model band by refined midpoint quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._schema import write_text
from .discretize import DEFAULT_MEMORY_CAP_BYTES, FdrGrid, discretize_bath
from .errors import ConvergenceError, ResourceLimitError, ValidationError
from .hamiltonian import DiscreteModel, SystemSpec, build_model
from .quadrature import fourier_midpoint_sum, midpoint_frequencies, refine_midpoint
from .specdens import NoiseKernel
from .units import RAD_PER_FS_PER_CM1

__all__ = [
    "FockTruncation",
    "PropagationResult",
    "ConvergenceReport",
    "propagate",
    "dephasing_gamma",
    "dephasing_gamma_continuum",
    "convergence_study",
]

DEFAULT_DIMENSION_CAP = 1 << 22
# Output steps taken from one Lanczos basis at most.  It bounds the table of
# projected coefficients built per basis; a basis that could serve longer is
# rebuilt, which adds at most 1/64 of a basis per step.
MAX_STEPS_PER_BASIS = 64
# the largest occupation cap FockTruncation.for_model gives a mode
MAX_FOCK_CAP = 10
# a sweep passes while each observable distance is at most (1 + SWEEP_SLACK)
# times the one before it
SWEEP_SLACK = 0.2


def _model_modes(model: DiscreteModel):
    """Flatten the per-coupling bath copies into (omega, g, coupling_idx)."""
    modes = []
    for ci, (label, _) in enumerate(model.system.couplings):
        bath = model.bath_for(label)
        for w, g in zip(bath.omegas, bath.g):
            modes.append((float(w), float(g), ci))
    return modes


@dataclass(frozen=True)
class FockTruncation:
    """Per-mode occupation caps; mode k keeps levels 0..caps[k]."""

    caps: tuple

    def __post_init__(self):
        caps = tuple(int(c) for c in self.caps)
        if any(c < 1 for c in caps):
            raise ValidationError(f"all occupation caps must be >= 1, got {caps}")
        object.__setattr__(self, "caps", caps)

    @classmethod
    def for_model(cls, model: DiscreteModel) -> "FockTruncation":
        """Displaced-oscillator heuristic: cap ~ 8 (g/omega)^2 + 3, at most MAX_FOCK_CAP."""
        caps = []
        for omega, g, _ in _model_modes(model):
            ratio = abs(g / omega) if omega != 0.0 else 0.0
            # past |g/omega| = 1 the cap is saturated and squaring could overflow
            cap = int(math.ceil(8.0 * ratio**2)) + 3 if ratio <= 1.0 else MAX_FOCK_CAP
            caps.append(min(MAX_FOCK_CAP, cap))
        return cls(caps=tuple(caps))

    def dimension(self, system_dim: int) -> int:
        d = system_dim
        for c in self.caps:
            d *= c + 1
        return d


@dataclass(frozen=True)
class PropagationResult:
    """Observable time series from one propagation run."""

    times: np.ndarray
    populations: np.ndarray  # (n_steps+1, d_s)
    coherences: dict  # {(0, 1): complex series}, empty for a one-level system
    norm: np.ndarray
    energy: np.ndarray  # <H> in cm^-1
    krylov_bases: int  # Lanczos bases built; a rejected step reuses its basis
    halvings: int  # times a step was halved because its basis could not cover it
    max_step_error: float  # largest accepted a-posteriori error estimate

    def to_csv(self, sink):
        """Columns t_fs, pop_1..pop_d, re_coh, im_coh, norm, energy_cm1.

        The coherence columns hold rho_01, or zeros for a one-level system.
        """
        coh = self.coherences.get((0, 1), np.zeros_like(self.times, dtype=complex))
        d = self.populations.shape[1]
        header = (
            "t_fs,"
            + ",".join(f"pop_{i + 1}" for i in range(d))
            + ",re_coh,im_coh,norm,energy_cm1"
        )
        lines = [header]
        for i, t in enumerate(self.times):
            pops = ",".join(repr(float(p)) for p in self.populations[i])
            lines.append(
                f"{float(t)!r},{pops},{float(coh[i].real)!r},{float(coh[i].imag)!r},"
                f"{float(self.norm[i])!r},{float(self.energy[i])!r}"
            )
        write_text(sink, "\n".join(lines) + "\n")


def _offdiagonal_is_zero(matrix) -> bool:
    """True if every off-diagonal entry is exactly zero (no tolerance)."""
    return not np.any(matrix[~np.eye(matrix.shape[0], dtype=bool)])


class _HamiltonianAction:
    """Matrix-free application of the assembled Hamiltonian on a state tensor.

    Exactly diagonal operators take fast paths: a diagonal H_S is folded
    into the oscillator diagonal, and a mode whose coupling V is diagonal
    applies g * v_s * sqrt(n) as one precomputed coefficient array on slice
    views.  The test is for exact zeros, so any nonzero off-diagonal entry,
    however small, keeps the general path (``h_s`` and the mode's ``v`` set).
    """

    def __init__(self, model: DiscreteModel, trunc: FockTruncation):
        modes = _model_modes(model)
        if len(trunc.caps) != len(modes):
            raise ValidationError(
                f"truncation has {len(trunc.caps)} caps but the model has "
                f"{len(modes)} modes"
            )
        self.caps = trunc.caps
        self.shape = (model.system.dim,) + tuple(c + 1 for c in self.caps)
        ndim = len(self.shape)
        # total oscillator-energy diagonal, broadcast over the full tensor
        diag = np.zeros(self.shape[1:])
        for k, (omega, _, _) in enumerate(modes):
            occ = np.arange(self.caps[k] + 1, dtype=float)
            diag = diag + omega * occ.reshape(
                (1,) * k + (-1,) + (1,) * (len(modes) - k - 1)
            )
        diag = diag[np.newaxis, ...]
        h_s = model.system.h_s
        if _offdiagonal_is_zero(h_s):
            self.h_s = None
            diag = diag + h_s.diagonal().reshape((-1,) + (1,) * (ndim - 1))
        else:
            self.h_s = h_s
        self.diag = diag

        # per mode with g != 0: the slices of levels n and n+1 along its axis,
        # the coefficient of g (a + a^dag), V (None when folded into the
        # coefficient) and a view of one shared scratch buffer for products
        scratch = np.empty(math.prod(self.shape), dtype=complex)
        self.ladder = []
        for k, (_, g, ci) in enumerate(modes):
            if g == 0.0:
                continue
            ax = 1 + k
            lo = (slice(None),) * ax + (slice(None, -1),)
            hi = (slice(None),) * ax + (slice(1, None),)
            coef = g * np.sqrt(np.arange(1.0, self.caps[k] + 1.0)).reshape(
                (-1,) + (1,) * (ndim - 1 - ax)
            )
            v = model.system.couplings[ci][1]
            if _offdiagonal_is_zero(v):
                coef = coef * v.diagonal().reshape((-1,) + (1,) * (ndim - 1))
                v = None
            tmp_shape = self.shape[:ax] + (self.caps[k],) + self.shape[ax + 1 :]
            tmp = scratch[: math.prod(tmp_shape)].reshape(tmp_shape)
            self.ladder.append((lo, hi, coef, v, tmp))

    def __call__(self, psi):
        if self.h_s is None:
            out = self.diag * psi
        else:
            out = np.tensordot(self.h_s, psi, axes=(1, 0))
            out += self.diag * psi
        for lo, hi, coef, v, tmp in self.ladder:
            src = psi if v is None else np.tensordot(v, psi, axes=(1, 0))
            np.multiply(coef, src[hi], out=tmp)
            out[lo] += tmp  # annihilation: sqrt(n+1) from level n+1
            np.multiply(coef, src[lo], out=tmp)
            out[hi] += tmp  # creation: sqrt(n) from level n-1
        return out


@dataclass(frozen=True)
class _KrylovSteps:
    """States from one ``_lanczos_expm_apply`` call: the rows of coeffs @ basis."""

    coeffs: np.ndarray  # (steps, k)
    basis: np.ndarray  # (k, D) orthonormal Lanczos vectors
    energies: np.ndarray  # <H> of each state, from the projected Hamiltonian
    halvings: int  # times the step was halved; each state is one step / 2**halvings
    max_error: float  # largest accepted error estimate

    def state(self, i, shape):
        return (self.coeffs[i] @ self.basis).reshape(shape)


def _lanczos_expm_apply(apply_h, psi, dt_rad, krylov_dim, tol, max_steps, halvings):
    """exp(-i*m*dt_rad*H) psi for m = 1, 2, ... from one Lanczos projection.

    Steps are taken while Saad's a-posteriori estimate
    |beta_k| * |e_k^T exp(-i*m*dt_rad*T_k) e_1| stays at or below ``tol``,
    at most ``max_steps`` of them.  If even m = 1 fails, the same projection
    is evaluated at dt_rad/2, dt_rad/4, ..., at most ``halvings`` times, and
    the one state at the largest step that passes is returned.
    """
    flat = psi.reshape(-1)
    nrm = np.linalg.norm(flat)
    basis = np.empty((krylov_dim, flat.size), dtype=complex)
    basis[0] = flat / nrm
    alphas, betas = [], []
    for j in range(krylov_dim):
        w = apply_h(basis[j].reshape(psi.shape)).reshape(-1)
        alpha = float(np.real(np.vdot(basis[j], w)))
        alphas.append(alpha)
        w -= alpha * basis[j]
        if j > 0:
            w -= betas[j - 1] * basis[j - 1]
        # full re-orthogonalization keeps the small projection accurate;
        # conjugating w instead of the basis avoids copying the basis
        done = basis[: j + 1]
        w -= (w.conj() @ done.T).conj() @ done
        beta = float(np.linalg.norm(w))
        betas.append(beta)
        if j + 1 == krylov_dim or beta < 1e-14 * nrm:
            break
        basis[j + 1] = w / beta

    k = len(alphas)
    beta_k = betas[-1] if k == krylov_dim else 0.0  # an invariant subspace is exact
    t_k = np.diag(alphas) + np.diag(betas[: k - 1], 1) + np.diag(betas[: k - 1], -1)
    evals, evecs = np.linalg.eigh(t_k)
    tau, n, split = dt_rad, max_steps, 0
    while True:
        phases = np.exp(-1j * tau * np.outer(np.arange(1, n + 1), evals))
        ys = (phases * evecs[0, :].conj()) @ evecs.T  # row m-1: y at time m*tau
        errs = beta_k * np.abs(ys[:, -1])
        failed = ~(errs <= tol)
        n_ok = int(np.argmax(failed)) if failed.any() else n
        if n_ok:
            break
        if split == halvings:
            raise ConvergenceError(
                f"Lanczos step error {errs[0]:.3e} above tolerance {tol:.1e} "
                "after 3 step halvings; reduce dt or raise krylov_dim"
            )
        tau, n, split = tau / 2, 1, split + 1
    ys = ys[:n_ok]
    energies = nrm * nrm * np.einsum("mi,mi->m", ys.conj(), ys @ t_k).real
    return _KrylovSteps(
        coeffs=nrm * ys,
        basis=basis[:k],
        energies=energies,
        halvings=split,
        max_error=float(np.max(errs[:n_ok])),
    )


def propagate(
    model: DiscreteModel,
    trunc: FockTruncation,
    psi0_system,
    t_max_fs: float,
    dt_fs: float,
    krylov_dim: int = 16,
    tol: float = 1e-10,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> PropagationResult:
    """Lanczos propagation from (system state) x (bath vacuum) on a uniform grid.

    ``psi0_system`` is the normalized system amplitude vector; the full
    initial state is its product with every mode's ground state.  Output
    steps are uniform with the end point hit exactly.  Each Lanczos basis
    covers as many steps (up to ``MAX_STEPS_PER_BASIS``) as keep its local
    error estimate at or below ``tol``; a step it cannot cover takes the
    largest of dt/2, dt/4, dt/8 that passes on the same basis (dt/8 failing
    raises ``ConvergenceError``) and the rest follows in dyadic blocks.
    Output arrays above ``DEFAULT_MEMORY_CAP_BYTES`` raise
    ``ResourceLimitError`` before the Hamiltonian action is built.
    """
    d_s = model.system.dim
    dim = trunc.dimension(d_s)
    if dim > dimension_cap:
        raise ResourceLimitError(
            f"truncated space has dimension {dim}, above the cap {dimension_cap}"
        )
    psi0_system = np.asarray(psi0_system, dtype=complex)
    if psi0_system.shape != (d_s,):
        raise ValidationError(f"psi0 must have shape ({d_s},), got {psi0_system.shape}")
    if not abs(np.linalg.norm(psi0_system) - 1.0) <= 1e-8:  # NaN fails too
        raise ValidationError("psi0 must be finite and normalized")
    if not (t_max_fs > 0 and dt_fs > 0 and math.isfinite(float(t_max_fs) / float(dt_fs))):
        raise ValidationError(
            "t_max_fs and dt_fs must be positive with a finite step count t_max_fs / dt_fs"
        )
    if not isinstance(krylov_dim, (int, np.integer)) or krylov_dim < 2:
        raise ValidationError(f"krylov_dim must be an integer >= 2, got {krylov_dim!r}")
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be positive and finite, got {tol!r}")
    n_steps = max(1, int(math.ceil(t_max_fs / dt_fs - 1e-9)))
    # times, norm, energy (8 bytes each), coherence (16), populations (8 d_s)
    nbytes = (n_steps + 1) * (8 * d_s + 40)
    if nbytes > DEFAULT_MEMORY_CAP_BYTES:
        raise ResourceLimitError(
            f"{n_steps} output steps need {nbytes / 2**30:.3g} GiB, "
            f"above the cap of {DEFAULT_MEMORY_CAP_BYTES / 2**30:.3g} GiB"
        )

    action = _HamiltonianAction(model, trunc)
    psi = np.zeros(action.shape, dtype=complex)
    psi[(slice(None),) + (0,) * len(action.caps)] = psi0_system

    dt = t_max_fs / n_steps
    dt_rad = dt * RAD_PER_FS_PER_CM1
    times = np.arange(n_steps + 1) * dt

    pops = np.empty((n_steps + 1, d_s))
    coh = {(0, 1): np.empty(n_steps + 1, dtype=complex)} if d_s >= 2 else {}
    norm = np.empty(n_steps + 1)
    energy = np.empty(n_steps + 1)

    def record(i, state, e):
        mat = state.reshape(d_s, -1)
        rho_diag = np.einsum("ib,ib->i", mat, mat.conj()).real
        pops[i] = rho_diag
        for (r, c), series in coh.items():
            series[i] = mat[r] @ mat[c].conj()
        norm[i] = np.linalg.norm(mat)
        energy[i] = e

    record(0, psi, float(np.real(np.vdot(psi, action(psi)))))
    # pos counts eighths of dt into the current output step; each call covers
    # the largest dyadic block starting there, several whole steps from pos 0
    done = pos = bases = halvings = 0
    max_error = 0.0
    while done < n_steps:
        block = pos & -pos or 8
        steps = _lanczos_expm_apply(
            action, psi, dt_rad / (8 // block), krylov_dim, tol,
            1 if pos else min(n_steps - done, MAX_STEPS_PER_BASIS), block.bit_length() - 1,
        )
        for m, e in enumerate(steps.energies):
            psi = steps.state(m, action.shape)
            pos = (pos + (block >> steps.halvings)) % 8
            if pos == 0:
                done += 1
                record(done, psi, float(e))
        bases += 1
        halvings += steps.halvings
        max_error = max(max_error, steps.max_error)

    return PropagationResult(
        times=times,
        populations=pops,
        coherences=coh,
        norm=norm,
        energy=energy,
        krylov_bases=bases,
        halvings=halvings,
        max_step_error=max_error,
    )


_SIGMA_Z = np.diag([1.0, -1.0])


def _pure_dephasing_violation(system: SystemSpec) -> str | None:
    """Why ``system`` is not a sigma_z-coupled qubit with diagonal h_s, or None."""
    if system.dim != 2:
        return "pure-dephasing form requires a two-level system"
    if len(system.couplings) != 1:
        return "pure-dephasing form requires exactly one coupling"
    _, v = system.couplings[0]
    if np.max(np.abs(v - _SIGMA_Z)) > 1e-10:
        return "pure-dephasing form requires v_sb = diag(1, -1)"
    scale = max(1.0, float(np.max(np.abs(system.h_s))))
    if abs(system.h_s[0, 1]) > 1e-10 * scale:
        return "pure-dephasing form requires a diagonal h_s"
    return None


def dephasing_gamma(model: DiscreteModel, times_fs) -> np.ndarray:
    """Decoherence exponent of the qubit pure-dephasing model, any mode count."""
    violation = _pure_dephasing_violation(model.system)
    if violation is not None:
        raise ValidationError(violation)
    modes = _model_modes(model)
    if any(w == 0.0 for w, _, _ in modes):
        raise ValidationError("dephasing exponent undefined for a zero-frequency mode")
    times = np.atleast_1d(np.asarray(times_fs, dtype=float))
    omegas = np.array([w for w, _, _ in modes])
    gs = np.array([g for _, g, _ in modes])
    # 8 ((g/omega) sin(omega t/2))^2: g/omega first, so a finite Gamma does
    # not underflow through omega^2, and no cancellation in 1 - cos(omega t)
    with np.errstate(all="ignore"):
        ratios = gs / omegas
        half_phases = np.outer(times, omegas * (0.5 * RAD_PER_FS_PER_CM1))
        amplitudes = ratios * np.sin(half_phases)
        gamma = 8.0 * np.einsum("tk,tk->t", amplitudes, amplitudes)
    if not np.all(np.isfinite(gamma)):
        raise ValidationError(
            "dephasing exponent is not finite: g/omega or omega*t is out of double range"
        )
    return gamma


def dephasing_gamma_continuum(kernel: NoiseKernel, times_fs, omega_max_cm1: float) -> np.ndarray:
    """Band-limited continuum dephasing exponent by refined quadrature.

    Gamma(t) = integral over [-omega_max, omega_max] of
    4 S(omega) (1 - cos(omega_rad t)) / omega^2, evaluated on the same
    midpoint grids as the correlation quadrature and refined by doubling.
    """
    times = np.atleast_1d(np.asarray(times_fs, dtype=float))

    def level(n_points):
        freqs = midpoint_frequencies(omega_max_cm1, n_points)
        weights = 4.0 * kernel.evaluate(freqs) / (freqs * freqs)
        transform = fourier_midpoint_sum(weights, omega_max_cm1, times)
        total = 2.0 * omega_max_cm1 / n_points * float(np.sum(weights))
        return total - transform.real

    return refine_midpoint(level, "dephasing")


@dataclass(frozen=True)
class ConvergenceReport:
    """Observable distances across a tolerance sweep, loosest tol first."""

    tols: tuple
    mode_counts: tuple
    observable: str  # "dephasing_coherence" or "populations"
    times: np.ndarray
    series: tuple  # one observable array per tol
    distances: tuple  # sup-norm distance between successive series
    slack: float  # SWEEP_SLACK
    monotone_within_slack: bool


def convergence_study(
    kernel: NoiseKernel,
    system: SystemSpec,
    tol_sweep,
    grid: FdrGrid,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> ConvergenceReport:
    """Discretize at each tolerance and compare the resulting observables.

    Tolerances are processed loosest to tightest; successive observable
    distances must not grow by more than ``SWEEP_SLACK`` (fractional) for
    the report to pass.  Qubit models with a single diagonal coupling use
    the closed-form dephasing coherence (any mode count); anything else is
    propagated exactly, with ``propagate``'s default Krylov dimension and
    tolerance, and compared on site populations.  Each discretization has
    the default memory cap.
    """
    tols = tuple(sorted({float(t) for t in tol_sweep}, reverse=True))
    if not tols:
        raise ValidationError("tolerance sweep must not be empty")

    labels = sorted({label for label, _ in system.couplings})
    dephasing = _pure_dephasing_violation(system) is None
    series, mode_counts = [], []
    for tol in tols:
        bath = discretize_bath(kernel, grid, tol)
        model = build_model(system, [(label, bath) for label in labels])
        if dephasing:
            obs = np.exp(-dephasing_gamma(model, grid.times))
        else:
            trunc = FockTruncation.for_model(model)
            dt = grid.t_max_fs / max(grid.n_time - 1, 1)
            psi0 = np.eye(system.dim)[0]  # system basis state 0, as a vector
            result = propagate(model, trunc, psi0, grid.t_max_fs, dt, dimension_cap=dimension_cap)
            obs = result.populations.reshape(result.populations.shape[0], -1)
        series.append(np.asarray(obs))
        mode_counts.append(model.total_mode_count)

    distances = tuple(
        float(np.max(np.abs(series[i + 1] - series[i]))) for i in range(len(series) - 1)
    )
    monotone = all(
        distances[i + 1] <= (1.0 + SWEEP_SLACK) * distances[i] + 1e-12
        for i in range(len(distances) - 1)
    )
    return ConvergenceReport(
        tols=tols,
        mode_counts=tuple(mode_counts),
        observable="dephasing_coherence" if dephasing else "populations",
        times=grid.times,
        series=tuple(series),
        distances=distances,
        slack=SWEEP_SLACK,
        monotone_within_slack=monotone,
    )
