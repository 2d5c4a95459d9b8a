"""Desk-scale exact dynamics for validating discretized environments.

``propagate`` integrates the Schroedinger equation for a DiscreteModel in
a truncated number-state space with Lanczos exponentials, never
materializing the Hamiltonian: each mode's ladder operators act on the
flattened state as two contiguous products shifted by that mode's stride,
and the system operators as one matmul.  The products run over one block
of ``ACTION_BLOCK`` to 2 * ``ACTION_BLOCK`` entries at a time (the whole
state when it is smaller; the constant is read when an action is built),
so each block of the output takes all of them while it stays in cache.
One Lanczos basis serves as many uniform output steps as its a-posteriori
error estimate allows, and grows only until that estimate passes at the
last step it is asked for.  The bath always starts in its vacuum; at finite
temperature the thermal occupation is already baked into the couplings and
signed frequencies of the bath model.

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

from ._schema import is_integer
from .discretize import (
    DEFAULT_MEMORY_CAP_BYTES,
    FdrGrid,
    check_memory,
    check_tol,
    discretize_bath,
)
from .errors import ConvergenceError, ValidationError
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

# Output steps taken from one Lanczos basis at most.  It bounds the table of
# projected coefficients built per basis; a basis that could serve longer is
# rebuilt, which adds at most 1/64 of a basis per step.
MAX_STEPS_PER_BASIS = 64
# the largest occupation cap FockTruncation.for_model gives a mode
MAX_FOCK_CAP = 10
# a sweep passes while each observable distance is at most (1 + SWEEP_SLACK)
# times the one before it
SWEEP_SLACK = 0.2
# entries per block of the flat state in the Hamiltonian action (256 KiB of
# complex); read when an action is built
ACTION_BLOCK = 16384


@dataclass(frozen=True)
class FockTruncation:
    """Per-mode occupation caps; mode k keeps levels 0..caps[k]."""

    caps: tuple

    def __post_init__(self):
        if not all(is_integer(c) and c >= 1 for c in self.caps):
            raise ValidationError(f"all occupation caps must be integers >= 1, got {self.caps}")
        object.__setattr__(self, "caps", tuple(int(c) for c in self.caps))

    @classmethod
    def for_model(cls, model: DiscreteModel) -> "FockTruncation":
        """Displaced-oscillator heuristic: cap ~ 8 (g/omega)^2 + 3, at most MAX_FOCK_CAP."""
        caps = []
        for omega, g in zip(model.mode_omegas.tolist(), model.mode_g.tolist()):
            # a coupled omega = 0 mode is displaced without bound: saturated
            ratio = abs(g / omega) if omega != 0.0 else float(g != 0.0)
            # past |g/omega| = 1 the cap is saturated; clipping there keeps the square finite
            caps.append(min(MAX_FOCK_CAP, int(math.ceil(8.0 * min(ratio, 1.0) ** 2)) + 3))
        return cls(caps=tuple(caps))

    def dimension(self, system_dim: int) -> int:
        return system_dim * math.prod(c + 1 for c in self.caps)


@dataclass(frozen=True)
class PropagationResult:
    """Observable time series from one propagation run."""

    times: np.ndarray
    populations: np.ndarray  # (n_steps+1, d_s)
    coherences: dict  # {(0, 1): complex series}, empty for a one-level system
    norm: np.ndarray
    energy: np.ndarray  # <H> in cm^-1; each state has its Lanczos basis's start <H>, exact in T
    krylov_bases: int  # Lanczos bases built; a rejected step reuses its basis
    halvings: int  # times a step was halved because its basis could not cover it
    max_step_error: float  # largest accepted a-posteriori error estimate


def _is_real_diagonal(matrix) -> bool:
    """True if every off-diagonal entry and every imaginary part is exactly zero."""
    off = matrix[~np.eye(matrix.shape[0], dtype=bool)]
    return not (np.any(off) or np.any(matrix.diagonal().imag))


class _HamiltonianAction:
    """Matrix-free application of the assembled Hamiltonian on a state tensor.

    Each mode's ladder operators act on the flattened state as two
    contiguous products shifted by the mode's stride s: a moves level n+1
    onto level n through ``out[i] += c[i] * psi[i + s]`` and a^dag moves
    level n onto n+1 through ``out[i] += c[i - s] * psi[i - s]``.  The
    float64 coefficient c of length D - s holds g * sqrt(n+1) on each level
    n below the cap and 0 on the cap, so no product crosses into the next
    block of that axis.

    The flat state is cut into max(1, D // ``ACTION_BLOCK``) near-equal
    blocks, planned when the action is built, which is when ``ACTION_BLOCK``
    is read.  After the one matmul of a non-diagonal H_S, each block of the
    output takes the diagonal and every ladder product in turn while it
    stays in cache; an output entry gets the same operations in the same
    order whatever the blocks, so the result does not depend on them.

    Exactly diagonal operators take fast paths: an H_S, or a coupling V,
    that is diagonal with an exactly real diagonal is folded into the
    float64 diagonal or into c as g * sqrt(n+1) * v_s.  The test is for
    exact zeros, so any nonzero off-diagonal or imaginary entry, however
    small, keeps the general path (``h_s`` or the pass's V set), which
    applies the system operator as one matmul on the (d_s, D/d_s) view.
    V @ psi is formed once per run of modes with the same V, into one kept
    buffer, and the blocks take that run's products before the next.
    """

    def __init__(self, model: DiscreteModel, trunc: FockTruncation):
        n_modes = model.total_mode_count
        if len(trunc.caps) != n_modes:
            raise ValidationError(
                f"truncation has {len(trunc.caps)} caps but the model has {n_modes} modes"
            )
        self.caps = trunc.caps
        self.shape = (model.system.dim,) + tuple(c + 1 for c in self.caps)
        ndim = len(self.shape)
        # total oscillator energy, plus a folded H_S, as one flat float64 array
        diag = np.zeros((1,) + self.shape[1:])
        for k, omega in enumerate(model.mode_omegas):
            occ = np.arange(self.caps[k] + 1, dtype=float)
            diag = diag + omega * occ.reshape((1,) * (k + 1) + (-1,) + (1,) * (n_modes - k - 1))
        h_s = model.system.h_s
        self.h_s = None if _is_real_diagonal(h_s) else h_s
        if self.h_s is None:
            diag = diag + h_s.diagonal().real.reshape((-1,) + (1,) * (ndim - 1))
        self.diag = np.broadcast_to(diag, self.shape).reshape(-1)

        # passes over the blocks, one per run of modes with g != 0 and the same
        # V (modes are contiguous per coupling), each (V or None when folded,
        # [(stride, coefficient of g (a + a^dag)), ...]); the first pass, empty
        # without modes, also applies the diagonal
        d_s = self.shape[0]
        self.passes = []
        for k, (g, ci) in enumerate(zip(model.mode_g, model.mode_coupling)):
            if g == 0.0:
                continue
            stride = math.prod(self.shape[2 + k :])
            # sqrt(n+1) on levels 0..cap-1 and 0 on the cap: no shift leaves the block
            levels = np.append(g * np.sqrt(np.arange(1.0, self.caps[k] + 1.0)), 0.0)
            coef = np.empty((d_s, math.prod(self.shape[1 : 1 + k]), levels.size, stride))
            coef[...] = levels[:, np.newaxis]
            v = model.system.couplings[ci][1]
            if _is_real_diagonal(v):
                coef *= v.diagonal().real.reshape(-1, 1, 1, 1)
                v = None
            if not self.passes or v is not self.passes[-1][0]:
                self.passes.append((v, []))
            self.passes[-1][1].append((stride, coef.reshape(-1)[:-stride]))
        self.passes = self.passes or [(None, [])]
        general = any(v is not None for v, _ in self.passes)
        self.v_psi = np.empty((d_s, self.diag.size // d_s), dtype=complex) if general else None

        # per block: its slice, diagonal, scratch and each pass's products, one
        # per shift clipped to the block: (coefficient, source, output, scratch)
        size = self.diag.size
        n_blocks = max(1, size // ACTION_BLOCK)
        edges = [size * i // n_blocks for i in range(n_blocks + 1)]
        scratch = np.empty(-(-size // n_blocks), dtype=complex)
        self.blocks = []
        for a, b in zip(edges, edges[1:]):
            per_pass = []
            for _, terms in self.passes:
                products = []
                for s, coef in terms:
                    hi = min(b, size - s)  # annihilation onto out[a:hi]
                    if a < hi:
                        products.append(
                            (coef[a:hi], slice(a + s, hi + s), slice(a, hi), scratch[: hi - a])
                        )
                    lo = max(a, s)  # creation onto out[lo:b]
                    if lo < b:
                        products.append(
                            (coef[lo - s : b - s], slice(lo - s, b - s), slice(lo, b),
                             scratch[: b - lo])
                        )
                per_pass.append(products)
            self.blocks.append((slice(a, b), self.diag[a:b], scratch[: b - a], per_pass))

    def __call__(self, psi):
        d_s = self.shape[0]
        if self.h_s is None:
            out = np.empty(self.shape, dtype=complex)
        else:
            out = (self.h_s @ psi.reshape(d_s, -1)).reshape(self.shape)
        flat, flat_psi = out.reshape(-1), psi.reshape(-1)
        for p, (v, _) in enumerate(self.passes):
            if v is None:
                src = flat_psi
            else:
                src = np.matmul(v, psi.reshape(d_s, -1), out=self.v_psi).reshape(-1)
            for block, diag, scratch, per_pass in self.blocks:
                if p == 0 and self.h_s is None:
                    np.multiply(diag, flat_psi[block], out=flat[block])
                elif p == 0:
                    np.multiply(diag, flat_psi[block], out=scratch)
                    dest = flat[block]
                    np.add(dest, scratch, out=dest)
                for coef, src_slice, out_slice, tmp in per_pass[p]:
                    np.multiply(coef, src[src_slice], out=tmp)
                    dest = flat[out_slice]
                    np.add(dest, tmp, out=dest)
        return out


@dataclass(frozen=True)
class _KrylovSteps:
    """States from one ``_lanczos_expm_apply`` call: the rows of coeffs @ basis."""

    coeffs: np.ndarray  # (steps, k)
    basis: np.ndarray  # (k, D) orthonormal Lanczos vectors
    energy: float  # <H> of the start state and so of every state: exp(-i tau T) commutes with T
    halvings: int  # times the step was halved; each state is one step / 2**halvings
    max_error: float  # largest accepted error estimate

    def state(self, i, shape):
        return (self.coeffs[i] @ self.basis).reshape(shape)


def _lanczos_expm_apply(apply_h, psi, dt_rad, krylov_dim, tol, max_steps, halvings):
    """exp(-i*m*dt_rad*H) psi for m = 1, 2, ... from one Lanczos projection.

    Saad's a-posteriori estimate of step m*tau on the basis T_k is
    beta_k * |e_k^T exp(-i*m*tau*T_k) e_1|, with beta_k = 0 once the
    recursion breaks down (an invariant subspace, whose projection is
    exact).  The basis grows one vector at a time until the estimate passes
    at the call's last step, m = ``max_steps``, or until it has
    ``krylov_dim`` vectors.  The leading steps whose estimate stays at or
    below ``tol`` are taken.  If even m = 1 fails, the same projection is
    evaluated at dt_rad/2, dt_rad/4, ..., at most ``halvings`` times, and
    the one state at the largest step that passes is returned.
    """
    flat = psi.reshape(-1)
    nrm = np.linalg.norm(flat)
    basis = np.empty((krylov_dim, flat.size), dtype=complex)
    # each vector is normalized by one real multiply of both parts by 1/norm: numpy
    # divides a complex by a real as (a + b*0) * (1/norm), so only an exact zero's
    # sign can differ from the division
    np.multiply(flat.view(float), 1.0 / nrm, out=basis[0].view(float))
    t = np.zeros((krylov_dim, krylov_dim))  # the projection T, filled as the basis grows

    def estimate(tau, n):
        """Rows y_m = exp(-i*m*tau*T_k) e_1, m = 1..n, and their error estimates."""
        phases = np.exp(-1j * tau * np.outer(np.arange(1, n + 1), evals))
        ys = (phases * evecs[0, :].conj()) @ evecs.T
        return ys, beta_k * np.abs(ys[:, -1])

    for j in range(krylov_dim):
        w = apply_h(basis[j].reshape(psi.shape)).reshape(-1)
        t[j, j] = float(np.real(np.vdot(basis[j], w)))
        # the three-term recurrence as one product with T's filled row j, then
        # full re-orthogonalization: the second pass keeps large energy offsets
        # out of the span (conjugating w, not the basis, avoids a basis copy)
        lo = max(j - 1, 0)
        w -= t[j, lo : j + 1] @ basis[lo : j + 1]
        done = basis[: j + 1]
        w -= (w.conj() @ done.T).conj() @ done
        beta = float(np.linalg.norm(w))
        beta_k = 0.0 if beta < 1e-14 * nrm else beta
        evals, evecs = np.linalg.eigh(t[: j + 1, : j + 1])
        if j + 1 == krylov_dim or estimate(max_steps * dt_rad, 1)[1][0] <= tol:
            break
        t[j, j + 1] = t[j + 1, j] = beta
        np.multiply(w.view(float), 1.0 / beta, out=basis[j + 1].view(float))

    for split in range(halvings + 1):
        ys, errs = estimate(dt_rad / 2**split, 1 if split else max_steps)
        failed = ~(errs <= tol)
        n_ok = int(np.argmax(failed)) if failed.any() else len(errs)
        if n_ok:
            break
    else:
        raise ConvergenceError(
            f"Lanczos step error {errs[0]:.3e} above tolerance {tol:.1e} "
            "after 3 step halvings; reduce dt or raise krylov_dim"
        )
    return _KrylovSteps(
        coeffs=nrm * ys[:n_ok],
        basis=basis[: j + 1],
        energy=float(nrm * nrm * t[0, 0]),
        halvings=split,
        max_error=float(np.max(errs[:n_ok])),
    )


def propagate(
    model: DiscreteModel,
    trunc: FockTruncation,
    psi0_system,
    t_max_fs: float,
    dt_fs: float,
    krylov_dim: int = 32,
    tol: float = 1e-10,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
) -> PropagationResult:
    """Lanczos propagation from (system state) x (bath vacuum) on a uniform grid.

    ``psi0_system`` is the normalized system amplitude vector; the full
    initial state is its product with every mode's ground state.  Output
    steps are uniform with the end point hit exactly.  A Lanczos basis
    grows until its local error estimate is at or below ``tol`` at its
    call's last step (up to ``MAX_STEPS_PER_BASIS`` ahead), at most to
    ``krylov_dim`` vectors, and serves the leading steps that pass.  A step
    the largest basis cannot cover takes the largest of dt/2, dt/4, dt/8
    that passes on that basis (dt/8 failing raises ``ConvergenceError``)
    and the rest follows in dyadic blocks.  Every state a basis serves is
    recorded with one energy, its start state's <H>, exact in the projection.
    Before the Hamiltonian action is built, (krylov_dim + 8) * 16 * D +
    8 * M * D + (n_steps + 1) * (8 * d_s + 40) bytes, D =
    ``trunc.dimension(d_s)`` and M = ``model.total_mode_count``, are checked
    against ``memory_cap_bytes`` (``ResourceLimitError`` above it).  Besides
    the basis, that covers the action's float64 diagonal and coefficients,
    its output, at most one V @ psi and its scratch of one block.  Then a
    bound B = |H_S|_F + sum_k (|omega_k| cap_k + 2 |g_k| sqrt(cap_k) |V_k|_F)
    on |H| must have a finite square (``ValidationError`` otherwise), so
    that no Lanczos vector's squared norm overflows.
    """
    d_s = model.system.dim
    psi0_system = np.asarray(psi0_system, dtype=complex)
    if psi0_system.shape != (d_s,):
        raise ValidationError(f"psi0 must have shape ({d_s},), got {psi0_system.shape}")
    if not abs(np.linalg.norm(psi0_system) - 1.0) <= 1e-8:  # NaN fails too
        raise ValidationError("psi0 must be finite and normalized")
    if not (t_max_fs > 0 and dt_fs > 0 and math.isfinite(float(t_max_fs) / float(dt_fs))):
        raise ValidationError(
            "t_max_fs and dt_fs must be positive with a finite step count t_max_fs / dt_fs"
        )
    if not is_integer(krylov_dim) or krylov_dim < 2:
        raise ValidationError(f"krylov_dim must be an integer >= 2, got {krylov_dim!r}")
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be positive and finite, got {tol!r}")
    n_steps = max(1, int(math.ceil(t_max_fs / dt_fs - 1e-9)))
    # basis and work states, the action's float64 ladder coefficients (one per
    # mode; measured peaks: krylov_dim + 6 to 8 states at 4 modes), then the record
    per_state = (int(krylov_dim) + 8) * 16 + 8 * model.total_mode_count
    nbytes = per_state * trunc.dimension(d_s) + (n_steps + 1) * (8 * d_s + 40)
    check_memory(nbytes, memory_cap_bytes, "the Krylov basis and output steps; use fewer modes")
    # B >= |H|; |g| * |V| comes first so that a zero V never meets an overflowed |g|
    with np.errstate(over="ignore"):
        v_norms = [np.linalg.norm(v) for _, v in model.system.couplings]
        bound = np.linalg.norm(model.system.h_s) + sum(
            abs(w) * c + abs(g) * v_norms[ci] * 2.0 * math.sqrt(c)
            for w, g, ci, c in zip(model.mode_omegas, model.mode_g, model.mode_coupling, trunc.caps)
        )
        squared = bound * bound
    if not np.isfinite(squared):
        raise ValidationError(f"the Hamiltonian's norm bound {bound:.3e} overflows when squared")

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
        for m in range(len(steps.coeffs)):
            psi = steps.state(m, action.shape)
            pos = (pos + (block >> steps.halvings)) % 8
            if pos == 0:
                done += 1
                record(done, psi, steps.energy)
        bases += 1
        halvings += steps.halvings
        max_error = max(max_error, steps.max_error)
        del steps  # one basis at a time: free this one before the next is built

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
    omegas, gs = model.mode_omegas, model.mode_g
    if np.any(omegas == 0.0):
        raise ValidationError("dephasing exponent undefined for a zero-frequency mode")
    times = np.atleast_1d(np.asarray(times_fs, dtype=float))
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
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
) -> ConvergenceReport:
    """Discretize at each tolerance and compare the resulting observables.

    Tolerances, each in (0, 1), are processed loosest to tightest; successive
    nonzero observable distances must not grow by more than ``SWEEP_SLACK``
    (fractional) for the report to pass, and a zero distance, from two
    tols giving the same bath, is skipped.  Qubit models with a single
    diagonal coupling use the closed-form dephasing coherence (any mode count); anything else is
    propagated exactly, with ``propagate``'s default tolerance and largest
    Krylov basis (32 vectors, each basis stopping once its call's last step
    passes), and compared on site populations.
    Every tol and the grid are checked before any discretization, and
    ``memory_cap_bytes`` caps every discretization and every propagation.
    """
    tols = tuple(sorted({float(t) for t in tol_sweep}, reverse=True))
    if not tols:
        raise ValidationError("tolerance sweep must not be empty")
    for tol in tols:
        check_tol(tol)

    labels = sorted({label for label, _ in system.couplings})
    dephasing = _pure_dephasing_violation(system) is None
    series, mode_counts = [], []
    for tol in tols:
        bath = discretize_bath(kernel, grid, tol, memory_cap_bytes)
        model = build_model(system, [(label, bath) for label in labels])
        if dephasing:
            obs = np.exp(-dephasing_gamma(model, grid.times))
        else:
            trunc = FockTruncation.for_model(model)
            dt = grid.t_max_fs / (grid.n_time - 1)
            psi0 = np.eye(system.dim)[0]  # system basis state 0, as a vector
            obs = propagate(
                model, trunc, psi0, grid.t_max_fs, dt, memory_cap_bytes=memory_cap_bytes
            ).populations
        series.append(obs)
        mode_counts.append(model.total_mode_count)

    distances = tuple(
        float(np.max(np.abs(series[i + 1] - series[i]))) for i in range(len(series) - 1)
    )
    # a zero distance (two tols giving the same bath) carries no trend
    trend = [d for d in distances if d > 0.0]
    monotone = all(b <= (1.0 + SWEEP_SLACK) * a + 1e-12 for a, b in zip(trend, trend[1:]))
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
