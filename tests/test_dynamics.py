import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from conftest import materialize

import bathkit.dynamics as dynamics
from bathkit.discretize import BathDiagnostics, BathModel, FdrGrid, discretize_bath
from bathkit.dynamics import (
    FockTruncation,
    PropagationResult,
    _HamiltonianAction,
    _pure_dephasing_violation,
    convergence_study,
    dephasing_gamma,
    dephasing_gamma_continuum,
    propagate,
)
from bathkit.errors import ResourceLimitError, ValidationError
from bathkit.hamiltonian import SystemSpec, build_model
from bathkit.specdens import Debye, NoiseKernel, Temperature
from bathkit.units import RAD_PER_FS_PER_CM1

SIGMA_Z = [[1.0, 0.0], [0.0, -1.0]]
SIGMA_X = [[0.0, 1.0], [1.0, 0.0]]
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def synthetic_bath(omegas, gs):
    """Hand-built bath model for dynamics tests; only omegas and g matter."""
    omegas = np.asarray(omegas, dtype=float)
    gs = np.asarray(gs, dtype=float)
    z = np.where(gs > 0.0, gs**2, 1.0)  # z must be strictly positive
    diag = BathDiagnostics(
        id_rank=omegas.size,
        mode_count=omegas.size,
        max_abs_error=0.0,
        mean_abs_error=0.0,
        rel_error=0.0,
        nnls_iterations=0,
        nnls_residual_norm=0.0,
        nnls_converged=True,
        nnls_dual_tolerance=0.0,
        nnls_max_dual_inactive=0.0,
        nnls_max_abs_dual_active=0.0,
    )
    return BathModel(
        omegas=omegas,
        z=z,
        g=gs,
        temperature=Temperature.zero(),
        sd=Debye(lam=35.0, gamma=106.1),
        t_max_fs=1000.0,
        omega_max_cm1=600.0,
        tol=1e-2,
        diagnostics=diag,
    )


def dephasing_model(omegas, gs):
    system = SystemSpec(
        h_s=[[50.0, 0.0], [0.0, -50.0]], couplings=(("b", SIGMA_Z),)
    )
    return build_model(system, [("b", synthetic_bath(omegas, gs))])


# --- Hamiltonian action -----------------------------------------------------


def test_materialized_hamiltonian_is_hermitian():
    model = dephasing_model([120.0, -80.0], [25.0, 15.0])
    action = _HamiltonianAction(model, FockTruncation(caps=(3, 3)))
    h = materialize(action)
    dev = np.max(np.abs(h - h.conj().T))
    assert dev <= 1e-10 * np.max(np.abs(h))


def test_materialized_matches_explicit_construction():
    # independent dense construction from Kronecker products
    model = dephasing_model([90.0], [12.0])
    cap = 4
    action = _HamiltonianAction(model, FockTruncation(caps=(cap,)))
    h = materialize(action)
    n = cap + 1
    a = np.diag(np.sqrt(np.arange(1.0, n)), k=1)
    num = np.diag(np.arange(float(n)))
    h_expl = (
        np.kron(np.array([[50.0, 0], [0, -50.0]]), np.eye(n))
        + 90.0 * np.kron(np.eye(2), num)
        + 12.0 * np.kron(np.array(SIGMA_Z), a + a.T)
    )
    np.testing.assert_allclose(h, h_expl, atol=1e-12)


def with_offdiagonal(matrix, eps):
    m = np.array(matrix, dtype=complex)
    m[0, 1] = m[1, 0] = eps
    return m


def test_diagonal_fast_paths_match_general_path():
    # diagonal H_S, two diagonal couplings and a g = 0 mode take the fast
    # paths; an off-diagonal 1e-300 forces the general path for the same H
    h_s = np.diag([50.0, -30.0])
    v2 = np.diag([0.3, -0.7])
    baths = [
        ("b", synthetic_bath([120.0, -80.0, 60.0], [25.0, 15.0, 0.0])),
        ("c", synthetic_bath([95.0], [10.0])),
    ]
    trunc = FockTruncation(caps=(3, 2, 2, 3))
    fast_sys = SystemSpec(h_s=h_s, couplings=(("b", SIGMA_Z), ("c", v2)))
    tiny_h_s = with_offdiagonal(h_s, 1e-300)
    tiny_z = with_offdiagonal(SIGMA_Z, 1e-300)
    general_sys = SystemSpec(
        h_s=tiny_h_s, couplings=(("b", tiny_z), ("c", with_offdiagonal(v2, 1e-300)))
    )
    # the dephasing predicate tolerates 1e-10; the fast paths must not
    assert _pure_dephasing_violation(SystemSpec(h_s=tiny_h_s, couplings=(("b", tiny_z),))) is None
    fast = _HamiltonianAction(build_model(fast_sys, baths), trunc)
    general = _HamiltonianAction(build_model(general_sys, baths), trunc)
    assert fast.h_s is None and all(v is None for _, _, _, v, _ in fast.ladder)
    assert general.h_s is not None and all(v is not None for _, _, _, v, _ in general.ladder)
    assert len(fast.ladder) == 3  # the g = 0 mode is skipped
    h_fast, h_general = materialize(fast), materialize(general)
    np.testing.assert_allclose(h_fast, h_general, rtol=0.0, atol=1e-12)
    assert np.max(np.abs(h_fast - h_fast.conj().T)) == 0.0


def test_mixed_paths_match_kronecker_construction():
    # diagonal H_S folded, sigma_x coupling on the general path
    n = 4
    model = build_model(
        SystemSpec(h_s=np.diag([40.0, -20.0]), couplings=(("b", SIGMA_X),)),
        [("b", synthetic_bath([-70.0], [18.0]))],
    )
    action = _HamiltonianAction(model, FockTruncation(caps=(n - 1,)))
    assert action.h_s is None and action.ladder[0][3] is not None
    a = np.diag(np.sqrt(np.arange(1.0, n)), k=1)
    h_expl = (
        np.kron(np.diag([40.0, -20.0]), np.eye(n))
        - 70.0 * np.kron(np.eye(2), np.diag(np.arange(float(n))))
        + 18.0 * np.kron(np.array(SIGMA_X), a + a.T)
    )
    np.testing.assert_allclose(materialize(action), h_expl, atol=1e-12)


# --- propagate ---------------------------------------------------------------


def test_decoupled_limit_is_bare_rabi():
    # g = 0: populations follow the closed-form two-level Rabi formula
    delta = 40.0  # cm^-1 off-diagonal coupling
    system = SystemSpec(h_s=[[0.0, delta], [delta, 0.0]], couplings=(("b", SIGMA_Z),))
    model = build_model(system, [("b", synthetic_bath([100.0], [0.0]))])
    res = propagate(
        model,
        FockTruncation(caps=(1,)),
        np.array([1.0, 0.0], dtype=complex),
        t_max_fs=400.0,
        dt_fs=1.0,
        krylov_dim=8,
        tol=1e-12,
    )
    theta = delta * RAD_PER_FS_PER_CM1 * res.times
    np.testing.assert_allclose(res.populations[:, 0], np.cos(theta) ** 2, atol=1e-9)
    np.testing.assert_allclose(res.populations[:, 1], np.sin(theta) ** 2, atol=1e-9)


def test_unitarity_resonant_mode():
    gap = 200.0
    system = SystemSpec(
        h_s=[[gap / 2, 0.0], [0.0, -gap / 2]],
        couplings=(("b", [[0.0, 1.0], [1.0, 0.0]]),),
    )
    model = build_model(system, [("b", synthetic_bath([gap], [30.0]))])
    res = propagate(
        model,
        FockTruncation(caps=(12,)),
        np.array([1.0, 0.0], dtype=complex),
        t_max_fs=1000.0,
        dt_fs=1.0,
        krylov_dim=12,
        tol=1e-10,
    )
    assert np.max(np.abs(res.norm - 1.0)) <= 1e-8
    drift = np.max(np.abs(res.energy - res.energy[0]))
    assert drift <= 1e-6 * abs(res.energy[0]) + 1e-6


def test_negative_frequency_norm_conserved():
    model = dephasing_model([-130.0, 60.0], [20.0, 10.0])
    res = propagate(
        model,
        FockTruncation(caps=(8, 8)),
        PLUS,
        t_max_fs=500.0,
        dt_fs=2.0,
        krylov_dim=10,
        tol=1e-10,
    )
    assert np.max(np.abs(res.norm - 1.0)) <= 1e-8


@pytest.mark.parametrize(
    "omega, g", [(1e-200, 1.0), (-1e-200, 1.0), (1e-300, 1e10)],
    ids=["square-overflows", "negative-omega", "ratio-overflows"],
)
def test_fock_caps_saturate_without_overflow(omega, g):
    model = dephasing_model([omega, 100.0, 100.0, 100.0], [g, 0.0, 10.0, 50.0])
    assert FockTruncation.for_model(model).caps == (dynamics.MAX_FOCK_CAP, 3, 4, 5)


def test_dimension_cap():
    model = dephasing_model([100.0, 110.0, 120.0], [10.0, 10.0, 10.0])
    with pytest.raises(ResourceLimitError):
        propagate(
            model,
            FockTruncation(caps=(40, 40, 40)),
            PLUS,
            t_max_fs=10.0,
            dt_fs=1.0,
            dimension_cap=10_000,
        )


@pytest.mark.parametrize("t_max_fs", [1e300, 1e12])
def test_output_size_cap_before_hamiltonian_action(t_max_fs, monkeypatch):
    # 1e300 steps overflow numpy's array size and 1e12 steps need 7.28 TiB;
    # both must stop at the cap check, before any work or allocation
    def unreachable(*args, **kwargs):
        raise AssertionError("the Hamiltonian action was built")

    monkeypatch.setattr(dynamics, "_HamiltonianAction", unreachable)
    model = dephasing_model([100.0], [10.0])
    with pytest.raises(ResourceLimitError, match="output steps"):
        propagate(model, FockTruncation(caps=(3,)), PLUS, t_max_fs, 1.0)


def test_psi0_validation():
    model = dephasing_model([100.0], [10.0])
    with pytest.raises(ValidationError, match="normalized"):
        propagate(model, FockTruncation(caps=(3,)), np.array([1.0, 1.0]), 10.0, 1.0)


def _coarse_halving_run():
    # D = 2 * 9 exceeds the Krylov dimension 6, so a 16 fs step is too large
    # for one basis and has to be halved
    gap = 300.0
    system = SystemSpec(h_s=[[gap / 2, 0.0], [0.0, -gap / 2]], couplings=(("b", SIGMA_X),))
    model = build_model(system, [("b", synthetic_bath([gap], [20.0]))])
    psi0 = np.array([1.0, 0.0], dtype=complex)
    trunc = FockTruncation(caps=(8,))
    return model, trunc, psi0, propagate(model, trunc, psi0, 192.0, 16.0, krylov_dim=6, tol=1e-8)


def test_step_halving_rescues_large_steps():
    # halving the too-large step on demand still propagates accurately
    model, trunc, psi0, coarse = _coarse_halving_run()
    fine = propagate(model, trunc, psi0, 192.0, 0.5, krylov_dim=12, tol=1e-13)
    assert coarse.halvings > 0
    assert abs(coarse.populations[-1, 0] - fine.populations[-1, 0]) < 1e-7


def test_propagation_reports_halvings_and_error_estimates():
    coarse = _coarse_halving_run()[3]
    assert coarse.halvings > 0
    # every halving leaves a sibling block for a later basis
    assert coarse.krylov_bases >= coarse.halvings + 1
    assert 0.0 < coarse.max_step_error <= 1e-8


def test_rejected_step_reuses_its_basis(monkeypatch):
    # a rejected step is evaluated again on the same basis, so no basis is
    # ever rebuilt from a state an earlier call already started from
    inputs = []
    lanczos = dynamics._lanczos_expm_apply

    def spy(apply_h, psi, *args):
        inputs.append(psi.tobytes())
        return lanczos(apply_h, psi, *args)

    monkeypatch.setattr(dynamics, "_lanczos_expm_apply", spy)
    coarse = _coarse_halving_run()[3]
    assert coarse.halvings > 0
    assert len(set(inputs)) == len(inputs)
    assert coarse.krylov_bases == len(inputs)


def test_step_halving_exhausted_raises(monkeypatch):
    gap = 300.0
    system = SystemSpec(
        h_s=[[gap / 2, 0.0], [0.0, -gap / 2]],
        couplings=(("b", [[0.0, 1.0], [1.0, 0.0]]),),
    )
    model = build_model(system, [("b", synthetic_bath([gap], [40.0]))])
    from bathkit.errors import ConvergenceError

    calls = []
    lanczos = dynamics._lanczos_expm_apply

    def spy(*args):
        calls.append(1)
        return lanczos(*args)

    monkeypatch.setattr(dynamics, "_lanczos_expm_apply", spy)
    with pytest.raises(ConvergenceError, match="halvings"):
        propagate(
            model, FockTruncation(caps=(10,)), np.array([1.0, 0.0], dtype=complex),
            t_max_fs=4000.0, dt_fs=4000.0, krylov_dim=3, tol=1e-14,
        )
    # dt/2, dt/4 and dt/8 are tried on the first basis, which is not rebuilt
    assert len(calls) == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t_max_fs": math.inf},
        {"t_max_fs": 1e300, "dt_fs": 1e-300},
        {"tol": math.nan},
        {"tol": -1e-10},
        {"tol": math.inf},
        {"psi0_system": np.array([math.nan, 1.0])},
        {"krylov_dim": 4.5},
    ],
    ids=["t_max-inf", "step-count-overflows", "tol-nan", "tol-negative", "tol-inf",
         "psi0-nan", "krylov_dim-float"],
)
def test_propagate_rejects_bad_inputs_before_any_work(monkeypatch, kwargs):
    def no_work(*args):
        raise AssertionError("propagate built its Hamiltonian action")

    monkeypatch.setattr(dynamics, "_HamiltonianAction", no_work)
    args = dict(
        model=dephasing_model([100.0], [10.0]), trunc=FockTruncation(caps=(3,)),
        psi0_system=PLUS, t_max_fs=10.0, dt_fs=1.0,
    )
    with pytest.raises(ValidationError):
        propagate(**{**args, **kwargs})


def test_truncation_convergence_under_cap_doubling():
    model = dephasing_model([120.0], [30.0])
    results = []
    for cap in (8, 16):
        res = propagate(
            model, FockTruncation(caps=(cap,)), PLUS, 400.0, 2.0, krylov_dim=12, tol=1e-12
        )
        results.append(res.energy)
    assert np.max(np.abs(results[0] - results[1])) <= 1e-6 * max(1.0, abs(results[1][0]))


def spin_boson_oracle_model():
    # off-diagonal complex H_S, sigma_x coupling, a negative frequency, a g = 0 mode
    system = SystemSpec(
        h_s=[[60.0, 25.0 + 10.0j], [25.0 - 10.0j, -40.0]], couplings=(("b", SIGMA_X),)
    )
    bath = synthetic_bath([110.0, -70.0, 90.0], [20.0, 15.0, 0.0])
    return build_model(system, [("b", bath)]), FockTruncation(caps=(4, 3, 2))


def shared_label_oracle_model():
    # two couplings reference one bath label, so each gets its own mode copies
    system = SystemSpec(
        h_s=[[30.0, 15.0], [15.0, -30.0]],
        couplings=(("b", SIGMA_Z), ("b", [[0.3, 0.5], [0.5, -0.2]])),
    )
    bath = synthetic_bath([100.0, -60.0], [18.0, 12.0])
    return build_model(system, [("b", bath)]), FockTruncation(caps=(3, 2, 3, 2))


@pytest.mark.parametrize("make", [spin_boson_oracle_model, shared_label_oracle_model])
def test_propagate_matches_dense_exponential(make, monkeypatch):
    model, trunc = make()
    psi0_system = np.array([0.6, 0.8j])
    t_max, dt, krylov_dim = 120.0, 2.0, 12

    states, h_calls = [], []
    lanczos = dynamics._lanczos_expm_apply
    call = _HamiltonianAction.__call__

    def spy(*args, **kwargs):
        steps = lanczos(*args, **kwargs)
        states.extend(steps.state(m, args[1].shape) for m in range(len(steps.energies)))
        return steps

    def counting(self, psi):
        h_calls.append(1)
        return call(self, psi)

    monkeypatch.setattr(dynamics, "_lanczos_expm_apply", spy)
    monkeypatch.setattr(_HamiltonianAction, "__call__", counting)
    res = propagate(model, trunc, psi0_system, t_max, dt, krylov_dim=krylov_dim, tol=1e-12)
    monkeypatch.undo()

    n_steps = res.times.size - 1
    assert res.halvings == 0 and len(states) == n_steps
    # one basis covers several output steps
    assert res.krylov_bases < n_steps
    assert len(h_calls) < n_steps * krylov_dim
    assert 0.0 <= res.max_step_error <= 1e-12

    h = materialize(_HamiltonianAction(model, trunc))
    step = scipy.linalg.expm(-1j * dt * RAD_PER_FS_PER_CM1 * h)
    psi = np.zeros(trunc.dimension(2), dtype=complex)
    psi[0], psi[psi.size // 2] = psi0_system
    for i, state in enumerate(states, start=1):
        psi = step @ psi
        np.testing.assert_allclose(state.reshape(-1), psi, rtol=0.0, atol=1e-9)
        mat = psi.reshape(2, -1)
        pops = np.sum(np.abs(mat) ** 2, axis=1)
        np.testing.assert_allclose(res.populations[i], pops, rtol=0.0, atol=1e-9)
        assert abs(res.coherences[(0, 1)][i] - mat[0] @ mat[1].conj()) <= 1e-9
        energy = np.real(np.vdot(psi, h @ psi))
        assert abs(res.energy[i] - energy) <= 1e-9 * max(1.0, abs(energy))


def test_invariant_subspace_serves_many_steps_per_basis():
    # an eigenstate breaks the Lanczos recursion down at once; the projection
    # is then exact and one basis serves MAX_STEPS_PER_BASIS output steps
    model = dephasing_model([100.0], [0.0])
    n_steps = 2 * dynamics.MAX_STEPS_PER_BASIS + 3
    res = propagate(model, FockTruncation(caps=(2,)), np.array([0.0, 1.0]), float(n_steps), 1.0)
    assert res.krylov_bases == 3 and res.halvings == 0 and res.max_step_error == 0.0
    np.testing.assert_allclose(res.populations[:, 1], 1.0, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(res.energy, -50.0, rtol=1e-14)


def test_to_csv_leaves_the_propagation_diagnostics_out():
    res = PropagationResult(
        times=np.array([0.0, 0.5]),
        populations=np.array([[1.0, 0.0], [0.75, 0.25]]),
        coherences={(0, 1): np.array([complex(0.5, 0.25), complex(0.0, -0.125)])},
        norm=np.array([1.0, 1.0]),
        energy=np.array([2.5, -1.0]),
        krylov_bases=1,
        halvings=0,
        max_step_error=1e-13,
    )
    texts = []
    for r in (res, dataclasses.replace(res, krylov_bases=9, halvings=4, max_step_error=0.5)):
        buf = io.StringIO()
        r.to_csv(buf)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1] == (
        "t_fs,pop_1,pop_2,re_coh,im_coh,norm,energy_cm1\n"
        "0.0,1.0,0.0,0.5,0.25,1.0,2.5\n"
        "0.5,0.75,0.25,0.0,-0.125,1.0,-1.0\n"
    )


# --- dephasing oracle ---------------------------------------------------------


@pytest.mark.parametrize("omega, g", [(1e-200, 1e-150), (-1e-170, 1.0)])
def test_dephasing_gamma_finite_where_omega_squared_underflows(omega, g):
    # g^2 / omega^2 is out of double range, but g / omega and Gamma are not
    model = dephasing_model([omega, 100.0], [g, 10.0])
    times = np.linspace(0.0, 100.0, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma = dephasing_gamma(model, times)
    expected = [
        math.fsum(
            8.0 * ((gk / wk) * math.sin(wk * RAD_PER_FS_PER_CM1 * t / 2.0)) ** 2
            for wk, gk in ((omega, g), (100.0, 10.0))
        )
        for t in times
    ]
    assert gamma[0] == 0.0
    assert np.all(gamma[1:] > 0.0)
    np.testing.assert_allclose(gamma, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("omega, g", [(1e-300, 1e10)])
def test_dephasing_gamma_out_of_range_raises_without_warnings(omega, g):
    # g / omega overflows, so 8 ((g / omega) sin 0)^2 would be inf * 0 = NaN
    model = dephasing_model([omega, 100.0], [g, 10.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="not finite"):
            dephasing_gamma(model, np.linspace(0.0, 100.0, 11))


def test_gamma_zero_at_t0_and_single_mode_range():
    model = dephasing_model([150.0], [20.0])
    times = np.linspace(0.0, 2000.0, 4001)
    gamma = dephasing_gamma(model, times)
    assert gamma[0] == 0.0
    peak = 8.0 * (20.0 / 150.0) ** 2
    assert np.max(gamma) <= peak + 1e-12
    assert np.max(gamma) >= peak * (1 - 1e-3)
    # period 1/(c*omega) fs: the exponent returns to ~0
    period = 2 * np.pi / (150.0 * RAD_PER_FS_PER_CM1)
    g_at_period = dephasing_gamma(model, [period])[0]
    assert abs(g_at_period) < 1e-8


def test_gamma_rejects_zero_frequency_and_wrong_structure():
    with pytest.raises(ValidationError, match="zero-frequency"):
        dephasing_gamma(dephasing_model([0.0], [1.0]), [0.0, 1.0])
    system = SystemSpec(h_s=[[0.0, 5.0], [5.0, 0.0]], couplings=(("b", SIGMA_Z),))
    model = build_model(system, [("b", synthetic_bath([100.0], [1.0]))])
    with pytest.raises(ValidationError, match="diagonal"):
        dephasing_gamma(model, [0.0])


def test_dephasing_prefactor_against_brute_force_propagation():
    # the factor 4 in Gamma(t) = sum 4 g^2 (1-cos)/(omega^2), checked against
    # exact propagation of a single mode with a generous cap
    model = dephasing_model([120.0], [30.0])
    res = propagate(
        model,
        FockTruncation(caps=(20,)),
        PLUS,
        t_max_fs=800.0,
        dt_fs=2.0,
        krylov_dim=12,
        tol=1e-12,
    )
    gamma = dephasing_gamma(model, res.times)
    coh = np.abs(res.coherences[(0, 1)]) / abs(res.coherences[(0, 1)][0])
    assert np.max(np.abs(coh - np.exp(-gamma))) <= 1e-10


def test_propagate_matches_gamma_two_modes():
    model = dephasing_model([80.0, -150.0], [20.0, 25.0])
    res = propagate(
        model,
        FockTruncation(caps=(12, 12)),
        PLUS,
        t_max_fs=600.0,
        dt_fs=2.0,
        krylov_dim=14,
        tol=1e-12,
    )
    gamma = dephasing_gamma(model, res.times)
    coh = np.abs(res.coherences[(0, 1)]) / abs(res.coherences[(0, 1)][0])
    assert np.max(np.abs(coh - np.exp(-gamma))) <= 1e-6


def test_model_gamma_tracks_continuum_at_finite_temperature():
    kernel = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
    grid = FdrGrid(t_max_fs=500.0, omega_max_cm1=1200.0, n_time=250, n_freq=2400)
    bath = discretize_bath(kernel, grid, 1e-2)
    system = SystemSpec(h_s=np.diag([50.0, -50.0]), couplings=(("b", SIGMA_Z),))
    model = build_model(system, [("b", bath)])
    times = grid.times
    g_model = dephasing_gamma(model, times)
    g_cont = dephasing_gamma_continuum(kernel, times, grid.omega_max_cm1)
    sup = np.max(np.abs(g_model - g_cont))
    peak = np.max(np.abs(g_cont))
    assert sup <= 2.0 * bath.diagnostics.rel_error * peak


# --- convergence study ----------------------------------------------------------


@pytest.fixture(scope="module")
def dephasing_system():
    return SystemSpec(h_s=np.diag([50.0, -50.0]), couplings=(("b", SIGMA_Z),))


def test_convergence_study_dephasing_monotone(dephasing_system):
    kernel = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
    grid = FdrGrid(t_max_fs=400.0, omega_max_cm1=1200.0, n_time=200, n_freq=2400)
    report = convergence_study(kernel, dephasing_system, [1e-1, 1e-2, 1e-3], grid)
    assert report.observable == "dephasing_coherence"
    assert report.monotone_within_slack
    assert len(report.distances) == 2
    assert report.distances[1] <= 1.2 * report.distances[0] + 1e-12


def test_convergence_study_loose_vs_tight_differ(dephasing_system):
    kernel = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
    grid = FdrGrid(t_max_fs=400.0, omega_max_cm1=1200.0, n_time=200, n_freq=2400)
    report = convergence_study(kernel, dephasing_system, [0.9, 1e-3], grid)
    assert report.distances[0] > 0.0


def test_convergence_study_empty_sweep(dephasing_system):
    kernel = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
    grid = FdrGrid(t_max_fs=400.0, omega_max_cm1=1200.0, n_time=200, n_freq=2400)
    with pytest.raises(ValidationError, match="empty"):
        convergence_study(kernel, dephasing_system, [], grid)


def test_convergence_study_propagation_path():
    # a non-dephasing system exercises the exact-propagation observable
    kernel = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
    grid = FdrGrid(t_max_fs=50.0, omega_max_cm1=500.0, n_time=26, n_freq=128)
    system = SystemSpec(
        h_s=[[100.0, 30.0], [30.0, 0.0]],
        couplings=(("b", [[1.0, 0.0], [0.0, 0.0]]),),
    )
    report = convergence_study(kernel, system, [0.5, 1e-2], grid)
    assert report.observable == "populations"
    assert len(report.series) == 2
    assert report.series[0].shape[0] == grid.n_time


def test_propagation_result_csv(tmp_path):
    model = dephasing_model([120.0], [20.0])
    res = propagate(model, FockTruncation(caps=(6,)), PLUS, 50.0, 5.0)
    out = tmp_path / "prop.csv"
    res.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t_fs,pop_1,pop_2,re_coh,im_coh,norm,energy_cm1"
    assert len(lines) == 1 + res.times.size
