import inspect
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from conftest import materialize

import bathkit.dynamics as dynamics
import bathkit.discretize as disc
from bathkit.discretize import BathDiagnostics, BathModel, FdrGrid, discretize_bath, fdr_factor
from bathkit.dynamics import (
    FockTruncation,
    _HamiltonianAction,
    _pure_dephasing_violation,
    convergence_study,
    dephasing_gamma,
    dephasing_gamma_continuum,
    propagate,
)
from bathkit.errors import ResourceLimitError, ValidationError
from bathkit.hamiltonian import SystemSpec, build_model
from bathkit.specdens import Debye, NoiseKernel, Temperature, load_tabulated
from bathkit.units import RAD_PER_FS_PER_CM1

SIGMA_Z = [[1.0, 0.0], [0.0, -1.0]]
SIGMA_X = [[0.0, 1.0], [1.0, 0.0]]
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
SURROGATE = load_tabulated(Path(__file__).resolve().parent.parent / "configs" / "surrogate_sd.csv")


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


# ACTION_BLOCK at 1, 5 and its default: block edges fall inside strides, on
# cap levels and past the largest stride
ACTION_BLOCKS = pytest.mark.parametrize(
    "block", [1, 5, dynamics.ACTION_BLOCK], ids=["block-1", "block-5", "default"]
)


def with_offdiagonal(matrix, eps):
    m = np.array(matrix, dtype=complex)
    m[0, 1] = m[1, 0] = eps
    return m


@ACTION_BLOCKS
def test_diagonal_fast_paths_match_general_path(block, monkeypatch):
    # diagonal H_S, two diagonal couplings and a g = 0 mode take the fast
    # paths; an off-diagonal 1e-300 forces the general path for the same H
    monkeypatch.setattr(dynamics, "ACTION_BLOCK", block)
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
    assert fast.h_s is None and all(v is None for v, terms in fast.passes for _ in terms)
    assert general.h_s is not None and all(
        v is not None for v, terms in general.passes for _ in terms
    )
    assert sum(len(t) for _, t in fast.passes) == 3  # the g = 0 mode is skipped
    h_fast, h_general = materialize(fast), materialize(general)
    np.testing.assert_allclose(h_fast, h_general, rtol=0.0, atol=1e-12)
    assert np.max(np.abs(h_fast - h_fast.conj().T)) == 0.0
    # the Hermiticity check lets an imaginary 1e-12 through on the diagonal;
    # H_S then takes the matmul, since the folded diagonal is real
    imag_part = np.kron(np.diag([1e-12j, 0.0]), np.eye(h_fast.shape[0] // 2))
    imag_sys = SystemSpec(h_s=h_s + np.diag([1e-12j, 0.0]), couplings=fast_sys.couplings)
    imag = _HamiltonianAction(build_model(imag_sys, baths), trunc)
    assert imag.h_s is not None and imag.diag.dtype == np.float64
    h_imag = materialize(imag)
    np.testing.assert_allclose(h_imag, h_fast + imag_part, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(h_imag.imag, imag_part.imag)


@ACTION_BLOCKS
def test_mixed_paths_match_kronecker_construction(block, monkeypatch):
    # diagonal H_S folded, sigma_x coupling on the general path
    monkeypatch.setattr(dynamics, "ACTION_BLOCK", block)
    n = 4
    model = build_model(
        SystemSpec(h_s=np.diag([40.0, -20.0]), couplings=(("b", SIGMA_X),)),
        [("b", synthetic_bath([-70.0], [18.0]))],
    )
    action = _HamiltonianAction(model, FockTruncation(caps=(n - 1,)))
    assert action.h_s is None and action.passes[0][0] is not None
    a = np.diag(np.sqrt(np.arange(1.0, n)), k=1)
    h_expl = (
        np.kron(np.diag([40.0, -20.0]), np.eye(n))
        - 70.0 * np.kron(np.eye(2), np.diag(np.arange(float(n))))
        + 18.0 * np.kron(np.array(SIGMA_X), a + a.T)
    )
    np.testing.assert_allclose(materialize(action), h_expl, atol=1e-12)


@ACTION_BLOCKS
def test_stride_shifted_ladders_match_kronecker_construction(block, monkeypatch):
    # four modes with unequal caps, cap 1 on the innermost axis and a g = 0
    # mode; sigma_z folds into the coefficients, sigma_x and H_S take matmuls.
    # A product leaking from a cap level into the next block shows up here.
    monkeypatch.setattr(dynamics, "ACTION_BLOCK", block)
    h_s = np.array([[40.0, 15.0], [15.0, -20.0]])
    omegas, gs, caps = [120.0, -80.0, 60.0, 95.0], [25.0, 0.0, 15.0, 10.0], (3, 2, 4, 1)
    couplings = [SIGMA_Z] * 3 + [SIGMA_X]
    model = build_model(
        SystemSpec(h_s=h_s, couplings=(("b", SIGMA_Z), ("c", SIGMA_X))),
        [("b", synthetic_bath(omegas[:3], gs[:3])), ("c", synthetic_bath(omegas[3:], gs[3:]))],
    )
    action = _HamiltonianAction(model, FockTruncation(caps=caps))
    assert [v is None for v, terms in action.passes for _ in terms] == [True, True, False]

    def embed(system_op, mode, mode_op):
        factors = [np.asarray(system_op)] + [np.eye(c + 1) for c in caps]
        factors[1 + mode] = mode_op
        out = factors[0]
        for f in factors[1:]:
            out = np.kron(out, f)
        return out

    h_expl = embed(h_s, 0, np.eye(caps[0] + 1))
    for k, c in enumerate(caps):
        a = np.diag(np.sqrt(np.arange(1.0, c + 1.0)), k=1)
        h_expl = h_expl + omegas[k] * embed(np.eye(2), k, np.diag(np.arange(c + 1.0)))
        h_expl = h_expl + gs[k] * embed(couplings[k], k, a + a.T)
    np.testing.assert_allclose(materialize(action), h_expl, rtol=0.0, atol=1e-12)


def test_blocked_action_is_bit_equal_to_one_block(monkeypatch):
    # off-diagonal H_S, a folded sigma_z bath and two sigma_x baths, so three
    # passes over the blocks; every entry gets the same operations in the
    # same order, whatever the blocks
    omegas, gs = [120.0, -80.0, 60.0, 95.0, 30.0], [25.0, 12.0, 15.0, 10.0, 7.0]
    caps = (3, 2, 4, 1, 2)
    model = build_model(
        SystemSpec(
            h_s=[[40.0, 15.0], [15.0, -20.0]],
            couplings=(("b", SIGMA_Z), ("c", SIGMA_X), ("d", SIGMA_X)),
        ),
        [("b", synthetic_bath(omegas[:2], gs[:2])), ("c", synthetic_bath(omegas[2:4], gs[2:4])),
         ("d", synthetic_bath(omegas[4:], gs[4:]))],
    )
    trunc = FockTruncation(caps=caps)
    action = _HamiltonianAction(model, trunc)
    assert [v is None for v, _ in action.passes] == [True, False, False]
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(action.shape) + 1j * rng.standard_normal(action.shape)
    monkeypatch.setattr(dynamics, "ACTION_BLOCK", psi.size)
    whole = _HamiltonianAction(model, trunc)(psi)
    for block in (1, 5, 7, 64, psi.size // 2):
        # the block size is read when an action is built
        monkeypatch.setattr(dynamics, "ACTION_BLOCK", block)
        assert np.array_equal(_HamiltonianAction(model, trunc)(psi), whole), block


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


@pytest.mark.parametrize("v", [SIGMA_Z, SIGMA_X], ids=["sigma_z", "sigma_x"])
def test_energy_offset_is_only_a_global_phase(v):
    # a site energy of 12,400 cm^-1 adds only a phase; one Gram-Schmidt pass
    # per Lanczos step leaves eps * |alpha| in the span and needs 42 bases here
    def run(e0):
        system = SystemSpec(h_s=[[e0 + 50.0, 40.0], [40.0, e0 - 50.0]], couplings=(("b", v),))
        model = build_model(system, [("b", synthetic_bath([120.0, -80.0], [40.0, 25.0]))])
        return propagate(model, FockTruncation(caps=(6, 6)), np.array([1.0, 0.0]), 100.0, 1.0)

    res, shifted = run(0.0), run(12_400.0)
    np.testing.assert_allclose(shifted.populations, res.populations, rtol=0.0, atol=1e-12)
    assert shifted.krylov_bases == res.krylov_bases


@pytest.mark.parametrize(
    "omega, g", [(1e-200, 1.0), (-1e-200, 1.0), (1e-300, 1e10), (0.0, 1.0)],
    ids=["square-overflows", "negative-omega", "ratio-overflows", "zero-omega"],
)
def test_fock_caps_saturate_without_overflow(omega, g):
    model = dephasing_model([omega, 100.0, 100.0, 100.0], [g, 0.0, 10.0, 50.0])
    assert FockTruncation.for_model(model).caps == (dynamics.MAX_FOCK_CAP, 3, 4, 5)


def test_uncoupled_zero_frequency_mode_keeps_the_smallest_cap():
    assert FockTruncation.for_model(dephasing_model([0.0, 0.0], [0.0, 1.0])).caps == (3, 10)


@pytest.mark.parametrize("cap", [2.7, "3", True, 3.0, None])
def test_fock_caps_must_be_integers(cap):
    # a float, string or bool cap is rejected, not rounded or converted
    with pytest.raises(ValidationError, match="integers"):
        FockTruncation(caps=(4, cap))


def test_fock_caps_accept_numpy_integers():
    caps = FockTruncation(caps=tuple(np.array([2, 3]))).caps
    assert caps == (2, 3) and all(type(c) is int for c in caps)


def test_dimension_cap():
    # D = 2 * 41**3 = 137,842 states: (32 + 8) * 16 * D bytes (about 88 MB)
    # for the largest basis and work states alone, above a 10 MB cap
    model = dephasing_model([100.0, 110.0, 120.0], [10.0, 10.0, 10.0])
    with pytest.raises(ResourceLimitError):
        propagate(
            model,
            FockTruncation(caps=(40, 40, 40)),
            PLUS,
            t_max_fs=10.0,
            dt_fs=1.0,
            memory_cap_bytes=10_000_000,
        )


def no_action(*args, **kwargs):
    raise AssertionError("the Hamiltonian action was built")


def test_memory_cap_reports_an_exact_dimension_in_one_short_line(monkeypatch):
    # D = 2 * 11**4200 has 4,375 digits, more than str(int) may convert
    monkeypatch.setattr(dynamics, "_HamiltonianAction", no_action)
    model = dephasing_model(np.full(4200, 100.0), np.full(4200, 1.0))
    with pytest.raises(ResourceLimitError) as info:
        propagate(model, FockTruncation(caps=(10,) * 4200), PLUS, 10.0, 1.0)
    message = str(info.value)
    assert len(message) < 200 and "\n" not in message
    assert "GiB is needed, above the 4 GiB cap" in message


def test_krylov_basis_counts_against_the_cap_before_any_allocation(monkeypatch):
    # D = 10 passes any state-count cap, but 2**40 Krylov vectors need 160 TiB
    monkeypatch.setattr(dynamics, "_HamiltonianAction", no_action)
    monkeypatch.setattr(dynamics, "_lanczos_expm_apply", no_action)
    model = dephasing_model([100.0], [10.0])
    with pytest.raises(ResourceLimitError, match="Krylov basis"):
        propagate(model, FockTruncation(caps=(4,)), PLUS, 10.0, 1.0, krylov_dim=2**40)


def test_memory_cap_is_the_propagation_working_set():
    model = dephasing_model([100.0, 130.0], [10.0, 20.0])
    trunc = FockTruncation(caps=(5, 6))  # D = 2 * 6 * 7 = 84
    # (krylov_dim + 8) vectors of D complex values, one float64 ladder
    # coefficient of D values per mode, then 11 records of 2 populations
    need = (12 + 8) * 16 * 84 + 8 * 2 * 84 + 11 * (8 * 2 + 40)
    res = propagate(model, trunc, PLUS, 10.0, 1.0, krylov_dim=12, memory_cap_bytes=need)
    assert res.populations.shape == (11, 2)
    with pytest.raises(ResourceLimitError, match="cap"):
        propagate(model, trunc, PLUS, 10.0, 1.0, krylov_dim=12, memory_cap_bytes=need - 1)


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


@pytest.mark.parametrize("g", [1e153, 1e154, 1e160, 1e300])
def test_propagate_rejects_a_hamiltonian_too_large_to_square(g):
    # one mode at 100 cm^-1 with weight 1 and cap 10: the norm bound
    # 2 g sqrt(10) |sigma_z|_F squares to 8.0e307 at g = 1e153 and overflows
    # from 1e154, where the Lanczos vectors' norms overflowed
    system = SystemSpec(h_s=[[50.0, 0.0], [0.0, -50.0]], couplings=(("b", SIGMA_Z),))
    bath = replace(synthetic_bath([100.0], [1.0]), g=np.array([g]))
    model = build_model(system, [("b", bath)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if g < 1e154:
            res = propagate(model, FockTruncation(caps=(10,)), [1.0, 0.0], 100.0, 1.0)
            assert np.all(np.isfinite(res.populations)) and np.all(np.isfinite(res.energy))
        else:
            with pytest.raises(ValidationError, match="norm bound"):
                propagate(model, FockTruncation(caps=(10,)), [1.0, 0.0], 100.0, 1.0)


def test_action_rejects_a_cap_count_other_than_the_mode_count():
    model = dephasing_model([100.0], [10.0])
    with pytest.raises(ValidationError, match="2 caps but the model has 1 modes"):
        dynamics._HamiltonianAction(model, FockTruncation(caps=(3, 3)))


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


def test_energies_after_halvings_match_dense_expectation():
    # states served by halved steps record their basis's energy, which must
    # be the dense <psi(t)|H|psi(t)> on the output grid
    model, trunc, psi0, coarse = _coarse_halving_run()
    assert coarse.halvings > 0
    h = materialize(_HamiltonianAction(model, trunc))
    step = scipy.linalg.expm(-1j * 16.0 * RAD_PER_FS_PER_CM1 * h)
    psi = np.zeros(trunc.dimension(2), dtype=complex)
    psi[0] = 1.0
    for i, e in enumerate(coarse.energy):
        energy = np.real(np.vdot(psi, h @ psi))
        assert abs(e - energy) <= 1e-9 * max(1.0, abs(energy))
        psi = step @ psi


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
        {"psi0_system": np.array([1.0, 0.0, 0.0])},
        {"krylov_dim": 4.5},
    ],
    ids=["t_max-inf", "step-count-overflows", "tol-nan", "tol-negative", "tol-inf",
         "psi0-nan", "psi0-shape", "krylov_dim-float"],
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
        states.extend(steps.state(m, args[1].shape) for m in range(len(steps.coeffs)))
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


def fixed_size_lanczos(apply_h, psi, dt_rad, krylov_dim, tol, max_steps, halvings):
    """The fixed-size rule: krylov_dim vectors unless the recursion breaks down.

    Same interface and estimate as ``_lanczos_expm_apply``, written
    independently (Gram-Schmidt twice against the whole basis), without
    step halving.
    """
    flat = psi.reshape(-1)
    nrm = np.linalg.norm(flat)
    basis = [flat / nrm]
    t = np.zeros((krylov_dim, krylov_dim))
    for j in range(krylov_dim):
        w = apply_h(basis[j].reshape(psi.shape)).reshape(-1)
        t[j, j] = np.vdot(basis[j], w).real
        done = np.array(basis)
        for _ in range(2):
            w = w - (done.conj() @ w) @ done
        beta = np.linalg.norm(w)
        if j + 1 == krylov_dim or beta < 1e-14 * nrm:
            break
        t[j, j + 1] = t[j + 1, j] = beta
        basis.append(w / beta)
    k = len(basis)
    evals, evecs = np.linalg.eigh(t[:k, :k])
    phases = np.exp(-1j * dt_rad * np.outer(np.arange(1, max_steps + 1), evals))
    ys = (phases * evecs[0].conj()) @ evecs.T
    errs = (beta if k == krylov_dim else 0.0) * np.abs(ys[:, -1])
    n_ok = int(np.argmax(errs > tol)) if np.any(errs > tol) else max_steps
    assert n_ok > 0, "the fixed-size reference does not halve steps"
    ys = ys[:n_ok]
    energies = nrm * nrm * np.einsum("mi,mi->m", ys.conj(), ys @ t[:k, :k]).real
    # every state of one basis has the same <H> in the projection
    assert np.ptp(energies) <= 1e-12 * np.max(np.abs(t))
    return dynamics._KrylovSteps(
        coeffs=nrm * ys, basis=np.array(basis), energy=float(energies[0]), halvings=0,
        max_error=float(np.max(errs[:n_ok])),
    )


@pytest.mark.parametrize("make", [spin_boson_oracle_model, shared_label_oracle_model])
def test_basis_stops_growing_once_it_covers_the_steps(make, monkeypatch):
    # 20 steps of 2 fs at D = 120 and 288: one basis covers them all well
    # below the cap of 32 vectors, and the result is the fixed-size rule's
    model, trunc = make()
    psi0_system = np.array([0.6, 0.8j])
    krylov_dim = 32
    h_calls = []
    call = _HamiltonianAction.__call__

    def counting(self, psi):
        h_calls.append(1)
        return call(self, psi)

    monkeypatch.setattr(_HamiltonianAction, "__call__", counting)
    res = propagate(model, trunc, psi0_system, 40.0, 2.0, krylov_dim=krylov_dim, tol=1e-12)
    monkeypatch.undo()
    # one call records the initial energy
    assert res.halvings == 0 and len(h_calls) - 1 < res.krylov_bases * krylov_dim

    monkeypatch.setattr(dynamics, "_lanczos_expm_apply", fixed_size_lanczos)
    ref = propagate(model, trunc, psi0_system, 40.0, 2.0, krylov_dim=krylov_dim, tol=1e-12)
    np.testing.assert_allclose(res.populations, ref.populations, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(res.coherences[(0, 1)], ref.coherences[(0, 1)], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(res.energy, ref.energy, rtol=0.0, atol=1e-12)


def test_early_stopped_basis_is_not_treated_as_invariant(monkeypatch):
    # a basis that stops short of the cap without breaking down keeps its
    # beta_k, so its error estimate is reported, not taken as exact
    model, trunc = spin_boson_oracle_model()
    sizes, betas = [], []
    lanczos = dynamics._lanczos_expm_apply

    def spy(apply_h, psi, *args):
        steps = lanczos(apply_h, psi, *args)
        sizes.append(steps.basis.shape[0])
        # the residual of the last vector: zero only for an invariant subspace
        v = steps.basis[-1]
        w = apply_h(v.reshape(psi.shape)).reshape(-1)
        w = w - steps.basis.T @ (steps.basis.conj() @ w)
        betas.append(np.linalg.norm(w))
        return steps

    monkeypatch.setattr(dynamics, "_lanczos_expm_apply", spy)
    res = propagate(model, trunc, np.array([0.6, 0.8j]), 40.0, 2.0, krylov_dim=32, tol=1e-12)
    assert sizes and max(sizes) < 32 and min(betas) > 1e-3
    assert 0.0 < res.max_step_error <= 1e-12


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
    qutrit = np.diag([1.0, 0.0, -1.0])
    system = SystemSpec(h_s=qutrit, couplings=(("b", qutrit),))
    model = build_model(system, [("b", synthetic_bath([100.0], [1.0]))])
    with pytest.raises(ValidationError, match="two-level"):
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


@pytest.mark.parametrize(
    "distances, passes",
    [([0.0, 0.01], True), ([0.01, 0.05], False), ([0.01, 0.0, 0.05], False)],
)
def test_convergence_study_judges_the_trend_on_nonzero_distances(
    distances, passes, dephasing_system, monkeypatch
):
    # two tols giving the same bath have distance 0, which says nothing of the
    # trend; a growth past the slack still fails across a zero in between
    gammas = iter(-np.log(np.cumsum([0.5] + distances)))
    monkeypatch.setattr(
        dynamics, "dephasing_gamma", lambda model, times: np.full(len(times), next(gammas))
    )
    kernel = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
    grid = FdrGrid(t_max_fs=50.0, omega_max_cm1=500.0, n_time=4, n_freq=128)
    tols = [0.5, 0.4, 0.3, 0.2][: len(distances) + 1]
    report = convergence_study(kernel, dephasing_system, tols, grid)
    np.testing.assert_allclose(report.distances, distances, rtol=1e-12, atol=1e-15)
    assert report.monotone_within_slack is passes


def test_convergence_study_empty_sweep(dephasing_system):
    kernel = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
    grid = FdrGrid(t_max_fs=400.0, omega_max_cm1=1200.0, n_time=200, n_freq=2400)
    with pytest.raises(ValidationError, match="empty"):
        convergence_study(kernel, dephasing_system, [], grid)


@pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.1, math.nan], ids=str)
def test_convergence_study_checks_every_tol_before_discretizing(
    bad, dephasing_system, monkeypatch
):
    # tols run loosest first, so a bad tightest tol would otherwise fail only
    # after every valid tol had been discretized and compared
    def no_discretize(*args, **kwargs):
        raise AssertionError("a bath was discretized")

    monkeypatch.setattr(dynamics, "discretize_bath", no_discretize)
    monkeypatch.setattr(dynamics, "fdr_factor", no_discretize)
    kernel = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
    grid = FdrGrid(t_max_fs=50.0, omega_max_cm1=500.0, n_time=4, n_freq=128)
    with pytest.raises(ValidationError, match=r"tol must be in \(0, 1\)"):
        convergence_study(kernel, dephasing_system, [0.3, 0.2, bad], grid)


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


@pytest.mark.parametrize(
    "h_s, vs, block",
    [([[50.0, 0.0], [0.0, -50.0]], (SIGMA_Z,), None),
     ([[50.0, 40.0], [40.0, -50.0]], (SIGMA_Z,), None),
     ([[50.0, 0.0], [0.0, -50.0]], (SIGMA_X,), None),
     ([[50.0, 0.0], [0.0, -50.0]], (SIGMA_X, SIGMA_X), 4096)],
    ids=["diagonal", "offdiagonal-h_s", "offdiagonal-v", "two-sigma_x-baths-in-blocks"],
)
def test_propagation_peak_allocation_stays_within_the_checked_bytes(h_s, vs, block, monkeypatch):
    # D = 2 * 10**4; 20 steps take several bases, and only one may be alive.
    # tracemalloc peaks 6.97, 6.96 and 7.96 states above the basis in one
    # block (diagonal, off-diagonal H_S, sigma_x, whose V @ psi has its own
    # kept buffer) and 7.08 for two sigma_x baths in 4,096-entry blocks, which
    # share that buffer (6.08, 6.08, 7.08 for the others at that block)
    if block is not None:
        monkeypatch.setattr(dynamics, "ACTION_BLOCK", block)
    omegas, gs = [120.0, -80.0, 200.0, 45.0], [20.0, 10.0, 15.0, 8.0]
    labels = "bc"[: len(vs)]
    per = 4 // len(vs)
    system = SystemSpec(h_s=h_s, couplings=tuple(zip(labels, vs)))
    baths = [
        (label, synthetic_bath(omegas[i * per : (i + 1) * per], gs[i * per : (i + 1) * per]))
        for i, label in enumerate(labels)
    ]
    model = build_model(system, baths)
    trunc = FockTruncation(caps=(9,) * 4)
    need = (14 + 8) * 16 * 20_000 + 8 * 4 * 20_000 + 21 * (8 * 2 + 40)
    tracemalloc.start()
    try:
        res = propagate(model, trunc, PLUS, 100.0, 5.0, krylov_dim=14, memory_cap_bytes=need)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.krylov_bases > 1
    assert peak <= need


def test_convergence_study_passes_its_cap_to_every_call(monkeypatch):
    # the calls that read the cap get it: fdr_factor once and propagate once per
    # tol; each discretize_bath gets that factor and no cap
    seen, made = [], []

    def spy(real):
        def call(*args, **kwargs):
            arguments = inspect.signature(real).bind(*args, **kwargs).arguments
            seen.append((real.__name__, arguments.get("memory_cap_bytes"), arguments.get("factor")))
            out = real(*args, **kwargs)
            made.append(out)
            return out

        return call

    monkeypatch.setattr(dynamics, "fdr_factor", spy(fdr_factor))
    monkeypatch.setattr(dynamics, "discretize_bath", spy(discretize_bath))
    monkeypatch.setattr(dynamics, "propagate", spy(propagate))
    kernel = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
    grid = FdrGrid(t_max_fs=50.0, omega_max_cm1=500.0, n_time=26, n_freq=128)
    system = SystemSpec(h_s=[[100.0, 30.0], [30.0, 0.0]], couplings=(("b", SIGMA_Z),))
    convergence_study(kernel, system, [0.5, 0.3], grid, memory_cap_bytes=3 << 30)
    factor = made[0]
    assert seen == (
        [("fdr_factor", 3 << 30, None)]
        + [("discretize_bath", None, factor)] * 2
        + [("propagate", 3 << 30, None)] * 2
    )
    # a cap below the column ID's working set stops the first discretization
    with pytest.raises(ResourceLimitError, match="column ID"):
        convergence_study(kernel, system, [0.5], grid, memory_cap_bytes=100_000)


def test_convergence_study_frees_its_factor_before_it_propagates(monkeypatch):
    # the factor (its pivot columns, Q and R) is dead at the first propagation;
    # the peak up to it stays within fdr_factor's check, which counts the reference's
    # deepest level, and the peak from it on within the largest propagation's check
    checked, factors, factor_alive, peaks = [], [], [], []

    def record(real):
        def call(nbytes, cap, what):
            checked.append(nbytes)
            return real(nbytes, cap, what)

        return call

    def keep_a_weakref(*args, **kwargs):
        factor = fdr_factor(*args, **kwargs)
        factors.append(weakref.ref(factor))
        return factor

    def note_the_factor(*args, **kwargs):
        if not factor_alive:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        factor_alive.append(factors[0]() is not None)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(disc, "check_memory", record(disc.check_memory))
    monkeypatch.setattr(dynamics, "check_memory", record(dynamics.check_memory))
    monkeypatch.setattr(dynamics, "fdr_factor", keep_a_weakref)
    monkeypatch.setattr(dynamics, "propagate", note_the_factor)
    kernel = NoiseKernel(SURROGATE, Temperature.finite(300.0))
    grid = FdrGrid(t_max_fs=100.0, omega_max_cm1=600.0, n_time=101, n_freq=2000)
    system = SystemSpec(h_s=[[50.0, 40.0], [40.0, -50.0]], couplings=(("main", SIGMA_X),))
    tracemalloc.start()
    try:
        report = convergence_study(kernel, system, [0.3, 0.2, 0.1], grid)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert report.observable == "populations"
    assert len(factors) == 1 and factor_alive[0] is False
    assert len(checked) == 4  # fdr_factor, then one propagate per tol
    assert peaks[0] <= checked[0] and peaks[1] <= max(checked[1:])


def test_convergence_study_runs_one_column_id_and_one_reference(dephasing_system, monkeypatch):
    calls = {"column_id": 0, "reference_bcf": 0}

    def count(real):
        def call(*args, **kwargs):
            calls[real.__name__] += 1
            return real(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(disc, name, count(getattr(disc, name)))
    kernel = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
    grid = FdrGrid(t_max_fs=400.0, omega_max_cm1=1200.0, n_time=200, n_freq=2400)
    report = convergence_study(kernel, dephasing_system, [1e-1, 1e-2, 1e-3], grid)
    assert calls == {"column_id": 1, "reference_bcf": 1}
    assert len(set(report.mode_counts)) == 3


def test_convergence_study_builds_its_pivot_columns_once(dephasing_system, monkeypatch):
    # the ID's pivot candidates and recomputed residuals, then the rank pivot columns
    # once more as the factor's basis; the three fits build none
    built = []
    columns = disc.FdrOperator.columns

    def count(self, idx):
        out = columns(self, idx)
        built.append(out.shape[1])
        return out

    monkeypatch.setattr(disc.FdrOperator, "columns", count)
    kernel = NoiseKernel(SURROGATE, Temperature.finite(300.0))
    convergence_study(kernel, dephasing_system, [1e-1, 1e-2, 1e-3], FdrGrid(1000.0, 600.0))
    assert sum(built) == 107
